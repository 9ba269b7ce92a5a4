package tensor

import (
	"fmt"
	"math"
	"testing"

	"ddstore/internal/vtime"
)

// The reference kernels below are the straightforward scalar loops the
// register-blocked kernels in tensor.go replaced, kept as the bit-identity
// oracle: every output cell of the fast kernels must carry exactly the
// float32 operation sequence these loops perform. The one edit is that each
// product is explicitly rounded before it is added, which is how the loops
// always compiled for the default amd64 target (GOAMD64=v1 has no FMA), and
// which keeps the oracle meaningful on targets that would fuse the pair.

func refMatMulInto(out, a, b *Matrix) {
	ParallelFor(a.Rows, 2*a.Cols*b.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			for k := 0; k < a.Cols; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Row(k)
				for j := range brow {
					orow[j] += float32(aik * brow[j])
				}
			}
		}
	})
}

func refMatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	ParallelFor(a.Cols, 2*a.Rows*b.Cols, func(lo, hi int) {
		for k := 0; k < a.Rows; k++ {
			arow := a.Row(k)
			brow := b.Row(k)
			for i := lo; i < hi; i++ {
				aki := arow[i]
				if aki == 0 {
					continue
				}
				orow := out.Row(i)
				for j := range brow {
					orow[j] += float32(aki * brow[j])
				}
			}
		}
	})
	return out
}

func refMatMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	ParallelFor(a.Rows, 2*a.Cols*b.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var sum float32
				for k := range arow {
					sum += float32(arow[k] * brow[k])
				}
				orow[j] = sum
			}
		}
	})
	return out
}

// specialMat fills a rows×cols matrix with normal values salted with the
// cases that expose a changed operation order: exact zeros of both signs
// (which the zero-skip must treat alike), ±Inf, NaN, and magnitudes whose
// products or sums overflow float32. inner is the length of the dot
// products the matrix feeds; specials are spread at about one per two dot
// products, so most output cells stay finite and are compared bit for bit.
func specialMat(rng *vtime.RNG, rows, cols, inner int) *Matrix {
	m := randMat(rng, rows, cols)
	specials := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		3e38, -3e38, 1e30, -1e30, 1e-30,
	}
	for i := range m.Data {
		switch {
		case rng.Intn(4) == 0:
			m.Data[i] = float32(math.Copysign(0, float64(rng.Intn(2)-1))) // ±0
		case rng.Intn(2*inner+1) == 0:
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// oracleShapes are the training products of BenchmarkMatMulTrain (and the
// transposed forms the backward pass multiplies), small shapes with column
// counts around the 8-wide strips and the 16-wide kernel blocks (one,
// two and three blocks, with and without a tail), and inner dimensions of
// 1 and 0.
type oracleShape struct{ r, k, c int }

func oracleShapes() []oracleShape {
	shapes := []oracleShape{
		// forward: x·W
		{1450, 208, 16}, {1450, 16, 16}, {1450, 3, 16}, {32, 16, 1},
		// weight gradients xᵀ·dOut, as MatMulAT's r, k, c
		{208, 1450, 16}, {16, 1450, 16}, {3, 1450, 16}, {16, 32, 1},
		// input gradients dOut·Wᵀ, as MatMulBT's r, k, c
		{1450, 16, 208}, {1450, 16, 3}, {32, 1, 16},
	}
	for _, c := range []int{1, 3, 7, 9, 16, 17, 32, 33, 48} {
		shapes = append(shapes, oracleShape{37, 19, c}, oracleShape{5, 1, c}, oracleShape{3, 0, c})
	}
	return shapes
}

// assertOracleBits demands Float32bits equality for every cell, except that
// a NaN cell only has to be NaN: when both operands of an add are NaN, x86
// returns the first operand's payload, and which operand comes first is the
// register allocator's choice, not part of the operation sequence. (The
// scalar loop adds the accumulator from memory into the product's register;
// a register-resident accumulator is the destination instead.) A cell that
// is NaN on one side and a number on the other still fails.
func assertOracleBits(t *testing.T, name string, got, want *Matrix, par int) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s parallelism=%d: shape %dx%d want %dx%d", name, par, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s parallelism=%d: element %d = %x want %x (not bit-identical)",
				name, par, i, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// oracleKernels are the two implementations of the micro-kernel. The
// oracle runs the matmuls over each, so the portable Go kernel (which
// non-amd64 and race builds use) is checked on every host, not only where
// it is the default.
var oracleKernels = []struct {
	name string
	kern kernel16Func
}{
	{"kernel16", kernel16},
	{"kernel16Go", kernel16Go},
}

func TestMatMulKernelsMatchOracle(t *testing.T) {
	rng := vtime.NewRNG(2024)
	var cells, nans, infs int // over all reference outputs
	for _, s := range oracleShapes() {
		// The three kernels read the shape triple their own way:
		// Into: (r×k)·(k×c); AT: (k×r)ᵀ·(k×c); BT: (r×k)·(c×k)ᵀ.
		a := specialMat(rng, s.r, s.k, s.k)
		b := specialMat(rng, s.k, s.c, s.k)
		aT := specialMat(rng, s.k, s.r, s.k)
		bT := specialMat(rng, s.c, s.k, s.k)
		want := New(s.r, s.c)
		withParallelism(1, func() { refMatMulInto(want, a, b) })
		wantAT := refMatMulAT(aT, b)
		wantBT := refMatMulBT(a, bT)
		for _, m := range []*Matrix{want, wantAT, wantBT} {
			for _, v := range m.Data {
				cells++
				switch {
				case v != v:
					nans++
				case math.IsInf(float64(v), 0):
					infs++
				}
			}
		}
		for _, par := range []int{1, 2, 4} {
			for _, kn := range oracleKernels {
				name := fmt.Sprintf("%dx%dx%d via %s", s.r, s.k, s.c, kn.name)
				withParallelism(par, func() {
					got := New(s.r, s.c)
					for i := range got.Data {
						got.Data[i] = float32(math.NaN()) // must be overwritten
					}
					matMulInto(kn.kern, got, a, b)
					assertOracleBits(t, "MatMulInto "+name, got, want, par)
					assertOracleBits(t, "MatMulAT "+name, matMulAT(kn.kern, aT, b), wantAT, par)
					assertOracleBits(t, "MatMulBT "+name, matMulBT(kn.kern, a, bT), wantBT, par)
				})
			}
		}
	}
	// The inputs must reach every special outcome, yet leave most cells
	// finite so the bit-for-bit comparison has something to bite on.
	if nans == 0 || infs == 0 || 2*(nans+infs) > cells {
		t.Fatalf("oracle inputs too tame or too wild: %d cells, %d NaN, %d Inf", cells, nans, infs)
	}
	t.Logf("%d reference cells: %d NaN, %d ±Inf", cells, nans, infs)
}

// sparseGrad returns a finite rows×cols gradient with about 57% of its
// entries zeroed, half +0 and half −0: the share the ReLU masks leave in the
// PNA update gradient of perfbench's train model (measured over 40 steps).
func sparseGrad(rng *vtime.RNG, rows, cols int) *Matrix {
	m := randMat(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(100) < 57 {
			m.Data[i] = float32(math.Copysign(0, float64(rng.Intn(2)-1)))
		}
	}
	return m
}

// TestMatMulKernelsMatchOracleSparseGrad runs one training step's worth of
// products on finite operands shaped like training: ReLU'd activations x
// (about half +0), a dense weight w and a ~57%-zero gradient dOut, as
// x·w, xᵀ·dOut and dOut·wᵀ. With no
// NaN anywhere every cell must match the oracle bit for bit.
func TestMatMulKernelsMatchOracleSparseGrad(t *testing.T) {
	rng := vtime.NewRNG(57)
	for _, s := range []oracleShape{{1450, 208, 16}, {1450, 16, 16}, {1450, 3, 16}, {301, 40, 48}} {
		x := randMat(rng, s.r, s.k)
		ReluInPlace(x)
		w := randMat(rng, s.k, s.c)
		dOut := sparseGrad(rng, s.r, s.c)
		want := New(s.r, s.c)
		withParallelism(1, func() { refMatMulInto(want, x, w) })
		wantAT := refMatMulAT(x, dOut)
		wantBT := refMatMulBT(dOut, w)
		for _, m := range []*Matrix{want, wantAT, wantBT} {
			for _, v := range m.Data {
				if v != v || math.IsInf(float64(v), 0) {
					t.Fatalf("%v: reference is not finite", s)
				}
			}
		}
		for _, par := range []int{1, 2, 4} {
			for _, kn := range oracleKernels {
				name := fmt.Sprintf("%dx%dx%d via %s", s.r, s.k, s.c, kn.name)
				withParallelism(par, func() {
					got := New(s.r, s.c)
					matMulInto(kn.kern, got, x, w)
					assertOracleBits(t, "MatMulInto "+name, got, want, par)
					assertOracleBits(t, "MatMulAT "+name, matMulAT(kn.kern, x, dOut), wantAT, par)
					assertOracleBits(t, "MatMulBT "+name, matMulBT(kn.kern, dOut, w), wantBT, par)
				})
			}
		}
	}
}

// sentinel is a NaN with a payload no kernel produces from finite inputs;
// canary cells are compared by bits against it.
var sentinel = math.Float32frombits(0x7fc0dead)

// fenced returns a rows×cols matrix holding src's data (zeros when src is
// nil) in the middle of a larger array: pad sentinel cells before it and
// pad after it, the latter within the slice's capacity. It also returns
// the whole backing array.
func fenced(rows, cols, pad int, src *Matrix) (*Matrix, []float32) {
	n := rows * cols
	backing := make([]float32, pad+n+pad)
	for i := range backing {
		backing[i] = sentinel
	}
	data := backing[pad : pad+n]
	if src != nil {
		copy(data, src.Data)
	} else {
		clear(data)
	}
	return FromData(rows, cols, data), backing
}

func assertFence(t *testing.T, name string, backing []float32, pad int) {
	t.Helper()
	for i, v := range backing {
		if (i < pad || i >= len(backing)-pad) && math.Float32bits(v) != math.Float32bits(sentinel) {
			t.Fatalf("%s: canary cell %d of %d overwritten with %x", name, i, len(backing), math.Float32bits(v))
		}
	}
}

// TestKernel16Canary checks that each kernel writes exactly its 16 cells
// and reads nothing past the end of its operands. A direct call on the
// middle block of a 48-wide row must leave the 32 cells either side of it
// untouched. Through the matmuls, every operand is fenced by sentinel NaNs
// before its first cell and past its last (inside the slice's capacity): a
// read of a fence would turn a finite result into NaN, and a write to one
// would change its bits.
func TestKernel16Canary(t *testing.T) {
	rng := vtime.NewRNG(16)
	for _, kn := range oracleKernels {
		for _, skip := range []bool{true, false} {
			row := make([]float32, 48)
			for i := range row {
				row[i] = sentinel
			}
			a := randMat(rng, 1, 5).Data
			b := randMat(rng, 5, 16).Data
			run16(kn.kern, row[16:32], a, 0, b, 0, 5, 1, 16, skip)
			for i, v := range row {
				if (i < 16 || i >= 32) && math.Float32bits(v) != math.Float32bits(sentinel) {
					t.Fatalf("%s skip=%v: cell %d outside the block = %x", kn.name, skip, i, math.Float32bits(v))
				}
				if i >= 16 && i < 32 && v != v {
					t.Fatalf("%s skip=%v: block cell %d not written", kn.name, skip, i)
				}
			}
		}

		const pad = 19
		for _, s := range []oracleShape{{7, 5, 16}, {9, 3, 33}, {4, 1, 48}, {6, 0, 32}} {
			name := fmt.Sprintf("%s %dx%dx%d", kn.name, s.r, s.k, s.c)
			x, xb := fenced(s.r, s.k, pad, randMat(rng, s.r, s.k))
			w, wb := fenced(s.k, s.c, pad, randMat(rng, s.k, s.c))
			dOut, db := fenced(s.r, s.c, pad, sparseGrad(rng, s.r, s.c))

			out, ob := fenced(s.r, s.c, pad, nil)
			want := New(s.r, s.c)
			refMatMulInto(want, x, w)
			matMulInto(kn.kern, out, x, w)
			assertOracleBits(t, "MatMulInto "+name, out, want, 1)
			assertFence(t, "MatMulInto out "+name, ob, pad)

			assertOracleBits(t, "MatMulAT "+name, matMulAT(kn.kern, x, dOut), refMatMulAT(x, dOut), 1)
			assertOracleBits(t, "MatMulBT "+name, matMulBT(kn.kern, dOut, w), refMatMulBT(dOut, w), 1)
			for i, fb := range [][]float32{xb, wb, db} {
				assertFence(t, fmt.Sprintf("operand %d of %s", i, name), fb, pad)
			}
		}
	}
}
