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
// transposed forms the backward pass multiplies), small shapes with odd
// column counts around the 8-wide strip, and an empty inner dimension.
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
	for _, c := range []int{1, 3, 7, 9, 17, 33} {
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
			name := fmt.Sprintf("%dx%dx%d", s.r, s.k, s.c)
			withParallelism(par, func() {
				got := New(s.r, s.c)
				for i := range got.Data {
					got.Data[i] = float32(math.NaN()) // must be overwritten
				}
				MatMulInto(got, a, b)
				assertOracleBits(t, "MatMulInto "+name, got, want, par)
				assertOracleBits(t, "MatMulAT "+name, MatMulAT(aT, b), wantAT, par)
				assertOracleBits(t, "MatMulBT "+name, MatMulBT(a, bT), wantBT, par)
			})
		}
	}
	// The inputs must reach every special outcome, yet leave most cells
	// finite so the bit-for-bit comparison has something to bite on.
	if nans == 0 || infs == 0 || 2*(nans+infs) > cells {
		t.Fatalf("oracle inputs too tame or too wild: %d cells, %d NaN, %d Inf", cells, nans, infs)
	}
	t.Logf("%d reference cells: %d NaN, %d ±Inf", cells, nans, infs)
}
