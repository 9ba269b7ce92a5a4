// Package tensor provides the dense float32 matrix operations the GNN
// substrate is built on: matmul (plain and transposed variants), bias and
// activation kernels, and element-wise helpers. Everything is row-major and
// allocation-explicit; layers reuse buffers across steps where it matters.
package tensor

import (
	"fmt"
	"math"

	"ddstore/internal/vtime"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps data (not copied) as a Rows×Cols matrix.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d values for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randomize fills the matrix with Glorot-uniform values using rng: uniform
// in ±sqrt(6/(fanIn+fanOut)).
func (m *Matrix) Randomize(rng *vtime.RNG) {
	limit := float32(math.Sqrt(6 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (2*float32(rng.Float64()) - 1) * limit
	}
}

// MatMul computes out = a · b, allocating out. a is r×k, b is k×c.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// The three matmuls below hand every full 16-column block of an output row
// to kernel16 (kernel.go), which keeps the block in accumulators across
// the whole k loop and stores each cell once; the last c%16 columns run in
// Go strips. Blocking only regroups independent cells. Every cell keeps
// the float32 operation sequence of the plain triple loop: start from +0,
// k ascending, the same zero-skips, and each product rounded before it is
// added (the explicit float32 conversions, and MULPS then ADDPS in the
// kernel, forbid fusing the pair into an FMA). Results are therefore
// bit-identical to the scalar loops and, with ParallelFor's output-row
// partition, for every worker count. Rows are sliced once per row or per k
// step, so the strip loops index with constants and carry no per-element
// bounds checks.

// MatMulInto computes out = a · b into a preallocated out (overwritten).
func MatMulInto(out, a, b *Matrix) { matMulInto(kernel16, out, a, b) }

func matMulInto(kern kernel16Func, out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul into %dx%d = %dx%d · %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// Parallel over output rows; per row, column blocks accumulate over the
	// k-th row of b in ascending k, skipping zero a[i][k].
	n, c := a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	ParallelFor(a.Rows, 2*n*c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*n : i*n+n]
			orow := od[i*c : i*c+c]
			j := 0
			for ; j+16 <= c; j += 16 {
				run16(kern, orow[j:j+16:j+16], arow, 0, bd, j, n, 1, c, true)
			}
			for ; j+8 <= c; j += 8 {
				var s0, s1, s2, s3, s4, s5, s6, s7 float32
				off := j
				for _, aik := range arow {
					if aik != 0 {
						bk := bd[off : off+8 : off+8]
						s0 += float32(aik * bk[0])
						s1 += float32(aik * bk[1])
						s2 += float32(aik * bk[2])
						s3 += float32(aik * bk[3])
						s4 += float32(aik * bk[4])
						s5 += float32(aik * bk[5])
						s6 += float32(aik * bk[6])
						s7 += float32(aik * bk[7])
					}
					off += c
				}
				o := orow[j : j+8 : j+8]
				o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
			}
			for ; j < c; j++ {
				var s float32
				off := j
				for _, aik := range arow {
					if aik != 0 {
						s += float32(aik * bd[off])
					}
					off += c
				}
				orow[j] = s
			}
		}
	})
}

// MatMulAT computes out = aᵀ · b. a is k×r, b is k×c, out is r×c.
func MatMulAT(a, b *Matrix) *Matrix { return matMulAT(kernel16, a, b) }

func matMulAT(kern kernel16Func, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAT %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	// Parallel over output rows (a's columns); per out row i, column blocks
	// accumulate over the rows of b in ascending k, skipping zero a[k][i] —
	// the column of a is read with stride r.
	n, r, c := a.Rows, a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	ParallelFor(r, 2*n*c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := od[i*c : i*c+c]
			j := 0
			for ; j+16 <= c; j += 16 {
				run16(kern, orow[j:j+16:j+16], ad, i, bd, j, n, r, c, true)
			}
			for ; j+8 <= c; j += 8 {
				var s0, s1, s2, s3, s4, s5, s6, s7 float32
				off := j
				for k := i; k < len(ad); k += r {
					if aki := ad[k]; aki != 0 {
						bk := bd[off : off+8 : off+8]
						s0 += float32(aki * bk[0])
						s1 += float32(aki * bk[1])
						s2 += float32(aki * bk[2])
						s3 += float32(aki * bk[3])
						s4 += float32(aki * bk[4])
						s5 += float32(aki * bk[5])
						s6 += float32(aki * bk[6])
						s7 += float32(aki * bk[7])
					}
					off += c
				}
				o := orow[j : j+8 : j+8]
				o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
			}
			for ; j < c; j++ {
				var s float32
				off := j
				for k := i; k < len(ad); k += r {
					if aki := ad[k]; aki != 0 {
						s += float32(aki * bd[off])
					}
					off += c
				}
				orow[j] = s
			}
		}
	})
	return out
}

// MatMulBT computes out = a · bᵀ. a is r×k, b is c×k, out is r×c.
func MatMulBT(a, b *Matrix) *Matrix { return matMulBT(kernel16, a, b) }

func matMulBT(kern kernel16Func, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulBT %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	// Parallel over rows of a. Column blocks run the kernel over bᵀ (k×c,
	// transposed once per call; b is a weight, small next to a), without
	// the zero-skip. Each remaining cell is one serial dot product over k,
	// and four of them (columns j..j+3) run as independent chains so the
	// adds overlap instead of waiting on one another.
	n, c := a.Cols, b.Rows
	ad, bd, od := a.Data, b.Data, out.Data
	var bt []float32
	if c >= 16 {
		bt = make([]float32, n*c)
		for j := 0; j < c; j++ {
			for k, v := range bd[j*n : j*n+n] {
				bt[k*c+j] = v
			}
		}
	}
	ParallelFor(a.Rows, 2*n*c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*n : i*n+n]
			orow := od[i*c : i*c+c]
			j := 0
			for ; j+16 <= c; j += 16 {
				run16(kern, orow[j:j+16:j+16], arow, 0, bt, j, n, 1, c, false)
			}
			for ; j+4 <= c; j += 4 {
				b0 := bd[j*n : j*n+n][:len(arow)]
				b1 := bd[(j+1)*n : (j+1)*n+n][:len(arow)]
				b2 := bd[(j+2)*n : (j+2)*n+n][:len(arow)]
				b3 := bd[(j+3)*n : (j+3)*n+n][:len(arow)]
				var s0, s1, s2, s3 float32
				for k, x := range arow {
					s0 += float32(x * b0[k])
					s1 += float32(x * b1[k])
					s2 += float32(x * b2[k])
					s3 += float32(x * b3[k])
				}
				o := orow[j : j+4 : j+4]
				o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			}
			for ; j < c; j++ {
				bj := bd[j*n : j*n+n][:len(arow)]
				var s float32
				for k, x := range arow {
					s += float32(x * bj[k])
				}
				orow[j] = s
			}
		}
	})
	return out
}

// AddBiasRows adds bias (length Cols) to every row of m in place.
func AddBiasRows(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: bias %d for %d cols", len(bias), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// BiasGrad accumulates the column sums of dOut into gBias.
func BiasGrad(gBias []float32, dOut *Matrix) {
	if len(gBias) != dOut.Cols {
		panic(fmt.Sprintf("tensor: bias grad %d for %d cols", len(gBias), dOut.Cols))
	}
	for i := 0; i < dOut.Rows; i++ {
		row := dOut.Row(i)
		for j := range row {
			gBias[j] += row[j]
		}
	}
}

// ReluInPlace applies max(0, x) element-wise.
func ReluInPlace(m *Matrix) {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// ReluBackward zeroes gradient entries where the forward activation was
// clipped: dIn = dOut ⊙ (activated > 0). activated is the post-ReLU output.
func ReluBackward(dOut, activated *Matrix) {
	if len(dOut.Data) != len(activated.Data) {
		panic("tensor: relu backward shape mismatch")
	}
	for i := range dOut.Data {
		if activated.Data[i] <= 0 {
			dOut.Data[i] = 0
		}
	}
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	if len(a.Data) != len(b.Data) {
		panic("tensor: add shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ConcatCols concatenates matrices with equal row counts side by side.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: concat rows %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		orow := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// SplitCols splits m into column blocks of the given widths (must sum to
// m.Cols), copying.
func SplitCols(m *Matrix, widths ...int) []*Matrix {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != m.Cols {
		panic(fmt.Sprintf("tensor: split widths sum %d != %d cols", total, m.Cols))
	}
	out := make([]*Matrix, len(widths))
	off := 0
	for bi, w := range widths {
		b := New(m.Rows, w)
		for i := 0; i < m.Rows; i++ {
			copy(b.Row(i), m.Row(i)[off:off+w])
		}
		out[bi] = b
		off += w
	}
	return out
}
