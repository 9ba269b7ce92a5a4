package tensor

import "fmt"

// kernel16Func is the signature of kernel16, the matmul micro-kernel. It
// writes sixteen adjacent output cells,
//
//	out[0:16] = Σ_{k<n} a[k·astride] · b[k·bstride : k·bstride+16]
//
// with each cell starting from +0, adding its n terms in ascending k, and
// rounding every product to float32 before it is added. With skip set, term
// k is left out when a[k·astride] compares equal to zero (so ±0 are skipped
// and NaN is not). All three matmuls reduce to it: MatMulInto walks a row
// of a (astride 1), MatMulAT a column (astride r), and MatMulBT a row of a
// against its transposed b, without the skip.
//
// On amd64 it is one SSE function (kernel_amd64.s): each of the 16 SIMD
// lanes is one output cell and carries the scalar loop's exact operation
// sequence. Elsewhere, and under the race detector (which cannot see
// memory accesses made in assembly), it is kernel16Go.
type kernel16Func func(out, a, b []float32, n, astride, bstride int, skip bool)

// run16 bounds-checks one kernel16 call and makes it, on a[aoff:] and
// b[boff:]. out must hold the 16 cells; the last a and b element the kernel
// will read is checked here, so the assembly never touches memory outside
// the slices it is handed.
func run16(kern kernel16Func, out, a []float32, aoff int, b []float32, boff, n, astride, bstride int, skip bool) {
	if n < 0 || astride < 0 || bstride < 0 {
		panic(fmt.Sprintf("tensor: kernel16 n=%d astride=%d bstride=%d", n, astride, bstride))
	}
	out = out[:16:16]
	if n == 0 {
		a, b = nil, nil
	} else {
		_ = a[aoff+(n-1)*astride]
		_ = b[boff+(n-1)*bstride+15]
		a, b = a[aoff:], b[boff:]
	}
	kern(out, a, b, n, astride, bstride, skip)
}

// kernel16Go is the portable kernel16: two 8-cell strips, each kept in
// eight local accumulators across the whole k loop. The explicit float32
// conversions forbid fusing a product and its add into an FMA on any
// target.
func kernel16Go(out, a, b []float32, n, astride, bstride int, skip bool) {
	for h := 0; h < 16; h += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		ak, off := 0, h
		for k := 0; k < n; k++ {
			if x := a[ak]; !skip || x != 0 {
				bk := b[off : off+8 : off+8]
				s0 += float32(x * bk[0])
				s1 += float32(x * bk[1])
				s2 += float32(x * bk[2])
				s3 += float32(x * bk[3])
				s4 += float32(x * bk[4])
				s5 += float32(x * bk[5])
				s6 += float32(x * bk[6])
				s7 += float32(x * bk[7])
			}
			ak += astride
			off += bstride
		}
		o := out[h : h+8 : h+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}
