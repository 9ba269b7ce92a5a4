//go:build amd64 && !race

package tensor

// kernel16 is the SSE micro-kernel in kernel_amd64.s; see kernel16Func for
// its contract. Callers go through run16, which bounds-checks its reads.
//
//go:noescape
func kernel16(out, a, b []float32, n, astride, bstride int, skip bool)
