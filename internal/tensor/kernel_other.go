//go:build !amd64 || race

package tensor

// kernel16 is the portable micro-kernel. Race builds on amd64 use it too,
// so the race detector sees every kernel read and write.
func kernel16(out, a, b []float32, n, astride, bstride int, skip bool) {
	kernel16Go(out, a, b, n, astride, bstride, skip)
}
