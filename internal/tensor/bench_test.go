package tensor

import (
	"fmt"
	"testing"

	"ddstore/internal/vtime"
)

// BenchmarkMatMul measures the matmul kernels at serial parallelism and at
// 4 workers, across the sizes the PNA layers actually multiply (hidden dim
// 200 in the paper's config). On a single-core host the parallel numbers
// degrade gracefully to ~serial: blocks run inline when the pool is busy.
func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{64, 256, 512} {
		rng := vtime.NewRNG(uint64(size))
		x := randMat(rng, size, size)
		y := randMat(rng, size, size)
		out := New(size, size)
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("%dx%d/par%d", size, size, par), func(b *testing.B) {
				SetParallelism(par)
				defer SetParallelism(0)
				b.SetBytes(int64(size * size * 4))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(out, x, y)
				}
			})
		}
	}
}

func BenchmarkMatMulAT(b *testing.B) {
	const size = 256
	rng := vtime.NewRNG(size)
	x := randMat(rng, size, size)
	y := randMat(rng, size, size)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dx%d/par%d", size, size, par), func(b *testing.B) {
			SetParallelism(par)
			defer SetParallelism(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulAT(x, y)
			}
		})
	}
}

func BenchmarkMatMulBT(b *testing.B) {
	const size = 256
	rng := vtime.NewRNG(size)
	x := randMat(rng, size, size)
	y := randMat(rng, size, size)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dx%d/par%d", size, size, par), func(b *testing.B) {
			SetParallelism(par)
			defer SetParallelism(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulBT(x, y)
			}
		})
	}
}

// trainShapes are the products one HydraGNN training step multiplies at
// perfbench's train configuration, with rows = the ~1450 nodes of a
// 32-graph batch: the PNA update network's 208-wide input (hidden 16 ×
// (1 + 4 aggregators × 3 scalers)), the 16-wide hidden layers, the 3-wide
// node-feature embedding, and the graph-level output head. Each is r×k ·
// k×c in MatMulInto terms; the backward pass multiplies the matching
// transposed forms.
var trainShapes = []struct {
	name    string
	r, k, c int
}{
	{"update", 1450, 208, 16},
	{"hidden", 1450, 16, 16},
	{"embed", 1450, 3, 16},
	{"head", 32, 16, 1},
}

// BenchmarkMatMulTrain measures all three kernels at the training shapes:
// Into is the forward product, AT the weight gradient aᵀ·dOut and BT the
// input gradient dOut·wᵀ. dOut has ~57% zeros of both signs, as the ReLU
// masks leave it in training (sparseGrad), so AT and BT run on realistic
// operands.
func BenchmarkMatMulTrain(b *testing.B) {
	for _, s := range trainShapes {
		rng := vtime.NewRNG(uint64(s.r*s.k + s.c))
		x := randMat(rng, s.r, s.k)
		w := randMat(rng, s.k, s.c)
		dOut := sparseGrad(rng, s.r, s.c)
		out := New(s.r, s.c)
		kernels := []struct {
			name string
			run  func()
		}{
			{"Into", func() { MatMulInto(out, x, w) }},
			{"AT", func() { MatMulAT(x, dOut) }},
			{"BT", func() { MatMulBT(dOut, w) }},
		}
		for _, kr := range kernels {
			for _, par := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s_%dx%dx%d/par%d", kr.name, s.name, s.r, s.k, s.c, par), func(b *testing.B) {
					SetParallelism(par)
					defer SetParallelism(0)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						kr.run()
					}
				})
			}
		}
	}
}
