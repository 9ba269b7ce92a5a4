package hydra

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
)

// TestHydraTrainGoldenBits pins the numerics of perfbench's train model
// (hidden 16, 2 PNA convolutions, 2 FC layers) across commits: five
// TrainSteps on one fixed 32-graph batch must reproduce, bit for bit, the
// final loss and an FNV-64a hash of every accumulated gradient's bits. The
// constants were recorded before the matmul kernels were register-blocked
// and hold under -cpu 1 and -cpu 2. TestHydraLossDeterministicAcrossParallelism
// only compares worker counts with each other, so it cannot see a kernel
// that changes every result the same way; this test can. A deliberate
// numerics change must re-record both constants and say why.
func TestHydraTrainGoldenBits(t *testing.T) {
	const (
		wantLossBits = 0x401dea0534b865b0
		wantGradHash = 0x0b44257b0c529a1c
	)
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 4000})
	graphs := make([]*graph.Graph, 0, 32)
	for id := int64(0); id < 32; id++ {
		g, err := ds.ReadSample(id * 37 % 4000)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	batch, err := graph.NewBatch(graphs)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{
		NodeFeatDim: ds.NodeFeatDim(),
		EdgeFeatDim: ds.EdgeFeatDim(),
		HiddenDim:   16,
		ConvLayers:  2,
		FCLayers:    2,
		OutputDim:   ds.OutputDim(),
		Seed:        7,
	})
	var loss float64
	for step := 0; step < 5; step++ {
		loss = m.TrainStep(batch)
	}
	h := fnv.New64a()
	var word [4]byte
	for _, g := range m.FlattenGrads(nil) {
		binary.LittleEndian.PutUint32(word[:], math.Float32bits(g))
		h.Write(word[:])
	}
	if got := math.Float64bits(loss); got != wantLossBits {
		t.Errorf("loss bits %#016x (%v), want %#016x", got, loss, uint64(wantLossBits))
	}
	if got := h.Sum64(); got != wantGradHash {
		t.Errorf("gradient hash %#016x, want %#016x", got, uint64(wantGradHash))
	}
}
