package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/hydra"
	"ddstore/internal/obs"
	"ddstore/internal/transport"
)

// traceSpans bounds the span ring of the traced pass; the per-layer
// medians come from the batches it still holds at the end.
const traceSpans = 1 << 14

// tracePass measures the layers under the client: it runs an untraced and
// a traced closed loop of the fetch shape over the workload's cluster, in
// four alternating phases that together last half of --seconds, and reads
// the servers' timing trailers out of the traced loop's spans. It then
// times the model step and the gradient allreduce by direct calls. It adds
// the traced metrics to layer and returns the path of the merged Chrome
// trace.
func tracePass(o options, newGroup func(transport.GroupOptions) (*transport.Group, error), n int64, chk *checker, layer metricSet) (string, error) {
	plain, err := newGroup(transport.GroupOptions{})
	if err != nil {
		return "", fmt.Errorf("traced pass: %w", err)
	}
	defer plain.Close()
	ring := obs.NewSpanRing(traceSpans, 0)
	ring.SetLabel("perfbench " + o.workload)
	traced, err := newGroup(transport.GroupOptions{
		Client: transport.ClientOptions{Tracing: true},
		Spans:  ring,
	})
	if err != nil {
		return "", fmt.Errorf("traced pass: %w", err)
	}
	defer traced.Close()

	phase := seconds(o.seconds) / 8
	var plainRes, tracedRes loopResult
	for i := 0; i < 4; i++ {
		cfg := loopConfig{dur: phase, seed: mix(o.seed, 0x7ace+uint64(i)), n: n, plane: plain, chk: chk}
		if i%2 == 1 {
			cfg.traced, cfg.spans = traced, ring
		}
		r := fetchLoop(cfg)
		dst := &plainRes
		if i%2 == 1 {
			dst = &tracedRes
		}
		dst.merge(&r)
		dst.elapsed += r.elapsed
	}
	if plainRes.failed+tracedRes.failed > 0 {
		return "", fmt.Errorf("traced pass: %d of %d batches failed",
			plainRes.failed+tracedRes.failed, plainRes.attempted+tracedRes.attempted)
	}
	layer.set("obs.trace_overhead_ratio", "ratio",
		ratio(float64(tracedRes.samples)/tracedRes.elapsed.Seconds(), float64(plainRes.samples)/plainRes.elapsed.Seconds()))
	attributeSpans(ring.Spans(), layer)

	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := writeTrace(path, ring); err != nil {
		return "", err
	}
	if err := probeModel(o.seed, layer); err != nil {
		return "", err
	}
	return path, nil
}

// attributeSpans splits each traced batch into its layers. Per server
// request: front-end queue wait, chunk-source time and total service time
// from the trailer; per owner fetch: the client-side remainder (wire,
// framing, CRC, header decode) is the owner span minus the server's
// service time. The residual is the batch time not covered by the slowest
// owner fetch plus the materialize step.
func attributeSpans(spans []obs.Span, layer metricSet) {
	children := make(map[uint64][]obs.Span)
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	var queue, source, service, wire []time.Duration
	var batchSum, residualSum time.Duration
	for _, root := range spans {
		if root.Name != "batch" {
			continue
		}
		var slowest, mat time.Duration
		fetched := false
		for _, c := range children[root.SpanID] {
			switch c.Name {
			case "materialize":
				mat = c.Dur
			case "fetch-owner":
				fetched = true
				if c.Dur > slowest {
					slowest = c.Dur
				}
				for _, req := range children[c.SpanID] {
					if req.Name != "server-request" {
						continue
					}
					var qw, src time.Duration
					for _, seg := range children[req.SpanID] {
						switch seg.Name {
						case "server-queue-wait":
							qw = seg.Dur
						case "server-chunk-source":
							src = seg.Dur
						}
					}
					queue = append(queue, qw)
					source = append(source, src)
					service = append(service, req.Dur)
					wire = append(wire, c.Dur-req.Dur)
				}
			}
		}
		if !fetched {
			// The ring dropped this batch's children.
			continue
		}
		batchSum += root.Dur
		residualSum += root.Dur - slowest - mat
	}
	layer.set("frontend.queue_wait_us_p50", "us", us(percentile(queue, 50)))
	layer.set("serveboot.chunk_source_us_p50", "us", us(percentile(source, 50)))
	layer.set("transport.server_service_us_p50", "us", us(percentile(service, 50)))
	layer.set("transport.wire_client_us_p50", "us", us(percentile(wire, 50)))
	layer.set("obs.attribution_residual_share", "ratio", ratio(float64(residualSum), float64(batchSum)))
}

func writeTrace(path string, ring *obs.SpanRing) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(w, ring); err != nil {
		f.Close()
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	return nil
}

// Direct-call probe sizes.
const (
	probeSteps      = 20
	probeAllreduces = 200
)

// probeModel times Model.TrainStep on a fixed batch of train's shape and
// AllreduceFloat32 of the model's gradient size over two ranks.
func probeModel(seed uint64, layer metricSet) error {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: trainN})
	rng := rand.New(rand.NewSource(int64(mix(seed, 0x9a0b))))
	graphs := make([]*graph.Graph, fetchBatch)
	for i := range graphs {
		g, err := ds.Sample(rng.Int63n(trainN))
		if err != nil {
			return fmt.Errorf("model probe: %w", err)
		}
		graphs[i] = g
	}
	batch, err := graph.NewBatch(graphs)
	if err != nil {
		return fmt.Errorf("model probe: %w", err)
	}
	model := hydra.New(trainModelConfig(ds, seed))
	model.TrainStep(batch) // first call sizes the model's buffers
	steps := make([]time.Duration, probeSteps)
	for i := range steps {
		t0 := time.Now()
		model.TrainStep(batch)
		steps[i] = time.Since(t0)
	}
	layer.set("hydra.train_step_ms", "ms", ms(percentile(steps, 50)))

	world, err := comm.NewWorld(trainRanks, seed)
	if err != nil {
		return fmt.Errorf("allreduce probe: %w", err)
	}
	size := len(model.FlattenGrads(nil))
	calls := make([]time.Duration, probeAllreduces)
	err = world.Run(func(c *comm.Comm) error {
		buf := make([]float32, size)
		for i := range calls {
			for j := range buf {
				buf[j] = 1
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			if err := c.AllreduceFloat32(buf, comm.OpSum); err != nil {
				return err
			}
			if c.Rank() == 0 {
				calls[i] = time.Since(t0)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("allreduce probe: %w", err)
	}
	layer.set("comm.allreduce_us", "us", us(percentile(calls, 50)))
	return nil
}
