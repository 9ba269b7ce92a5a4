package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/serveboot"
	"ddstore/internal/transport"
)

const (
	owners = 2
	// workers is the number of closed-loop client goroutines; they share
	// one transport.Group, so each owner sees one connection.
	workers = 2
	// fetchBatch is the ids per LoadLazy call, a training rank's local
	// batch.
	fetchBatch = 32
	// setupReps is how many times a run boots its cluster; setup_s is the
	// median and the last boot is measured.
	setupReps = 9
)

// fetchSpec sizes one fetch workload.
type fetchSpec struct {
	n          int64
	cacheBytes int64 // per owner
}

var (
	// hotSpec: each owner's cache is >= 4x its encoded range, so after
	// warm-up every request is a cache hit.
	hotSpec = fetchSpec{n: 20000, cacheBytes: 64 << 20}
	// coldSpec: each owner's cache holds ~1/35 of its range, so almost
	// every request encodes from the chunk source and evicts.
	coldSpec = fetchSpec{n: 200000, cacheBytes: 4 << 20}
)

// fetchCluster is two static lazy owners behind the multi-tenant front
// end, and the client group that drives them.
type fetchCluster struct {
	insts []*serveboot.Instance
	group *transport.Group
}

func (c *fetchCluster) close() {
	if c.group != nil {
		c.group.Close()
	}
	for _, in := range c.insts {
		in.Close()
	}
}

func (c *fetchCluster) addrs() []string {
	out := make([]string, len(c.insts))
	for i, in := range c.insts {
		out[i] = in.Addr()
	}
	return out
}

func (c *fetchCluster) cacheStats() cache.Stats {
	var sum cache.Stats
	for _, in := range c.insts {
		st, _ := in.CacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Coalesced += st.Coalesced
		sum.Evictions += st.Evictions
	}
	return sum
}

func (c *fetchCluster) shed() int64 {
	var n int64
	for _, in := range c.insts {
		st, _ := in.FrontendStats()
		n += st.Shed
	}
	return n
}

// bootFetch boots the owners, dials the group and warms the owners'
// caches: every id when the caches can hold the dataset, otherwise a
// seeded stream of twice the caches' capacity.
func bootFetch(spec fetchSpec, seed uint64, sampleBytes float64, ctr *netCounters) (*fetchCluster, error) {
	c := &fetchCluster{}
	per := spec.n / owners
	for i := int64(0); i < owners; i++ {
		hi := (i + 1) * per
		if i == owners-1 {
			hi = spec.n
		}
		in, err := serveboot.Boot(serveboot.Config{
			Dataset: "homolumo", N: int(spec.n), Lo: i * per, Hi: hi,
			CacheBytes: spec.cacheBytes, Tenants: "*",
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot owner %d: %w", i, err)
		}
		c.insts = append(c.insts, in)
	}
	g, err := transport.NewGroupReplicas([][]string{c.addrs()}, transport.GroupOptions{
		Client: transport.ClientOptions{Counters: ctr},
	})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("dial group: %w", err)
	}
	c.group = g

	capacity := int64(float64(owners*spec.cacheBytes) / sampleBytes)
	ids := make([]int64, 0, 64)
	flush := func() error {
		lzs, _, err := g.LoadLazy(ids)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for _, lz := range lzs {
			lz.Release()
		}
		ids = ids[:0]
		return nil
	}
	if capacity >= spec.n {
		for id := int64(0); id < spec.n; id++ {
			if ids = append(ids, id); len(ids) == cap(ids) {
				if err := flush(); err != nil {
					c.close()
					return nil, err
				}
			}
		}
	} else {
		rng := rand.New(rand.NewSource(int64(mix(seed, 0x3a7e))))
		for i := int64(0); i < 2*capacity; i++ {
			if ids = append(ids, rng.Int63n(spec.n)); len(ids) == cap(ids) {
				if err := flush(); err != nil {
					c.close()
					return nil, err
				}
			}
		}
	}
	if len(ids) > 0 {
		if err := flush(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// meanEncodedBytes is the mean encoded size of the checker's reference
// subset, which stands in for the dataset's.
func meanEncodedBytes(chk *checker) float64 {
	var sum int
	for _, b := range chk.ref {
		sum += len(b)
	}
	return ratio(float64(sum), float64(len(chk.ref)))
}

func runFetch(o options, spec fetchSpec) (*report, error) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: int(spec.n)})
	chk, err := newChecker(ds, spec.n, o.seed)
	if err != nil {
		return nil, err
	}
	sampleBytes := meanEncodedBytes(chk)
	ctr := &netCounters{}
	cl, setup, err := medianSetup(setupReps,
		func() (*fetchCluster, error) { return bootFetch(spec, o.seed, sampleBytes, ctr) },
		(*fetchCluster).close)
	if err != nil {
		return nil, err
	}
	defer cl.close()

	rangeBytes := int64(float64(spec.n/owners) * sampleBytes)
	rep := &report{
		Sizes: sizes{
			Samples: spec.n, Owners: owners, CacheBytesPerOwner: spec.cacheBytes,
			OwnerRangeBytes: rangeBytes, WorkingSetPerCache: float64(rangeBytes) / float64(spec.cacheBytes),
			Workers: workers, Batch: fetchBatch,
		},
		EndToEnd: metricSet{}, WallClock: metricSet{}, PerLayer: metricSet{},
	}
	var plane lazyLoader = cl.group
	if o.wrap != nil {
		plane = o.wrap(plane)
	}

	ctr.reset()
	cache0, shed0 := cl.cacheStats(), cl.shed()
	runtime.GC()
	meter := startMeter()
	res := fetchLoop(loopConfig{
		dur: seconds(o.seconds), seed: mix(o.seed, 0xfe7c), n: spec.n, plane: plane, chk: chk,
	})
	meter.finish()
	cache1 := cl.cacheStats()

	rep.Attempted, rep.Failed = res.attempted, res.failed
	e2e, layer := rep.EndToEnd, rep.PerLayer
	e2e.set("cpu_us_per_sample", "us", us(meter.cpuPerSample(res.samples)))
	e2e.set("setup_s", "s", setup.cpu)
	e2e.set("peak_heap_mb", "MB", meter.peakHeapMB(fetchWindow))
	rep.Windows = timeWindows(res.ends, res.batches, fetchBatch, res.elapsed, fetchWindow)
	setWindowed(rep.WallClock, rep.Windows)
	rep.WallClock.set("setup_wall_s", "s", setup.wall)

	layer.set("ddp.load_share", "ratio", 0)
	layer.set("ddp.load_ms_p50", "ms", 0)
	layer.set("hydra.step_ms_p50", "ms", 0)
	layer.set("fetch.load_us_p50", "us", us(percentile(res.loads, 50)))
	layer.set("fetch.batch_p99_ms", "ms", ms(percentile(res.batches, 99)))
	layer.set("graph.materialize_us_per_sample", "us", us(res.materialize)/float64(res.samples))
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	layer.set("cache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	layer.set("cache.evictions", "count", float64(cache1.Evictions-cache0.Evictions))
	layer.set("cache.coalesced", "count", float64(cache1.Coalesced-cache0.Coalesced))
	meter.report(layer, res.samples)
	ctr.report(layer)
	layer.set("frontend.shed", "count", float64(cl.shed()-shed0))

	if o.trace {
		newGroup := func(opts transport.GroupOptions) (*transport.Group, error) {
			return transport.NewGroupReplicas([][]string{cl.addrs()}, opts)
		}
		path, err := tracePass(o, newGroup, spec.n, chk, layer)
		if err != nil {
			return nil, err
		}
		rep.TraceFile = path
	}
	rep.Problems = chk.result()
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// loopConfig is one closed-loop phase: workers goroutines, each issuing
// fetchBatch uniform ids, materializing and checking every sample, then
// issuing the next batch.
type loopConfig struct {
	dur   time.Duration
	seed  uint64
	n     int64
	plane lazyLoader
	chk   *checker
	// traced, when set, replaces plane: every batch opens a sampled root
	// trace, recorded with its materialize step into spans.
	traced *transport.Group
	spans  *obs.SpanRing
}

// loopResult is what a phase measured, merged over its workers.
type loopResult struct {
	batches []time.Duration // LoadLazy plus materialize
	loads   []time.Duration // LoadLazy alone
	ends    []time.Duration // completion offset of each batch
	elapsed time.Duration

	samples, attempted, failed int64
	materialize                time.Duration
}

func (r *loopResult) merge(o *loopResult) {
	r.batches = append(r.batches, o.batches...)
	r.loads = append(r.loads, o.loads...)
	r.ends = append(r.ends, o.ends...)
	r.samples += o.samples
	r.attempted += o.attempted
	r.failed += o.failed
	r.materialize += o.materialize
}

func fetchLoop(cfg loopConfig) loopResult {
	var (
		mu  sync.Mutex
		all loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := cfg.worker(w, start, deadline)
			mu.Lock()
			all.merge(&r)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	all.elapsed = time.Since(start)
	return all
}

func (cfg loopConfig) worker(w int, start, deadline time.Time) loopResult {
	var r loopResult
	rng := rand.New(rand.NewSource(int64(mix(cfg.seed, uint64(w)+1))))
	ids := make([]int64, fetchBatch)
	graphs := make([]*graph.Graph, fetchBatch)
	for time.Now().Before(deadline) {
		for i := range ids {
			ids[i] = rng.Int63n(cfg.n)
		}
		t0 := time.Now()
		var (
			lzs []*graph.Lazy
			err error
			tc  tracectx.Context
		)
		if cfg.traced != nil {
			tc = tracectx.New(true)
			lzs, _, err = cfg.traced.LoadLazyTraced(ids, tc)
		} else {
			lzs, _, err = cfg.plane.LoadLazy(ids)
		}
		t1 := time.Now()
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		for i, lz := range lzs {
			graphs[i] = lz.Graph()
		}
		t2 := time.Now()
		for i, g := range graphs {
			cfg.chk.sample(ids[i], g)
		}
		r.batches = append(r.batches, t2.Sub(t0))
		r.loads = append(r.loads, t1.Sub(t0))
		r.ends = append(r.ends, t2.Sub(start))
		r.materialize += t2.Sub(t1)
		r.samples += int64(len(ids))
		if cfg.spans != nil {
			cfg.spans.RecordAll(
				obs.Span{Name: "materialize", Cat: "bench", Owner: -1, Samples: len(ids),
					Start: time.Duration(t1.UnixNano()), Dur: t2.Sub(t1),
					TraceID: tc.TraceID, SpanID: tc.Child().SpanID, ParentID: tc.SpanID},
				obs.Span{Name: "batch", Cat: "bench", Owner: -1, Samples: len(ids),
					Start: time.Duration(t0.UnixNano()), Dur: t2.Sub(t0),
					TraceID: tc.TraceID, SpanID: tc.SpanID})
		}
	}
	return r
}
