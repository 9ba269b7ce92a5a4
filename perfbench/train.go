package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/graph"
	"ddstore/internal/hydra"
	"ddstore/internal/serveboot"
	"ddstore/internal/transport"
)

const (
	trainN     = 4000
	trainRanks = 2
	// trainStepsPerSecond converts --seconds into a fixed step count: it
	// is the measured step rate of this model on a 2-CPU host, so a run
	// trains for about --seconds there and for the same number of steps
	// everywhere.
	trainStepsPerSecond = 20
)

func trainModelConfig(ds *datasets.Dataset, seed uint64) hydra.Config {
	return hydra.Config{
		NodeFeatDim: ds.NodeFeatDim(),
		EdgeFeatDim: ds.EdgeFeatDim(),
		HiddenDim:   16,
		ConvLayers:  2,
		FCLayers:    2,
		OutputDim:   ds.OutputDim(),
		Seed:        seed,
	}
}

// trainCluster is a preloaded two-owner elastic cluster (the paper's
// all-in-memory design) and the elastic group both ranks share.
type trainCluster struct {
	cl    *serveboot.Cluster
	group *transport.Group
}

func (c *trainCluster) close() {
	if c.group != nil {
		c.group.Close()
	}
	c.cl.Close()
}

func bootTrain(ctr *netCounters) (*trainCluster, error) {
	cl, err := serveboot.BootCluster(serveboot.ElasticConfig{Dataset: "homolumo", N: trainN, Owners: owners})
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	c := &trainCluster{cl: cl}
	g, err := transport.NewElasticGroup(cl.Addrs(), transport.GroupOptions{
		Client: transport.ClientOptions{Counters: ctr},
	})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("dial group: %w", err)
	}
	c.group = g
	// Touch both ends of the keyspace so every owner is dialed.
	lzs, _, err := g.LoadLazy([]int64{0, trainN - 1})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, lz := range lzs {
		lz.Release()
	}
	return c, nil
}

// trainLoader is one rank's ddp.Loader over the group. It times the
// LoadLazy call and the materialize step separately, records when each
// step's load began, and checks every sample.
type trainLoader struct {
	plane lazyLoader
	chk   *checker

	starts      []time.Time
	lazies      []time.Duration // LoadLazy alone
	loads       []time.Duration // LoadLazy plus materialize
	materialize time.Duration
	samples     int64
}

func (l *trainLoader) Len() int { return trainN }

func (l *trainLoader) LoadBatch(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	t0 := time.Now()
	lzs, lats, err := l.plane.LoadLazy(ids)
	t1 := time.Now()
	l.starts = append(l.starts, t0)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(lzs))
	for i, lz := range lzs {
		out[i] = lz.Graph()
	}
	t2 := time.Now()
	for i, g := range out {
		l.chk.sample(ids[i], g)
	}
	l.lazies = append(l.lazies, t1.Sub(t0))
	l.loads = append(l.loads, t2.Sub(t0))
	l.materialize += t2.Sub(t1)
	l.samples += int64(len(ids))
	return out, lats, nil
}

// trainPlan converts --seconds into epochs of a fixed step count.
func trainPlan(secs float64, seed uint64) (epochs, steps int) {
	full := ddp.NewSplit(trainN, seed).Train.Len() / (fetchBatch * trainRanks)
	total := int(math.Ceil(secs * trainStepsPerSecond))
	epochs = (total + full - 1) / full
	steps = (total + epochs - 1) / epochs
	return epochs, steps
}

// train runs DDP over one loader per rank and returns the final epoch's
// globally averaged loss.
func train(seed uint64, epochs, steps int, ds *datasets.Dataset, loaders [trainRanks]ddp.Loader) (float64, error) {
	world, err := comm.NewWorld(trainRanks, seed)
	if err != nil {
		return 0, err
	}
	var loss [trainRanks]float64
	err = world.Run(func(c *comm.Comm) error {
		res, err := ddp.Run(c, ddp.Config{
			Loader:           loaders[c.Rank()],
			LocalBatch:       fetchBatch,
			Epochs:           epochs,
			MaxStepsPerEpoch: steps,
			Seed:             seed,
			Model:            hydra.New(trainModelConfig(ds, seed)),
			LR:               1e-3,
		})
		if err != nil {
			return err
		}
		loss[c.Rank()] = res.Epochs[len(res.Epochs)-1].TrainLoss
		return nil
	})
	return loss[0], err
}

func runTrain(o options) (*report, error) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: trainN})
	chk, err := newChecker(ds, trainN, o.seed)
	if err != nil {
		return nil, err
	}
	ctr := &netCounters{}
	tc, setup, err := medianSetup(setupReps, func() (*trainCluster, error) { return bootTrain(ctr) }, (*trainCluster).close)
	if err != nil {
		return nil, err
	}
	defer tc.close()

	epochs, steps := trainPlan(o.seconds, o.seed)
	rep := &report{
		Sizes: sizes{
			Samples: trainN, Owners: owners, Workers: trainRanks, Batch: fetchBatch,
			Epochs: epochs, StepsPerEpoch: steps,
		},
		EndToEnd: metricSet{}, WallClock: metricSet{}, PerLayer: metricSet{},
	}
	var plane lazyLoader = tc.group
	if o.wrap != nil {
		plane = o.wrap(plane)
	}
	var loaders [trainRanks]*trainLoader
	var dl [trainRanks]ddp.Loader
	for r := range loaders {
		loaders[r] = &trainLoader{plane: plane, chk: chk}
		dl[r] = loaders[r]
	}

	ctr.reset()
	runtime.GC()
	meter := startMeter()
	start := time.Now()
	loss, err := train(o.seed, epochs, steps, ds, dl)
	wall := time.Since(start)
	meter.finish()
	if err != nil {
		return nil, fmt.Errorf("train over the cluster: %w", err)
	}

	// The same run over an in-process source must reach the same loss bit
	// for bit: the wire delivered exactly the dataset.
	var src [trainRanks]ddp.Loader
	for r := range src {
		src[r] = &ddp.SourceLoader{Source: ds}
	}
	refLoss, err := train(o.seed, epochs, steps, ds, src)
	if err != nil {
		return nil, fmt.Errorf("reference training: %w", err)
	}
	if math.Float64bits(loss) != math.Float64bits(refLoss) {
		chk.fail("final-epoch loss %v over the cluster, %v over the source loader", loss, refLoss)
	}

	r0 := loaders[0]
	var gaps, compute []time.Duration
	for i := 1; i < len(r0.starts); i++ {
		gap := r0.starts[i].Sub(r0.starts[i-1])
		gaps = append(gaps, gap)
		compute = append(compute, gap-r0.loads[i-1])
	}
	var samples, calls int64
	var mat, load0 time.Duration
	for _, l := range loaders {
		samples += l.samples
		calls += int64(len(l.starts))
		mat += l.materialize
	}
	for _, d := range r0.loads {
		load0 += d
	}
	rep.Attempted = calls

	e2e, layer := rep.EndToEnd, rep.PerLayer
	e2e.set("cpu_us_per_sample", "us", us(meter.cpuPerSample(samples)))
	e2e.set("setup_s", "s", setup.cpu)
	e2e.set("peak_heap_mb", "MB", meter.peakHeapMB(fetchWindow))
	rep.Windows = stepWindows(gaps, fetchBatch*trainRanks, trainWindowSteps)
	setWindowed(rep.WallClock, rep.Windows)
	rep.WallClock.set("setup_wall_s", "s", setup.wall)

	layer.set("ddp.load_share", "ratio", load0.Seconds()/wall.Seconds())
	layer.set("ddp.load_ms_p50", "ms", ms(percentile(r0.loads, 50)))
	layer.set("hydra.step_ms_p50", "ms", ms(percentile(compute, 50)))
	layer.set("fetch.load_us_p50", "us", us(percentile(r0.lazies, 50)))
	layer.set("fetch.batch_p99_ms", "ms", ms(percentile(r0.loads, 99)))
	layer.set("graph.materialize_us_per_sample", "us", us(mat)/float64(samples))
	// The preloaded cluster serves from memory without a cache.
	layer.set("cache.hit_ratio", "ratio", 0)
	layer.set("cache.evictions", "count", 0)
	layer.set("cache.coalesced", "count", 0)
	meter.report(layer, samples)
	ctr.report(layer)
	layer.set("frontend.shed", "count", 0)

	if o.trace {
		newGroup := func(opts transport.GroupOptions) (*transport.Group, error) {
			return transport.NewElasticGroup(tc.cl.Addrs(), opts)
		}
		path, err := tracePass(o, newGroup, trainN, chk, layer)
		if err != nil {
			return nil, err
		}
		rep.TraceFile = path
	}
	rep.Problems = chk.result()
	return rep, nil
}
