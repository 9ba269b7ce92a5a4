package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/stats"
	"ddstore/internal/transport"
)

// metric is one named number with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics under their names.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the p-th percentile (0..100) of xs; 0 for an empty
// slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// percentile is quantile over durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return stats.DurationPercentile(ds, p)
}

func median(xs []float64) float64 { return quantile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// netCounters receives the data plane's resilience events through the
// ClientOptions.Counters seam. Only the events the benchmark reports are
// kept; each is expected to stay at zero.
type netCounters struct {
	retries, reconnects, giveups, stale atomic.Int64
}

func (c *netCounters) Inc(name string, delta int64) {
	switch name {
	case transport.CounterRetries:
		c.retries.Add(delta)
	case transport.CounterReconnects:
		c.reconnects.Add(delta)
	case transport.CounterGiveUps:
		c.giveups.Add(delta)
	case transport.CounterStaleRefreshes:
		c.stale.Add(delta)
	}
}

func (c *netCounters) reset() {
	c.retries.Store(0)
	c.reconnects.Store(0)
	c.giveups.Store(0)
	c.stale.Store(0)
}

func (c *netCounters) report(m metricSet) {
	m.set("transport.retries", "count", float64(c.retries.Load()))
	m.set("transport.reconnects", "count", float64(c.reconnects.Load()))
	m.set("transport.giveups", "count", float64(c.giveups.Load()))
	m.set("shardmap.stale_refreshes", "count", float64(c.stale.Load()))
}

// Runtime metrics read without stopping the world.
const (
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmAllocBytes  = "/gc/heap/allocs:bytes"
	rmGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// procMeter brackets a measured phase: it samples the live heap every few
// milliseconds for its peak, and snapshots cumulative allocation, GC CPU
// time and buffer-arena traffic at start and stop.
type procMeter struct {
	stop  chan struct{}
	done  chan struct{}
	begin time.Time
	heap  []heapSample // written by the sampler until done is closed

	start, end                 [4]metrics.Sample
	cpu0, cpu1                 time.Duration
	gets0, news0, gets1, news1 int64
}

func readRuntime() [4]metrics.Sample {
	s := [4]metrics.Sample{{Name: rmHeapObjects}, {Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	metrics.Read(s[:])
	return s
}

// heapSample is the live heap at an offset into the phase.
type heapSample struct {
	at    time.Duration
	bytes uint64
}

func startMeter() *procMeter {
	m := &procMeter{stop: make(chan struct{}), done: make(chan struct{}), begin: time.Now()}
	m.gets0, m.news0, _ = bufarena.Stats()
	m.start = readRuntime()
	m.cpu0 = processCPU()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: rmHeapObjects}}
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				m.heap = append(m.heap, heapSample{time.Since(m.begin), s[0].Value.Uint64()})
			}
		}
	}()
	return m
}

// finish stops the sampler and takes the closing snapshot. Call once.
func (m *procMeter) finish() {
	close(m.stop)
	<-m.done
	m.end = readRuntime()
	m.cpu1 = processCPU()
	m.gets1, m.news1, _ = bufarena.Stats()
}

// peakHeapMB is the median over windows of length win of each window's
// peak live heap, in MiB; the median keeps one late GC cycle from
// deciding the figure.
func (m *procMeter) peakHeapMB(win time.Duration) float64 {
	var peaks []float64
	for _, h := range m.heap {
		w := int(h.at / win)
		for len(peaks) <= w {
			peaks = append(peaks, 0)
		}
		peaks[w] = math.Max(peaks[w], float64(h.bytes)/(1<<20))
	}
	nonEmpty := peaks[:0]
	for _, p := range peaks {
		if p > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	return median(nonEmpty)
}

// cpuPerSample is the process CPU time of the phase per delivered sample.
func (m *procMeter) cpuPerSample(samples int64) time.Duration {
	if samples == 0 {
		return 0
	}
	return (m.cpu1 - m.cpu0) / time.Duration(samples)
}

func (m *procMeter) allocBytes() float64 {
	return float64(m.end[1].Value.Uint64() - m.start[1].Value.Uint64())
}

func (m *procMeter) gcCPUShare() float64 {
	return ratio(m.end[2].Value.Float64()-m.start[2].Value.Float64(),
		m.end[3].Value.Float64()-m.start[3].Value.Float64())
}

// report adds the runtime and buffer-arena layer metrics; samples is the
// number of samples the phase delivered.
func (m *procMeter) report(out metricSet, samples int64) {
	gets, news := m.gets1-m.gets0, m.news1-m.news0
	out.set("bufarena.reuse_ratio", "ratio", ratio(float64(gets-news), float64(gets)))
	out.set("bufarena.new_bufs", "count", float64(news))
	out.set("runtime.alloc_bytes_per_sample", "B", ratio(m.allocBytes(), float64(samples)))
	out.set("runtime.gc_cpu_share", "ratio", m.gcCPUShare())
}

// setupTimes are the medians over a run's set-ups.
type setupTimes struct {
	cpu, wall float64 // seconds
}

// medianSetup runs setup reps times, keeping the last result and closing
// the others, and returns the median process CPU time and wall time one
// set-up took.
func medianSetup[T any](reps int, setup func() (T, error), closeFn func(T)) (T, setupTimes, error) {
	var last T
	cpus := make([]float64, 0, reps)
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		c0, w0 := processCPU(), time.Now()
		v, err := setup()
		if err != nil {
			return last, setupTimes{}, err
		}
		walls = append(walls, time.Since(w0).Seconds())
		cpus = append(cpus, (processCPU() - c0).Seconds())
		if i < reps-1 {
			closeFn(v)
		}
		last = v
	}
	return last, setupTimes{cpu: median(cpus), wall: median(walls)}, nil
}

// processCPU is the user plus system CPU time the process has used. Time
// the host steals from the virtual CPUs does not count, which keeps the
// CPU figures steady on a shared host where wall-clock figures are not.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
