package ddp

import (
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/core"
	"ddstore/internal/fetch"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
)

// Loader is how a rank materializes a batch of samples by global id. The
// returned latencies (one per sample, virtual time) may be nil when the
// loader has no timing information.
type Loader interface {
	Len() int
	LoadBatch(ids []int64) ([]*graph.Graph, []time.Duration, error)
}

// DataPlane is the batch-loading surface both DDStore planes expose: the
// in-process RMA store (core.Store) and the TCP client group
// (transport.Group) satisfy it identically, because both route LoadLazy
// through the shared fetch engine (internal/fetch): header-validated
// views over the pooled wire buffers, with tensor decode deferred to
// first touch.
type DataPlane interface {
	Len() int
	LoadLazy(ids []int64) ([]*graph.Lazy, []time.Duration, error)
	CacheStats() cache.Stats
	LatencyStats() fetch.LatencySummary
}

// TracedDataPlane is a DataPlane whose lazy loads can carry a distributed
// trace context down the fan-out (transport.Group implements it).
type TracedDataPlane interface {
	DataPlane
	LoadLazyTraced(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error)
}

// PlaneLoader serves batches from either DDStore data plane. It replaces
// the former per-plane StoreLoader/GroupLoader pair — one adapter, two
// planes.
type PlaneLoader struct {
	Plane DataPlane
	// Trace opens a sampled root trace per batch when the plane supports
	// traced loads (a TracedDataPlane; other planes load untraced): every
	// per-owner wire request propagates a child context to the servers,
	// whose timing trailers come back as nested "server" spans.
	Trace bool
	// Spans, when non-nil with Trace set, receives one client-side root
	// span per traced batch ("load-batch", category "train"), the parent of
	// the fetch and server spans sharing its trace id.
	Spans *obs.SpanRing
}

// Len returns the dataset size.
func (l *PlaneLoader) Len() int { return l.Plane.Len() }

// LoadBatch implements Loader: one lazy load — traced when Trace is set
// and the plane is a TracedDataPlane — then graph.Materialize, so
// duplicate ids share one graph pointer and the buffer references go back
// to the arena as each sample is decoded.
func (l *PlaneLoader) LoadBatch(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	var lzs []*graph.Lazy
	var lat []time.Duration
	var err error
	if tp, ok := l.Plane.(TracedDataPlane); l.Trace && ok {
		tc := tracectx.New(true)
		start := obs.EpochNow()
		lzs, lat, err = tp.LoadLazyTraced(ids, tc)
		if l.Spans != nil {
			l.Spans.Record(obs.Span{
				Name: "load-batch", Cat: "train", Owner: -1, Samples: len(ids),
				Start: start, Dur: obs.EpochNow() - start,
				TraceID: tc.TraceID, SpanID: tc.SpanID,
			})
		}
	} else {
		lzs, lat, err = l.Plane.LoadLazy(ids)
	}
	if err != nil {
		return nil, nil, err
	}
	return graph.Materialize(lzs), lat, nil
}

// CacheStats reports the plane's sample-cache counters — the zero Stats
// when the plane runs without a cache.
func (l *PlaneLoader) CacheStats() cache.Stats { return l.Plane.CacheStats() }

// LatencyStats reports the plane's per-sample fetch-latency percentiles.
func (l *PlaneLoader) LatencyStats() fetch.LatencySummary { return l.Plane.LatencyStats() }

// TimedSource is a SampleSource that can report per-read modeled latency
// (the simulated PFF/CFF readers implement it).
type TimedSource interface {
	core.SampleSource
	ReadSampleTimed(id int64) (*graph.Graph, time.Duration, error)
}

// SourceLoader serves batches by reading each sample directly from a
// storage backend — the PFF/CFF baseline path: every batch goes back to the
// (simulated or real) filesystem.
type SourceLoader struct {
	Source core.SampleSource
}

// Len returns the dataset size.
func (l *SourceLoader) Len() int { return l.Source.Len() }

// LoadBatch implements Loader, reporting per-sample latency when the
// backend supports it.
func (l *SourceLoader) LoadBatch(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	out := make([]*graph.Graph, len(ids))
	var lat []time.Duration
	timed, hasTiming := l.Source.(TimedSource)
	if hasTiming {
		lat = make([]time.Duration, len(ids))
	}
	for i, id := range ids {
		if hasTiming {
			g, d, err := timed.ReadSampleTimed(id)
			if err != nil {
				return nil, nil, err
			}
			out[i] = g
			lat[i] = d
			continue
		}
		g, err := l.Source.ReadSample(id)
		if err != nil {
			return nil, nil, err
		}
		out[i] = g
	}
	return out, lat, nil
}
