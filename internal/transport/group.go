package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/fetch"
	"ddstore/internal/graph"
	"ddstore/internal/health"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/shardmap"
)

// GroupOptions configure a Group's clients and failover behaviour.
type GroupOptions struct {
	// Client configures every peer connection (policy, counters, dialer).
	Client ClientOptions
	// FailoverCooldown quarantines a peer after it exhausts its retries:
	// for this long the group prefers other replicas for that peer's range
	// instead of paying the full retry schedule against a dead host on
	// every Get. Quarantined peers are still tried as a last resort.
	// Default 1s; negative disables quarantine.
	FailoverCooldown time.Duration
	// MaxBatch caps how many samples one multi-get request carries.
	// Default 64; the protocol limit is 4096.
	MaxBatch int
	// CacheBytes, if positive, adds a byte-budgeted cache over fetched
	// sample bytes: repeat loads of a cached id cost no round trip, and
	// concurrent misses for one id are coalesced into a single fetch.
	CacheBytes int64
	// CachePolicy selects the cache eviction policy (default LRU).
	CachePolicy cache.Policy
	// CacheShards overrides the cache's shard count (default 8). The byte
	// budget is split evenly across shards, so a lightly-threaded client
	// can set 1 to make the budget exact at the cost of lock sharing.
	CacheShards int
	// FetchParallelism bounds how many owner-grouped chunks one Load
	// fetches concurrently: a batch touching k owners pays
	// ~⌈k/FetchParallelism⌉ round-trip times instead of k. 0 means
	// min(#owners, GOMAXPROCS); 1 restores the serial per-owner loop.
	// Each chunk keeps its own retry/failover sequence; clients are safe
	// for concurrent use, so two chunks failing over to the same peer
	// simply serialize on its connection.
	FetchParallelism int
	// Metrics, when non-nil, receives the engine's fetch-latency histogram.
	Metrics *obs.Registry
	// Spans, when non-nil, receives per-owner fetch spans for the Chrome
	// trace.
	Spans *obs.SpanRing
}

// Group is a set of chunk servers holding the dataset — the cross-process
// analogue of DDStore's replica groups. Ownership routes through a
// versioned shard map (internal/shardmap): the static constructors freeze
// the dialed topology into generation 1, while NewElasticGroup bootstraps
// the map from a seed peer and follows it through live resharding —
// stale-generation responses install the newer map carried in the reply
// and re-route, so a migrated chunk costs one extra round trip, never a
// failover or a hard error.
type Group struct {
	counters Counters
	maxBatch int
	cache    *cache.Cache // nil when CacheBytes <= 0
	// engine is the shared batch-load pipeline (internal/fetch); the group
	// plugs in as its TCP plane via groupPlane. Owner tokens pack
	// (generation, member index) — shardmap.PackOwner — so tokens sort
	// like (generation, member) pairs and an in-flight fetch stays pinned
	// to the generation it was planned under.
	engine *fetch.Engine
	// maps is the versioned ownership view; health quarantines peers by
	// stable member ID across generations.
	maps       *shardmap.Store
	health     *health.Tracker[string]
	clientOpts ClientOptions
	spans      *obs.SpanRing // nil without GroupOptions.Spans
	elastic    bool          // follow the map from survivors when a chunk's owners all fail

	mu      sync.Mutex
	clients map[string]*Client // by peer address; dialed lazily in elastic mode
}

// NewGroup dials every peer address of a single replica and verifies the
// chunks tile a contiguous range.
func NewGroup(addrs []string) (*Group, error) {
	return NewGroupReplicas([][]string{addrs}, GroupOptions{})
}

// newGroup builds the pieces every constructor shares.
func newGroup(opts GroupOptions) *Group {
	g := &Group{
		counters:   opts.Client.Counters,
		maxBatch:   opts.MaxBatch,
		clientOpts: opts.Client,
		health:     health.NewTracker[string](opts.FailoverCooldown),
		spans:      opts.Spans,
		clients:    map[string]*Client{},
	}
	if g.counters == nil {
		g.counters = nopCounters{}
	}
	if g.maxBatch <= 0 {
		g.maxBatch = 64
	}
	if g.maxBatch > maxBatchIDs {
		g.maxBatch = maxBatchIDs
	}
	if opts.CacheBytes > 0 {
		g.cache = cache.New(cache.Options{
			MaxBytes: opts.CacheBytes,
			Policy:   opts.CachePolicy,
			Shards:   opts.CacheShards,
			Counters: g.counters,
		})
	}
	return g
}

func (g *Group) initEngine(opts GroupOptions) {
	g.engine = fetch.New(fetch.Config{
		Plane:       groupPlane{g: g},
		Cache:       g.cache,
		Parallelism: opts.FetchParallelism,
		ErrPrefix:   "transport",
		Metrics:     opts.Metrics,
		Spans:       opts.Spans,
	})
}

// staticPeer is one dialed peer while a static topology is being frozen
// into its generation-1 map.
type staticPeer struct {
	addr   string
	lo, hi int64
}

// NewGroupReplicas dials one address list per replica group. Every replica
// must tile the same contiguous sample range (chunk boundaries may differ
// between replicas). The topology is frozen into a generation-1 shard map:
// chunk boundaries across all replicas refine the keyspace into shards,
// each owned by one member per replica, ordered by replica — so replica
// preference (sample id modulo replica count) and failover order are
// exactly what the static arithmetic produced.
func NewGroupReplicas(replicas [][]string, opts GroupOptions) (*Group, error) {
	if len(replicas) == 0 {
		return nil, errors.New("transport: no replicas given")
	}
	g := newGroup(opts)
	var sets [][]staticPeer
	for ri, addrs := range replicas {
		var set []staticPeer
		for _, addr := range addrs {
			cl, err := g.clientFor(addr)
			if err != nil {
				g.Close()
				return nil, err
			}
			lo, hi, err := cl.Meta()
			if err != nil {
				g.Close()
				return nil, err
			}
			set = append(set, staticPeer{addr: addr, lo: lo, hi: hi})
		}
		for i := 1; i < len(set); i++ {
			if set[i].lo != set[i-1].hi {
				g.Close()
				return nil, fmt.Errorf("transport: chunk gap in replica %d: peer %d starts at %d, previous ends at %d",
					ri, i, set[i].lo, set[i-1].hi)
			}
		}
		sets = append(sets, set)
	}
	for ri, set := range sets[1:] {
		if len(set) == 0 || len(sets[0]) == 0 {
			continue
		}
		lo, hi := set[0].lo, set[len(set)-1].hi
		lo0, hi0 := sets[0][0].lo, sets[0][len(sets[0])-1].hi
		if lo != lo0 || hi != hi0 {
			g.Close()
			return nil, fmt.Errorf("transport: replica %d spans [%d,%d), replica 0 spans [%d,%d)",
				ri+1, lo, hi, lo0, hi0)
		}
	}
	m, err := staticMap(sets)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.maps, err = shardmap.NewStore(m, 0)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.initEngine(opts)
	return g, nil
}

// staticMap freezes a dialed static topology into generation 1: the union
// of every replica's chunk boundaries refines the keyspace into shards on
// which each replica's owner is constant, and each shard's owner list is
// ordered by replica index.
func staticMap(sets [][]staticPeer) (*shardmap.Map, error) {
	m := &shardmap.Map{Gen: 1}
	offset := make([]int, len(sets))
	for ri, set := range sets {
		offset[ri] = len(m.Members)
		for mi, p := range set {
			m.Members = append(m.Members, shardmap.Member{
				ID:   fmt.Sprintf("r%d/%d@%s", ri, mi, p.addr),
				Addr: p.addr,
			})
		}
	}
	boundSet := map[int64]bool{}
	for _, set := range sets {
		for _, p := range set {
			boundSet[p.lo] = true
			boundSet[p.hi] = true
		}
	}
	bounds := make([]int64, 0, len(boundSet))
	for b := range boundSet {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		owners := make([]int, 0, len(sets))
		for ri, set := range sets {
			mi := -1
			for j, p := range set {
				if lo >= p.lo && lo < p.hi {
					mi = j
					break
				}
			}
			if mi < 0 {
				return nil, fmt.Errorf("transport: no peer holds sample %d", lo)
			}
			owners = append(owners, offset[ri]+mi)
		}
		m.Shards = append(m.Shards, shardmap.Shard{Lo: lo, Hi: hi, Owners: owners})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewElasticGroup joins an elastic cluster: the shard map is bootstrapped
// from the first seed address that serves one, and every load routes
// through the live generation from then on. New owners published by later
// generations are dialed on demand; stale-generation responses refresh
// the map in place.
func NewElasticGroup(seeds []string, opts GroupOptions) (*Group, error) {
	if len(seeds) == 0 {
		return nil, errors.New("transport: no seed addresses given")
	}
	g := newGroup(opts)
	var lastErr error
	for _, addr := range seeds {
		cl, err := g.clientFor(addr)
		if err != nil {
			lastErr = err
			continue
		}
		mb, err := cl.ShardMap()
		if err != nil {
			lastErr = err
			continue
		}
		m, err := shardmap.Decode(mb)
		if err != nil {
			lastErr = err
			continue
		}
		st, err := shardmap.NewStore(m, 0)
		if err != nil {
			lastErr = err
			continue
		}
		g.maps = st
		g.elastic = true
		g.initEngine(opts)
		return g, nil
	}
	g.Close()
	return nil, fmt.Errorf("transport: shard map bootstrap failed on all %d seeds: %w", len(seeds), lastErr)
}

// clientFor returns the connection to addr, dialing it on first use.
func (g *Group) clientFor(addr string) (*Client, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cl, ok := g.clients[addr]; ok {
		return cl, nil
	}
	cl, err := DialOptions(addr, g.clientOpts)
	if err != nil {
		return nil, err
	}
	g.clients[addr] = cl
	return cl, nil
}

// Close releases all connections of all replicas.
func (g *Group) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, cl := range g.clients {
		cl.Close()
	}
	g.clients = map[string]*Client{}
}

// Replicas returns the number of full dataset copies the group can reach:
// the minimum replica width across the current generation's shards. A
// static group's map gives every shard one owner per replica, so this is
// its replica count.
func (g *Group) Replicas() int {
	m := g.maps.Current()
	width := 0
	for i := range m.Shards {
		if w := m.Shards[i].Width(); width == 0 || w < width {
			width = w
		}
	}
	return width
}

// Len returns the total number of samples in the dataset.
func (g *Group) Len() int {
	if g.maps == nil {
		return 0
	}
	lo, hi := g.maps.Current().Range()
	return int(hi - lo)
}

// Range returns the [lo, hi) sample keyspace of the current generation.
func (g *Group) Range() (int64, int64) {
	if g.maps == nil {
		return 0, 0
	}
	return g.maps.Current().Range()
}

// Generation returns the shard map generation the group currently routes
// against.
func (g *Group) Generation() uint64 { return g.maps.Generation() }

// Refresh re-fetches the shard map from the given peer and installs it if
// newer. The fetch path refreshes itself from stale-generation responses;
// Refresh exists for control planes that want to converge eagerly.
func (g *Group) Refresh(addr string) error {
	cl, err := g.clientFor(addr)
	if err != nil {
		return err
	}
	mb, err := cl.ShardMap()
	if err != nil {
		return err
	}
	m, err := shardmap.Decode(mb)
	if err != nil {
		return err
	}
	_, err = g.maps.ApplyIfNewer(m)
	return err
}

// refreshFromSurvivors polls the current generation's members — skipping
// the ones that just failed at the transport level — for a newer shard
// map and installs the first one found. A crashed owner cannot answer
// with a stale-generation status (it cannot answer at all), so when every
// replica of a chunk is unreachable the survivors are the only source of
// the generation that routed around the crash. Returns whether a newer
// map was installed.
func (g *Group) refreshFromSurvivors(down map[int]bool) bool {
	m := g.maps.Current()
	for mi := range m.Members {
		if down[mi] || m.Members[mi].Addr == "" {
			continue
		}
		cl, err := g.clientFor(m.Members[mi].Addr)
		if err != nil {
			continue
		}
		mb, err := cl.ShardMap()
		if err != nil {
			continue
		}
		nm, err := shardmap.Decode(mb)
		if err != nil {
			continue
		}
		if ok, aerr := g.maps.ApplyIfNewer(nm); aerr == nil && ok {
			g.counters.Inc(CounterStaleRefreshes, 1)
			return true
		}
	}
	return false
}

// Get fetches one sample: a one-element Load, with the same caching,
// failover, and quarantine behaviour.
func (g *Group) Get(id int64) (*graph.Graph, error) {
	out, err := g.Load([]int64{id})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Load fetches a batch of samples (any order), like core.Store.Load but
// over TCP. Cache hits are served from memory; misses are grouped by their
// preferred replica and owning peer, fetched maxBatch ids per round trip,
// and failed over to the owners in other replicas when a peer is
// unreachable or serves corrupt bytes. Concurrent Loads claiming the same
// missing id coalesce into one fetch via the cache's flight table. The
// whole pipeline runs in the shared engine (internal/fetch); this file
// contributes only the TCP wire: replica preference, suspect/cooldown
// failover, stale-generation refresh, and OpGetBatch chunking.
func (g *Group) Load(ids []int64) ([]*graph.Graph, error) {
	out, _, err := g.LoadTimed(ids)
	return out, err
}

// LoadTimed is Load plus per-sample wall-clock fetch latencies, the same
// contract core.Store.LoadTimed has on the RMA plane.
func (g *Group) LoadTimed(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	if g.maps == nil {
		return nil, nil, errors.New("transport: group has no replicas")
	}
	return g.engine.Load(ids)
}

// LoadLazy is LoadTimed without tensor materialization: samples come back
// as header-validated graph.Lazy views over their pooled wire buffers. The
// caller owns the views — materialize via Graph() or Release() each one —
// and the same contract holds on the RMA plane (core.Store.LoadLazy).
func (g *Group) LoadLazy(ids []int64) ([]*graph.Lazy, []time.Duration, error) {
	if g.maps == nil {
		return nil, nil, errors.New("transport: group has no replicas")
	}
	return g.engine.LoadLazy(ids)
}

// LoadLazyTraced is LoadLazy under a distributed trace: tc is the caller's
// span, each per-owner fan-out propagates a child context over the wire
// (when the peers negotiated tracing — GroupOptions.Client.Tracing), and
// the servers' timing trailers come back as "server" category spans in the
// group's span ring, nested inside the request window. With an invalid
// context this is exactly LoadLazy.
func (g *Group) LoadLazyTraced(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error) {
	if g.maps == nil {
		return nil, nil, errors.New("transport: group has no replicas")
	}
	return g.engine.LoadLazyTraced(ids, tc)
}

// groupPlane adapts the Group to the shared fetch engine. The owner token
// packs (generation, preferred member index); nothing is ever local to a
// TCP client, so every id goes through the cache and the wire.
type groupPlane struct {
	g *Group
}

func (p groupPlane) OwnerOf(id int64) (int, error) {
	m := p.g.maps.Current()
	mi, err := m.PreferredOwner(id)
	if err != nil {
		return 0, fmt.Errorf("transport: no peer holds sample %d", id)
	}
	return shardmap.PackOwner(m.Gen, mi)
}

func (p groupPlane) Local(int) bool { return false }

// FetchOwner fetches one (generation, member) group's ids in
// maxBatch-sized chunks; each chunk keeps its own retry/failover/refresh
// sequence. The token's generation pins the chunk to the map its batch
// was planned under; a generation that has aged out of the history falls
// back to the current one (and the stale-generation protocol corrects any
// resulting misroute).
func (p groupPlane) FetchOwner(owner int, ids []int64, deliver fetch.Deliver) error {
	return p.fetchOwner(owner, ids, tracectx.Context{}, deliver)
}

// FetchOwnerTraced implements fetch.TracedPlane: the engine-minted child
// context rides every wire chunk of this owner's transfer.
func (p groupPlane) FetchOwnerTraced(owner int, ids []int64, tc tracectx.Context, deliver fetch.Deliver) error {
	return p.fetchOwner(owner, ids, tc, deliver)
}

func (p groupPlane) fetchOwner(owner int, ids []int64, tc tracectx.Context, deliver fetch.Deliver) error {
	g := p.g
	gen, _, err := shardmap.UnpackOwner(owner)
	if err != nil {
		return err
	}
	m := g.maps.At(gen)
	if m == nil {
		m = g.maps.Current()
	}
	chunk := append([]int64(nil), ids...)
	sort.Slice(chunk, func(a, b int) bool { return chunk[a] < chunk[b] })
	for len(chunk) > 0 {
		n := len(chunk)
		if n > g.maxBatch {
			n = g.maxBatch
		}
		if err := g.fetchChunk(m, chunk[:n], deliver, 0, tc); err != nil {
			return err
		}
		chunk = chunk[n:]
	}
	return nil
}

// maxStaleRetries bounds how many times one chunk re-resolves against a
// freshly installed generation before giving up — each retry only happens
// after a server proved the routing stale, so two hops cover any
// transition that completes while the chunk is in flight.
const maxStaleRetries = 2

// fetchChunk fetches one owner-grouped chunk of at most maxBatch ids
// against the given generation, starting at each id's preferred owner and
// failing the still-missing ids over to the other owners of their shard.
// Quarantined peers are deferred to a last-resort pass, exactly like the
// single-sample path used to do. A stale-generation response installs the
// newer map carried in the reply and re-resolves the leftovers against
// it.
func (g *Group) fetchChunk(m *shardmap.Map, ids []int64, deliver fetch.Deliver, depth int, tc tracectx.Context) error {
	missing := make(map[int64]bool, len(ids))
	width := 0
	for _, id := range ids {
		sh, err := m.ShardOf(id)
		if err != nil {
			return fmt.Errorf("transport: no peer holds sample %d", id)
		}
		if sh.Width() > width {
			width = sh.Width()
		}
		missing[id] = true
	}
	staleSeen := false
	down := map[int]bool{} // members that failed at the transport level
	var lastErr error
	for _, lastResort := range []bool{false, true} {
		for k := 0; k < width && len(missing) > 0; k++ {
			// Regroup the leftovers by their k-th choice owner — shard
			// boundaries (and widths) may differ across the chunk.
			byOwner := map[int][]int64{}
			for id := range missing {
				sh, _ := m.ShardOf(id)
				if k >= sh.Width() {
					continue
				}
				mi := sh.Choice(id, k)
				byOwner[mi] = append(byOwner[mi], id)
			}
			members := make([]int, 0, len(byOwner))
			for mi := range byOwner {
				members = append(members, mi)
			}
			sort.Ints(members)
			for _, mi := range members {
				memID := m.Members[mi].ID
				if g.health.InCooldown(memID) != lastResort {
					continue
				}
				want := byOwner[mi]
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				cl, err := g.clientFor(m.Members[mi].Addr)
				if err != nil {
					lastErr = err
					down[mi] = true
					g.health.MarkSuspect(memID)
					continue
				}
				before := time.Now()
				var buf *bufarena.Buf
				var raws [][]byte
				var timing *ServerTiming
				if tc.Valid() {
					buf, raws, timing, err = cl.GetBatchBufsTraced(want, tc)
				} else {
					buf, raws, err = cl.GetBatchBufs(want)
				}
				per := time.Since(before) / time.Duration(len(want))
				if timing != nil {
					g.recordServerSpans(tc, timing, m, mi, want)
				}
				if err != nil {
					lastErr = err
					if errors.Is(err, ErrOverloaded) {
						// The peer is shedding load, not dying: leave its
						// health alone (the client already backed off) and
						// let another replica try the leftovers.
						continue
					}
					var serr *StaleGenerationError
					if errors.As(err, &serr) {
						// The chunk moved: install the newer map the server
						// sent along and re-resolve after the failover
						// passes. The peer is healthy — no quarantine.
						staleSeen = true
						if nm, derr := shardmap.Decode(serr.MapBytes); derr == nil {
							if ok, aerr := g.maps.ApplyIfNewer(nm); aerr == nil && ok {
								g.counters.Inc(CounterStaleRefreshes, 1)
							}
						}
						continue
					}
					var rerr *RemoteError
					if !errors.As(err, &rerr) {
						// Transport-level failure: the peer may be down.
						down[mi] = true
						g.health.MarkSuspect(memID)
					}
					continue
				}
				// Every delivered sample's Lazy takes its own reference on
				// the shared response buffer; ours is dropped after the
				// loop, so the buffer lives exactly as long as its slowest
				// consumer (cache entry, coalesced waiter, or first-touch
				// decode).
				healthy := true
				for j, id := range want {
					buf.Retain()
					lz, derr := graph.DecodeLazy(raws[j], buf)
					if derr != nil {
						// The frame passed CRC, so the peer is serving
						// corrupt source bytes: leave the id missing for
						// another replica and avoid this peer for a while.
						buf.Release()
						lastErr = fmt.Errorf("transport: sample %d from member %s: %w", id, memID, derr)
						healthy = false
						continue
					}
					delete(missing, id)
					if k > 0 || lastResort {
						g.counters.Inc(CounterFailovers, 1)
					}
					deliver(id, raws[j], lz, per)
				}
				buf.Release()
				if healthy {
					g.health.Clear(memID)
				} else {
					g.health.MarkSuspect(memID)
				}
			}
		}
	}
	if len(missing) > 0 {
		// A server that proved the routing stale already handed us the newer
		// map. When every replica died at the transport level instead — a
		// crashed owner can't answer stale — ask the surviving members for
		// the generation that routed around it. Either way the leftovers
		// re-resolve against the freshest installed map, bounded by depth.
		if depth < maxStaleRetries {
			refreshed := staleSeen
			if !refreshed && g.elastic && len(down) > 0 {
				refreshed = g.refreshFromSurvivors(down)
			}
			if refreshed {
				left := make([]int64, 0, len(missing))
				for id := range missing {
					left = append(left, id)
				}
				sort.Slice(left, func(a, b int) bool { return left[a] < left[b] })
				if tc.Valid() && g.spans != nil {
					// Mark the extra hop on the trace: the chunk re-resolved
					// against a newer generation mid-request.
					g.spans.Record(obs.Span{
						Name: "stale-retry", Cat: "fetch", Owner: -1,
						Samples: len(left), Start: obs.EpochNow(),
						TraceID: tc.TraceID, ParentID: tc.SpanID,
						Gen: g.maps.Generation(),
					})
				}
				return g.fetchChunk(g.maps.Current(), left, deliver, depth+1, tc)
			}
		}
		return fmt.Errorf("transport: %d of %d samples failed on all %d replicas: %w",
			len(missing), len(ids), width, lastErr)
	}
	return nil
}

// recordServerSpans merges one timing trailer into the span ring as
// "server" category spans nested inside the client's request window. The
// trailer carries durations, not timestamps — server and client clocks
// need not agree — so the server window is anchored to the client's view
// of the request end: it ended Service ago, from which the queue-wait and
// chunk-source segments lay out in order.
func (g *Group) recordServerSpans(tc tracectx.Context, t *ServerTiming, m *shardmap.Map, mi int, want []int64) {
	if g.spans == nil {
		return
	}
	reqEnd := obs.EpochNow()
	serverStart := reqEnd - t.Service
	gen := t.Generation
	if gen == 0 {
		// A standalone chunk server carries no shard map; attribute the
		// request to the generation the client routed it under.
		gen = m.Gen
	}
	var shardLo int64
	if len(want) > 0 {
		if sh, err := m.ShardOf(want[0]); err == nil {
			shardLo = sh.Lo
		}
	}
	sub := tc.Child()
	base := obs.Span{
		Cat: "server", Owner: mi, Samples: len(want), Tenant: t.Tenant,
		Gen: gen, ShardLo: shardLo,
		TraceID: sub.TraceID, SpanID: sub.SpanID, ParentID: tc.SpanID,
	}
	req := base
	req.Name, req.Start, req.Dur, req.Bytes = "server-request", serverStart, t.Service, t.Bytes
	spans := make([]obs.Span, 1, 3)
	spans[0] = req
	if t.QueueWait > 0 {
		qw := base
		qw.SpanID, qw.ParentID = tc.Child().SpanID, sub.SpanID
		qw.Name, qw.Start, qw.Dur = "server-queue-wait", serverStart, t.QueueWait
		spans = append(spans, qw)
	}
	if t.Source > 0 {
		src := base
		src.SpanID, src.ParentID = tc.Child().SpanID, sub.SpanID
		src.Name, src.Start, src.Dur = "server-chunk-source", serverStart+t.QueueWait, t.Source
		spans = append(spans, src)
	}
	g.spans.RecordAll(spans...)
}

// CacheStats returns the group's cache counters; the zero Stats when the
// group was built without a cache.
func (g *Group) CacheStats() cache.Stats {
	if g.cache == nil {
		return cache.Stats{}
	}
	return g.cache.Stats()
}

// LatencyStats summarizes per-sample fetch latency over the engine's
// sliding window (p50/p95/p99 of the most recent fetches).
func (g *Group) LatencyStats() fetch.LatencySummary {
	return g.engine.LatencyStats()
}
