// Package serveboot assembles a ddstore-serve cluster — data source,
// owners routing every request through a versioned shard map
// (internal/shardmap), metrics registry, debug endpoint, flight recorder,
// and optional chaos injection and multi-tenant front end — from one
// Config. A static -lo/-hi server is a one-owner cluster whose
// generation-1 map never advances. cmd/ddstore-serve is a thin
// flag-parsing shell over Boot; tests, the load-generator harness and the
// benchmark call Boot directly to serve on loopback ports inside their
// own process.
package serveboot

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/cff"
	"ddstore/internal/datasets"
	"ddstore/internal/faultnet"
	"ddstore/internal/frontend"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/flightrec"
	"ddstore/internal/pff"
	"ddstore/internal/shardmap"
	"ddstore/internal/transport"
)

// SampleSource is the subset of dataset/store behaviour the server needs.
type SampleSource interface {
	Len() int
	ReadSample(id int64) (*graph.Graph, error)
}

// Config describes one serving cluster. Exactly one of CFFDir, PFFDir,
// Dataset, or Source selects the durable backing data.
type Config struct {
	// Addrs are the listen addresses of the initial owners; an empty
	// entry, owners beyond the list, and every owner added later bind an
	// ephemeral loopback port, resolved by Cluster.Addrs.
	Addrs []string

	// CFFDir / PFFDir serve from an on-disk dataset directory.
	CFFDir string
	PFFDir string
	// Dataset names a synthetic dataset: ising, homolumo, discrete, smooth.
	Dataset string
	// N and Bins size the synthetic dataset.
	N    int
	Bins int
	// Source serves a caller-provided dataset directly (tests).
	Source SampleSource

	// Lo and Hi bound the served keyspace [Lo, Hi); Hi <= 0 means the
	// dataset end.
	Lo, Hi int64

	// Owners is the initial owner count (default 1).
	Owners int
	// Width is the per-shard replica width the planner maintains
	// (default 1).
	Width int
	// ShardsPerMember is the shard granularity of the generation-1 map
	// (default 8); finer shards mean finer-grained rebalances.
	ShardsPerMember int

	// WriteTimeout / IdleTimeout are each owner's defensive limits.
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
	// Net is the retry/deadline policy of the migration pull clients.
	Net transport.RetryPolicy

	// CacheBytes selects each owner's storage. 0 preloads the owned
	// samples encoded in memory; a positive budget serves them lazily from
	// the durable source through a byte-budgeted hot-sample cache of this
	// size per owner.
	CacheBytes  int64
	CachePolicy string

	// DebugAddr enables the debug endpoint — /metrics, /healthz, /readyz,
	// /debug/flightrecorder, /debug/pprof, and /admin/reshard?owners=N —
	// on this address ("" = disabled; "127.0.0.1:0" for an ephemeral port).
	DebugAddr string

	// Tenants enables the multi-tenant serving front end (admission
	// control, per-tenant budgets, priority queues, load shedding) on
	// every owner with the budgets it describes; see frontend.ParseTenants
	// for the syntax. Setting any of Tenants, MaxConns, QueueDepth, or
	// FrontendWorkers enables the front end.
	Tenants string
	// MaxConns caps each owner's concurrent admitted connections
	// (0 = unlimited).
	MaxConns int
	// QueueDepth bounds each priority-class request queue (0 = the
	// front end's default).
	QueueDepth int
	// FrontendWorkers sizes each owner's worker-permit pool draining the
	// queues (0 = GOMAXPROCS).
	FrontendWorkers int
	// DrainTimeout bounds the front-end drain Close performs (default 5s).
	DrainTimeout time.Duration

	// Chaos, when non-nil, wraps every owner's listener in one faultnet
	// injector, so both client traffic and migration pulls cross a faulty
	// fabric (resilience drills and the fault-mix load tests).
	Chaos *faultnet.Scenario

	// FlightRecCap sizes the cluster-wide flight recorder's bounded ring
	// of slow/errored/shed/stale request records, shared by every owner
	// (0 = default 256, negative disables the recorder entirely).
	FlightRecCap int
	// SlowThreshold is the service time above which a successful request
	// is flight-recorded as slow (0 = default 250ms, negative disables
	// slow capture while keeping error/shed/stale records).
	SlowThreshold time.Duration
	// FlightRecDir, when set, arms the spike watcher: a shed- or
	// stale-rate spike snapshots the recorder's contents as a JSON file
	// in this directory, so the evidence survives the incident.
	FlightRecDir string
}

// Instance, ElasticConfig and BootCluster are other names for Cluster,
// Config and Boot, kept because the repository benchmark (perfbench)
// compiles against them.
type (
	Instance      = Cluster
	ElasticConfig = Config
)

// BootCluster is Boot.
func BootCluster(cfg Config) (*Cluster, error) { return Boot(cfg) }

// openSource resolves the configured data backing.
func openSource(cfg Config) (SampleSource, []func() error, error) {
	switch {
	case cfg.Source != nil:
		return cfg.Source, nil, nil
	case cfg.CFFDir != "":
		st, err := cff.Open(cfg.CFFDir)
		if err != nil {
			return nil, nil, err
		}
		return st, []func() error{st.Close}, nil
	case cfg.PFFDir != "":
		src, err := pff.Open(cfg.PFFDir)
		if err != nil {
			return nil, nil, err
		}
		return src, nil, nil
	case cfg.Dataset != "":
		dcfg := datasets.Config{NumGraphs: cfg.N, SpectrumBins: cfg.Bins}
		switch cfg.Dataset {
		case "ising":
			return datasets.Ising(dcfg), nil, nil
		case "homolumo":
			return datasets.HomoLumo(dcfg), nil, nil
		case "discrete":
			return datasets.AISDExDiscrete(dcfg), nil, nil
		case "smooth":
			return datasets.AISDExSmooth(dcfg), nil, nil
		default:
			return nil, nil, fmt.Errorf("serveboot: unknown dataset %q", cfg.Dataset)
		}
	default:
		return nil, nil, fmt.Errorf("serveboot: one of CFFDir, PFFDir, Dataset, or Source is required")
	}
}

func encodeSample(src SampleSource, id int64) ([]byte, error) {
	g, err := src.ReadSample(id)
	if err != nil {
		return nil, err
	}
	return g.Encode(), nil
}

// chunk is one owner's sample storage. LocalRange advertises the whole
// keyspace — ownership is the shard map's job, checked by the server
// before the chunk is touched, so ids outside the keyspace get a range
// error and ids inside it that the owner does not hold get a
// stale-generation answer. A resident chunk holds its owned samples
// encoded in memory: filled at boot and by migration pulls, trimmed after
// cutover. A lazy chunk (hot != nil) encodes on demand from the durable
// source through a byte-budgeted cache that coalesces concurrent misses,
// so it needs no migration pull: the source already backs every id.
type chunk struct {
	lo, hi  int64
	src     SampleSource
	hot     *cache.Cache // lazy storage; nil for a resident chunk
	mu      sync.RWMutex
	samples map[int64][]byte // resident storage
}

func (c *chunk) LocalRange() (int64, int64) { return c.lo, c.hi }

func (c *chunk) LocalSampleBytes(id int64) ([]byte, error) {
	if c.hot != nil {
		return c.hot.GetOrFetch(id, func() ([]byte, error) { return encodeSample(c.src, id) })
	}
	c.mu.RLock()
	b, ok := c.samples[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serveboot: sample %d not resident on this owner", id)
	}
	return b, nil
}

func (c *chunk) put(id int64, raw []byte) {
	c.mu.Lock()
	c.samples[id] = raw
	c.mu.Unlock()
}

// retainOwned drops every resident sample the member no longer owns under
// m — the post-cutover memory release on the losing side of a migration.
func (c *chunk) retainOwned(m *shardmap.Map, mi int) {
	c.mu.Lock()
	for id := range c.samples {
		if !m.OwnedBy(id, mi) {
			delete(c.samples, id)
		}
	}
	c.mu.Unlock()
}

func (c *chunk) resident() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.samples)
}

// mapView adapts one owner's shardmap.Store to the transport server's
// ShardMapSource: ownership questions resolve against the owner's live
// generation, keyed by its stable member ID.
type mapView struct {
	st *shardmap.Store
	id string
}

func (v mapView) Generation() uint64 { return v.st.Generation() }

func (v mapView) Owns(id int64) bool {
	m := v.st.Current()
	mi := m.MemberIndex(v.id)
	return mi >= 0 && m.OwnedBy(id, mi)
}

func (v mapView) Encoded() ([]byte, error) { return v.st.Encoded() }

// Owner is one serving member of a cluster: its shard map store, its
// chunk, its front end (if enabled), and its TCP server.
type Owner struct {
	ID      string
	addr    string
	chunk   *chunk
	maps    *shardmap.Store
	fe      *frontend.Frontend // nil without a front end
	srv     *transport.Server
	crashed atomic.Bool
}

// Addr returns the owner's data-plane listen address.
func (o *Owner) Addr() string { return o.addr }

// Resident returns how many samples the owner holds in memory (a lazy
// owner holds none; its cache shows in Cluster.CacheStats).
func (o *Owner) Resident() int { return o.chunk.resident() }

// Generation returns the owner's applied shard map generation.
func (o *Owner) Generation() uint64 { return o.maps.Generation() }

// Cluster is a live owner set plus its control plane: membership
// transitions, chunk migration, and the shared metrics, flight recorder
// and debug/admin endpoint. All membership operations serialize on the
// cluster lock; serving and migration overlap freely.
type Cluster struct {
	cfg       Config // defaults resolved
	src       SampleSource
	lo, hi    int64
	slow      time.Duration
	injector  *faultnet.Injector
	reg       *obs.Registry
	dbg       *obs.DebugServer
	rec       *flightrec.Recorder
	stopWatch func()
	// draining latches when Close starts and migrating counts in-flight
	// membership transitions; /readyz reads both without touching the
	// cluster lock (which a migration holds for its whole duration).
	draining  atomic.Bool
	migrating atomic.Int32
	gen       *obs.Gauge
	moved     *obs.Counter
	migB      *obs.Histogram
	migS      *obs.Histogram
	closers   []func() error
	closeOnce sync.Once
	closeErr  error

	mu     sync.Mutex
	cur    *shardmap.Map
	owners []*Owner // join order (reshard removes newest first)
	pulls  map[string]*transport.Client
	nextID int
	closed bool
}

// Boot starts a cluster from cfg: the initial owners listen, the
// generation-1 map stripes the keyspace uniformly over them, and each
// resident owner preloads the shards it owns. The returned Cluster owns
// every resource it started; Close releases them all.
func Boot(cfg Config) (*Cluster, error) {
	src, closers, err := openSource(cfg)
	if err != nil {
		return nil, err
	}
	c := &Cluster{src: src, closers: closers, reg: obs.NewRegistry(), pulls: make(map[string]*transport.Client)}
	if err := c.boot(cfg); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) boot(cfg Config) error {
	c.lo, c.hi = cfg.Lo, cfg.Hi
	if c.hi <= 0 {
		c.hi = int64(c.src.Len())
	}
	if c.lo < 0 || c.hi > int64(c.src.Len()) || c.lo >= c.hi {
		return fmt.Errorf("serveboot: bad range [%d,%d) for %d samples", c.lo, c.hi, c.src.Len())
	}
	if cfg.Owners <= 0 {
		cfg.Owners = 1
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	c.cfg = cfg

	// The registry exports the servers' request/latency metrics, the
	// shard map and migration instruments, and cache and runtime gauges.
	// Known resilience counters are pre-registered at zero so a scrape
	// shows the full schema before any traffic.
	obs.NewCounterSink(c.reg, obs.MetricEvents, "event",
		cache.CounterHits, cache.CounterMisses, cache.CounterCoalesced, cache.CounterEvictions,
		transport.CounterRoundTrips, transport.CounterRetries, transport.CounterReconnects,
		transport.CounterTimeouts, transport.CounterChecksumErrors,
		transport.CounterFailovers, transport.CounterGiveUps, transport.CounterOverloads)
	obs.FetchLatencyHistogram(c.reg)
	obs.CollectGoRuntime(c.reg)
	obs.CollectBuildInfo(c.reg)
	obs.DrainingGauge(c.reg)
	if cfg.CacheBytes > 0 {
		obs.CollectCache(c.reg, func() cache.Stats { st, _ := c.CacheStats(); return st })
	}
	c.gen = obs.ShardMapGenerationGauge(c.reg)
	c.moved = obs.ShardMapChunksMovedCounter(c.reg)
	c.migB = obs.MigrationBytesHistogram(c.reg)
	c.migS = obs.MigrationSecondsHistogram(c.reg)

	// The flight recorder runs whether or not the debug endpoint does —
	// always-on means the last window of anomalies is in memory the moment
	// anyone asks, not only after someone enabled debugging.
	if cfg.FlightRecCap >= 0 {
		c.rec = flightrec.New(cfg.FlightRecCap)
		c.slow = cfg.SlowThreshold
		if c.slow == 0 {
			c.slow = 250 * time.Millisecond
		}
		if c.slow < 0 {
			c.slow = 0
		}
		if cfg.FlightRecDir != "" {
			c.stopWatch = c.rec.Watch(flightrec.WatchConfig{Dir: cfg.FlightRecDir})
		}
	}
	if cfg.Chaos != nil {
		c.injector = faultnet.New(*cfg.Chaos)
	}

	// Listeners first: member addresses go into the map, so they must be
	// resolved before generation 1 exists. A listener not yet handed to
	// its owner's server is closed on the way out.
	lns := make([]net.Listener, cfg.Owners)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	members := make([]shardmap.Member, cfg.Owners)
	for i := range lns {
		addr := "127.0.0.1:0"
		if i < len(cfg.Addrs) && cfg.Addrs[i] != "" {
			addr = cfg.Addrs[i]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("serveboot: listen %s: %w", addr, err)
		}
		lns[i] = ln
		members[i] = shardmap.Member{ID: c.newOwnerID(), Addr: ln.Addr().String()}
	}
	m, err := shardmap.Uniform(c.lo, c.hi, members, shardmap.UniformOptions{
		ShardsPerMember: cfg.ShardsPerMember, Width: cfg.Width,
	})
	if err != nil {
		return err
	}
	c.cur = m
	c.gen.Set(float64(m.Gen))
	for i := range members {
		ln := lns[i]
		lns[i] = nil // startOwner closes it on failure
		o, err := c.startOwner(ln, members[i].ID, m)
		if err != nil {
			return err
		}
		c.owners = append(c.owners, o)
	}

	if cfg.DebugAddr != "" {
		mux := obs.NewDebugMux(c.reg, nil)
		mux.HandleFunc("/admin/reshard", c.handleReshard)
		// Liveness stays /healthz inside the mux. Readiness flips to 503
		// the moment Close begins draining, so balancers steer away while
		// in-flight work finishes; mid-migration the cluster still answers
		// every request (gainers-first publishing), but readiness dips so
		// orchestrators hold rolling operations until the cutover lands.
		obs.AddReadyz(mux, func() (bool, string) {
			switch {
			case c.draining.Load():
				return false, "draining"
			case c.migrating.Load() > 0:
				return false, "migrating"
			}
			return true, ""
		})
		if c.rec != nil {
			mux.Handle("/debug/flightrecorder", c.rec.Handler())
		}
		dbg, err := obs.StartDebugHandler(cfg.DebugAddr, mux)
		if err != nil {
			return err
		}
		c.dbg = dbg
	}
	return nil
}

func (c *Cluster) newOwnerID() string {
	id := fmt.Sprintf("owner-%d", c.nextID)
	c.nextID++
	return id
}

// startOwner boots one owner on ln: its own shard map store (seeded with
// the given generation), its chunk — preloaded with the shards it owns
// when resident — its front end, and a TCP server whose every request is
// ownership-checked against the owner's live generation. ln is closed on
// failure.
func (c *Cluster) startOwner(ln net.Listener, id string, initial *shardmap.Map) (_ *Owner, err error) {
	defer func() {
		if err != nil {
			ln.Close()
		}
	}()
	st, err := shardmap.NewStore(initial, 0)
	if err != nil {
		return nil, err
	}
	// Metrics bridge: shardmap stays stdlib-only; every applied
	// generation lands on the shared gauge here.
	st.OnApply = func(m *shardmap.Map, _ int) { c.gen.Set(float64(m.Gen)) }
	o := &Owner{ID: id, addr: ln.Addr().String(), maps: st, chunk: &chunk{lo: c.lo, hi: c.hi, src: c.src}}
	if c.cfg.CacheBytes > 0 {
		pol, err := cache.ParsePolicy(c.cfg.CachePolicy)
		if err != nil {
			return nil, err
		}
		o.chunk.hot = cache.New(cache.Options{MaxBytes: c.cfg.CacheBytes, Policy: pol})
	} else {
		o.chunk.samples = make(map[int64][]byte)
		mi := initial.MemberIndex(id)
		for _, sh := range initial.Shards {
			if mi < 0 || !initial.OwnedBy(sh.Lo, mi) {
				continue
			}
			for sid := sh.Lo; sid < sh.Hi; sid++ {
				raw, err := encodeSample(c.src, sid)
				if err != nil {
					return nil, fmt.Errorf("serveboot: preload sample %d for %s: %w", sid, id, err)
				}
				o.chunk.samples[sid] = raw
			}
		}
	}

	opts := transport.ServerOptions{
		WriteTimeout:   c.cfg.WriteTimeout,
		IdleTimeout:    c.cfg.IdleTimeout,
		Metrics:        c.reg,
		ShardMap:       mapView{st: st, id: id},
		FlightRecorder: c.rec, // shared cluster-wide; stale records carry the op
		SlowThreshold:  c.slow,
	}
	if cfg := &c.cfg; cfg.Tenants != "" || cfg.MaxConns > 0 || cfg.QueueDepth > 0 || cfg.FrontendWorkers > 0 {
		tenants, err := frontend.ParseTenants(cfg.Tenants)
		if err != nil {
			return nil, err
		}
		if o.fe, err = frontend.New(frontend.Options{
			Tenants:    tenants,
			MaxConns:   cfg.MaxConns,
			QueueDepth: cfg.QueueDepth,
			Workers:    cfg.FrontendWorkers,
			Reg:        c.reg,
		}); err != nil {
			return nil, err
		}
		opts.Admission = o.fe
		if cfg.MaxConns > 0 {
			// Raw accept-loop backstop a little above the front end's cap:
			// ordinary refusals come from the front end with the overloaded
			// wire status, and the semaphore only stops a socket flood.
			opts.MaxConns = cfg.MaxConns + 64
		}
	}
	if c.injector != nil {
		ln = c.injector.Listener(ln)
	}
	o.srv = transport.ServeListener(ln, o.chunk, opts)
	return o, nil
}

// ownerList snapshots the live owners in join order.
func (c *Cluster) ownerList() []*Owner {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Owner(nil), c.owners...)
}

// ownerLocked returns a live owner by ID, or nil. Callers hold c.mu.
func (c *Cluster) ownerLocked(id string) *Owner {
	for _, o := range c.owners {
		if o.ID == id {
			return o
		}
	}
	return nil
}

// Addr returns the first owner's data-plane listen address — the whole
// server of a one-owner cluster.
func (c *Cluster) Addr() string { return c.ownerList()[0].addr }

// Addrs returns the live owners' data-plane addresses in join order —
// the seed list for elastic clients.
func (c *Cluster) Addrs() []string {
	owners := c.ownerList()
	addrs := make([]string, len(owners))
	for i, o := range owners {
		addrs[i] = o.addr
	}
	return addrs
}

// Owner returns a live owner by ID, or nil.
func (c *Cluster) Owner(id string) *Owner {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownerLocked(id)
}

// OwnerIDs returns the live owner IDs in join order.
func (c *Cluster) OwnerIDs() []string {
	owners := c.ownerList()
	ids := make([]string, len(owners))
	for i, o := range owners {
		ids[i] = o.ID
	}
	return ids
}

// OwnerCount returns the live owner count.
func (c *Cluster) OwnerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.owners)
}

// Generation returns the cluster's published shard map generation.
func (c *Cluster) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.Gen
}

// Range returns the served keyspace [lo, hi).
func (c *Cluster) Range() (lo, hi int64) { return c.lo, c.hi }

// Len returns the keyspace size in samples.
func (c *Cluster) Len() int64 { return c.hi - c.lo }

// Registry returns the cluster's shared metrics registry.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// FlightRecorder returns the cluster-wide flight recorder, or nil when
// Config.FlightRecCap was negative.
func (c *Cluster) FlightRecorder() *flightrec.Recorder { return c.rec }

// DebugAddr returns the debug endpoint's address, or "" if disabled.
func (c *Cluster) DebugAddr() string {
	if c.dbg == nil {
		return ""
	}
	return c.dbg.Addr()
}

// MetricsURL returns the full /metrics scrape URL, or "" if disabled.
func (c *Cluster) MetricsURL() string {
	if c.dbg == nil {
		return ""
	}
	return "http://" + c.dbg.Addr() + "/metrics"
}

// CacheStats sums the lazy owners' hot-cache stats; ok is false for a
// resident cluster, which has no cache.
func (c *Cluster) CacheStats() (st cache.Stats, ok bool) {
	for _, o := range c.ownerList() {
		if o.chunk.hot == nil {
			continue
		}
		s := o.chunk.hot.Stats()
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Coalesced += s.Coalesced
		st.Evictions += s.Evictions
		st.Entries += s.Entries
		st.Bytes += s.Bytes
		ok = true
	}
	return st, ok
}

// CachePolicy returns the lazy owners' eviction policy name, or "".
func (c *Cluster) CachePolicy() string {
	if hot := c.ownerList()[0].chunk.hot; hot != nil {
		return hot.Policy().String()
	}
	return ""
}

// ResetCache drops every cached entry so the next phase of a load run
// starts cold. It is a no-op for a resident cluster.
func (c *Cluster) ResetCache() {
	for _, o := range c.ownerList() {
		if o.chunk.hot != nil {
			o.chunk.hot.Reset()
		}
	}
}

// FaultStats reports the chaos injector's tally; ok is false when the
// cluster was booted without Chaos.
func (c *Cluster) FaultStats() (st faultnet.Stats, ok bool) {
	if c.injector == nil {
		return faultnet.Stats{}, false
	}
	return c.injector.Stats(), true
}

// FrontendStats sums the owners' serving front ends; ok is false when the
// cluster was booted without one. Draining is true once any owner drains.
func (c *Cluster) FrontendStats() (st frontend.Stats, ok bool) {
	for _, o := range c.ownerList() {
		if o.fe == nil {
			continue
		}
		s := o.fe.Stats()
		if !ok {
			st.ShedByReason = make(map[string]int64, len(s.ShedByReason))
			ok = true
		}
		st.Conns += s.Conns
		st.Queued += s.Queued
		st.InFlight += s.InFlight
		for i := range st.AdmittedByClass {
			st.AdmittedByClass[i] += s.AdmittedByClass[i]
		}
		st.Shed += s.Shed
		for r, n := range s.ShedByReason {
			st.ShedByReason[r] += n
		}
		st.Draining = st.Draining || s.Draining
	}
	return st, ok
}

// shutdown drains and stops owners: every front end stops admitting at
// once — refusing new work with the overloaded/draining wire status while
// the listener stays open — and queued and in-flight work gets until the
// DrainTimeout deadline; then every transport server stops accepting and
// gets a second for the replies in flight; then the servers close.
func (c *Cluster) shutdown(owners []*Owner) {
	for _, o := range owners {
		if o.fe != nil {
			o.fe.StartDrain()
		}
	}
	deadline := time.Now().Add(c.cfg.DrainTimeout)
	for _, o := range owners {
		if o.fe != nil {
			o.fe.Drain(time.Until(deadline))
		}
	}
	for _, o := range owners {
		o.srv.Drain(0)
	}
	deadline = time.Now().Add(time.Second)
	for _, o := range owners {
		o.srv.Drain(time.Until(deadline))
	}
	for _, o := range owners {
		o.srv.Close() // its only error is the listener close Drain already did
		if o.fe != nil {
			o.fe.Close()
		}
	}
}

// Close shuts the cluster down, in one order for every cluster: /readyz
// flips to 503 and the draining gauge rises; the owners drain (see
// shutdown) and close; the migration pull clients close; the debug
// endpoint closes LAST, so /metrics stays scrapeable through the whole
// drain; opened dataset files are released at the end. Owner stats stay
// readable after Close. Idempotent.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.draining.Store(true)
		c.mu.Lock() // waits out a migration in progress
		c.closed = true
		owners := c.owners
		pulls := c.pulls
		c.pulls = nil
		c.mu.Unlock()

		if c.stopWatch != nil {
			c.stopWatch()
		}
		obs.DrainingGauge(c.reg).Set(1)
		c.shutdown(owners)
		for _, cl := range pulls {
			cl.Close()
		}
		if c.dbg != nil {
			c.dbg.Close()
		}
		for _, cl := range c.closers {
			if err := cl(); c.closeErr == nil {
				c.closeErr = err
			}
		}
	})
	return c.closeErr
}
