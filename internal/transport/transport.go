// Package transport implements a TCP data plane for DDStore, so that a
// store's chunks can be served between real processes over a real network
// instead of the in-process runtime. Each process runs a Server exposing
// its chunk (sample id range plus per-sample encoded bytes); peers Dial it
// and Get samples by id. A Group stitches several peers into one replica
// group with the same owner arithmetic as the in-process store, and can
// span multiple replica groups for failover.
//
// Unlike the paper's reliable-MPI fabric, a TCP fabric fails: peers crash,
// connections reset, reads stall, bytes corrupt. The data plane is
// therefore hardened end to end — per-operation deadlines, capped
// exponential backoff with jitter, transparent reconnect, CRC32 payload
// checksums, and replica failover (see retry.go, client.go, group.go).
// internal/faultnet injects exactly these faults deterministically to
// prove the behaviour.
//
// The in-process runtime remains the default (the paper's MPI RMA has no
// server-side CPU involvement, which goroutine shared memory models
// faithfully); the TCP plane exists to demonstrate and test the store
// across process boundaries, e.g. one server per node.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/flightrec"
	"ddstore/internal/obs/tracectx"
)

// Protocol constants. Every request is a fixed 17-byte header
// (op u8, a i64, b i64); every response is a 9-byte head
// (status u8, len u32, crc32 u32) followed by the payload. The CRC is
// IEEE CRC32 over the payload, so a flipped bit anywhere in the frame is
// detected by either the length bound or the checksum.
const (
	opMeta     = 1 // request chunk metadata; response payload: lo i64, hi i64
	opGet      = 2 // request sample a; response payload: encoded graph
	opMulti    = 3 // request samples [a, b); response payload: concatenated graphs
	opGetBatch = 4 // request a ids (listed in the body); response: length-prefixed graphs
	opHello    = 5 // declare tenant identity + feature bits (b); response: server feature word
	opShardMap = 6 // request the current shard map; response payload: encoded shardmap.Map

	// Traced variants, negotiated via the hello feature word (trace.go):
	// the body starts with a 24-byte trace context (tracectx.Size), and a
	// success response to a sampled context ends with a timing trailer.
	opGetTraced      = 7 // opGet + trace context body
	opGetBatchTraced = 8 // opGetBatch, body = trace context then the ids

	statusOK         = 0
	statusError      = 1
	statusOverloaded = 2 // request shed by admission control: back off, don't fail over
	statusStaleGen   = 3 // requested id not owned under the current shard map generation; payload IS the server's current encoded map: refresh and retry, don't fail over

	reqHeaderSize  = 17
	respHeaderSize = 9
)

// maxPayload bounds a response so a corrupt peer cannot make us allocate
// unbounded memory; eagerPayload bounds how much of that a client will
// allocate before any payload bytes have actually arrived.
const (
	maxPayload   = 1 << 30
	eagerPayload = 1 << 20
)

// maxTenantName bounds the opHello body so a hostile handshake cannot make
// the server allocate unbounded memory.
const maxTenantName = 128

// Class is the priority class admission control schedules a request on.
// The server derives it from the wire op: single-sample lookups and
// metadata probes are interactive, range and batch fetches are training
// bulk traffic.
type Class uint8

// The two priority classes.
const (
	ClassLookup Class = iota // interactive: Meta, Get
	ClassBulk                // training: Multi, GetBatch
)

// String returns the label value used in metrics ("lookup", "bulk").
func (c Class) String() string {
	if c == ClassBulk {
		return "bulk"
	}
	return "lookup"
}

// classOf maps a wire op to its priority class.
func classOf(op byte) Class {
	if op == opMulti || op == opGetBatch || op == opGetBatchTraced {
		return ClassBulk
	}
	return ClassLookup
}

// opName returns the label value an op is metered and flight-recorded
// under.
func opName(op byte) string {
	switch op {
	case opMeta:
		return "meta"
	case opGet:
		return "get"
	case opMulti:
		return "multi"
	case opGetBatch:
		return "getbatch"
	case opHello:
		return "hello"
	case opShardMap:
		return "shardmap"
	case opGetTraced:
		return "get-traced"
	case opGetBatchTraced:
		return "getbatch-traced"
	default:
		return fmt.Sprintf("op-%d", op)
	}
}

// ConnGate is the per-connection handle a serving front end returns from
// AdmitConn. The server calls Hello when the client declares a tenant,
// Admit before serving each request (blocking while the request waits in
// an admission queue, or failing with an ErrOverloaded-wrapped error to
// shed it), and Close when the connection ends. Admit's release callback
// must be invoked exactly once, after the response is written, with the
// payload size — the hook byte quotas are charged through.
type ConnGate interface {
	Hello(tenant string) error
	Admit(class Class) (release func(payloadBytes int64), err error)
	Close()
}

// Admission is the connection-level admission hook a serving front end
// (internal/frontend) implements. AdmitConn runs once per accepted
// connection; an error rejects the connection — the server answers its
// first request with statusOverloaded and closes it, so well-behaved
// clients back off instead of hammering a full or draining server.
type Admission interface {
	AdmitConn(remoteAddr string) (ConnGate, error)
}

// ShardMapSource is the server-side hook into a versioned ownership map
// (internal/shardmap, adapted by serveboot so this package stays
// import-light). When configured, the server answers requests for samples
// it does not own under the current generation with a stale-generation
// status whose payload is the current encoded map — the client refreshes
// its map from that payload and retries the right owner in one round
// trip, instead of treating a moved chunk as a dead peer. The map
// bootstrap op serves the same encoded bytes on demand.
type ShardMapSource interface {
	// Generation returns the current shard map generation.
	Generation() uint64
	// Owns reports whether this server holds sample id under the current
	// generation (as primary or replica, including chunks migrated in but
	// not yet cut over).
	Owns(id int64) bool
	// Encoded returns the current generation's wire encoding
	// (shardmap.Map.Encode; cached per generation by shardmap.Store).
	Encoded() ([]byte, error)
}

// staleGenError is the server-internal signal that a request touched a
// sample this server no longer owns: writeFrame turns it into a
// stale-generation response carrying the current map.
type staleGenError struct{ mapBytes []byte }

func (e *staleGenError) Error() string { return "stale shard map generation" }

// ChunkSource is what a Server exposes: a contiguous range of samples with
// access to their encoded bytes. core.Store implements it for its local
// chunk (LocalRange + LocalSampleBytes).
type ChunkSource interface {
	LocalRange() (lo, hi int64)
	LocalSampleBytes(id int64) ([]byte, error)
}

// MemChunk is a self-contained ChunkSource: samples [Lo, Hi) held encoded
// in memory. Useful for standalone servers and tests.
type MemChunk struct {
	Lo, Hi  int64
	Encoded [][]byte // Encoded[i] is sample Lo+i
}

// NewMemChunk encodes graphs into a chunk starting at lo.
func NewMemChunk(lo int64, graphs []*graph.Graph) *MemChunk {
	enc := make([][]byte, len(graphs))
	for i, g := range graphs {
		enc[i] = g.Encode()
	}
	return &MemChunk{Lo: lo, Hi: lo + int64(len(graphs)), Encoded: enc}
}

// LocalRange implements ChunkSource.
func (m *MemChunk) LocalRange() (int64, int64) { return m.Lo, m.Hi }

// LocalSampleBytes implements ChunkSource.
func (m *MemChunk) LocalSampleBytes(id int64) ([]byte, error) {
	if id < m.Lo || id >= m.Hi {
		return nil, fmt.Errorf("transport: sample %d not in chunk [%d,%d)", id, m.Lo, m.Hi)
	}
	return m.Encoded[id-m.Lo], nil
}

// ServerOptions configure a Server's defensive limits.
type ServerOptions struct {
	// WriteTimeout bounds each response write, so a stalled client cannot
	// pin a handler goroutine forever. 0 means no limit.
	WriteTimeout time.Duration
	// IdleTimeout closes a connection that sends no request for this long.
	// 0 means no limit.
	IdleTimeout time.Duration
	// MaxConns caps concurrent connection goroutines. When the cap is
	// reached, further accepted connections are closed immediately and
	// counted (AcceptRejects, ddstore_serve_accept_rejected_total) — the
	// hard backstop under the politer per-tenant limits an Admission layer
	// enforces. 0 preserves the historical unbounded behaviour.
	MaxConns int
	// Admission, when non-nil, gates every connection and request through
	// a serving front end (internal/frontend): tenant identity, rate
	// limits, priority queues, and load shedding.
	Admission Admission
	// ShardMap, when non-nil, makes the server elastic: ownership of every
	// requested sample is checked against the live shard map generation,
	// un-owned samples answer with the stale-generation status carrying
	// the current map, and the map bootstrap op is served.
	ShardMap ShardMapSource
	// Metrics, when non-nil, records per-request service latency into the
	// canonical fetch-latency histogram plus per-op request, error, and
	// payload-byte counters — what ddstore-serve exposes on /metrics.
	Metrics *obs.Registry
	// FlightRecorder, when non-nil, receives a structured record for every
	// errored, shed, or stale-answered request, and — when SlowThreshold is
	// set — every successful request slower than the threshold.
	FlightRecorder *flightrec.Recorder
	// SlowThreshold is the service time above which a successful request is
	// flight-recorded as slow. 0 disables slow recording.
	SlowThreshold time.Duration
}

// serverMetrics holds the server's pre-resolved instrument handles so the
// request loop never touches the registry's lookup path.
//
// Invariant: reply visible ⇒ counted. The request loop observes a request
// (and hands it to the flight recorder) before it writes the response
// frame, so a client that has read its reply always finds the request in
// every counter of a later scrape. The cost is that the latency histogram
// (ddstore_fetch_latency_seconds) and the flight record's duration measure
// service time up to the start of the frame write, not including it.
type serverMetrics struct {
	reqs        [9]*obs.Counter // indexed by op; 0 unused
	errors      *obs.Counter
	bytes       *obs.Counter
	stales      *obs.Counter
	lat         *obs.Histogram
	acceptRejct *obs.Counter
	connRejects *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	reg.Help("ddstore_serve_requests_total", "Requests handled by the chunk server, by op.")
	reg.Help("ddstore_serve_errors_total", "Requests answered with an error status.")
	reg.Help("ddstore_serve_bytes_total", "Response payload bytes served.")
	reg.Help("ddstore_serve_stale_gen_total", "Requests answered with a stale-generation status (sample not owned under the current shard map).")
	m := &serverMetrics{
		errors:      reg.Counter("ddstore_serve_errors_total"),
		bytes:       reg.Counter("ddstore_serve_bytes_total"),
		stales:      reg.Counter("ddstore_serve_stale_gen_total"),
		lat:         obs.FetchLatencyHistogram(reg),
		acceptRejct: reg.Counter(obs.MetricAcceptRejected),
		connRejects: reg.Counter(obs.MetricConnRejected),
	}
	reg.Help(obs.MetricAcceptRejected, "Accepted connections closed because the MaxConns goroutine cap was reached.")
	reg.Help(obs.MetricConnRejected, "Connections refused by admission control with an overloaded status.")
	for _, op := range []byte{opMeta, opGet, opMulti, opGetBatch, opHello, opShardMap, opGetTraced, opGetBatchTraced} {
		m.reqs[op] = reg.Counter("ddstore_serve_requests_total", "op", opName(op))
	}
	return m
}

// observe records one handled request.
func (m *serverMetrics) observe(op byte, payload int, err error, dur time.Duration) {
	if m == nil {
		return
	}
	if int(op) < len(m.reqs) && m.reqs[op] != nil {
		m.reqs[op].Inc()
	}
	var sg *staleGenError
	switch {
	case errors.As(err, &sg):
		// A stale-generation answer is migration working as designed, not
		// a server fault — metered separately from the error counter.
		m.stales.Inc()
	case err != nil:
		m.errors.Inc()
	}
	m.bytes.Add(int64(payload))
	m.lat.ObserveDuration(dur)
}

// connState tracks one live connection: busy is set while its handler is
// executing a request (vs. blocked waiting for the next header), so Drain
// can wake idle handlers without cutting an in-flight request short.
type connState struct {
	busy atomic.Bool
}

// Server serves one chunk over TCP.
type Server struct {
	ln            net.Listener
	src           ChunkSource
	opts          ServerOptions
	metrics       *serverMetrics // nil without ServerOptions.Metrics
	sem           chan struct{}  // nil without ServerOptions.MaxConns
	acceptRejects atomic.Int64
	draining      atomic.Bool
	wg            sync.WaitGroup
	mu            sync.Mutex
	conns         map[net.Conn]*connState
	done          chan struct{}
	drainOnce     sync.Once
	closeOnce     sync.Once
}

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral port)
// with default options.
func Serve(addr string, src ChunkSource) (*Server, error) {
	return ServeWith(addr, src, ServerOptions{})
}

// ServeWith starts a server on addr with explicit options.
func ServeWith(addr string, src ChunkSource, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return ServeListener(ln, src, opts), nil
}

// ServeListener serves on an existing listener. This is the hook for
// wrapping the accept path — faultnet wraps a real listener to inject
// resets, stalls, and corruption into every accepted connection.
func ServeListener(ln net.Listener, src ChunkSource, opts ServerOptions) *Server {
	s := &Server{ln: ln, src: src, opts: opts, conns: map[net.Conn]*connState{}, done: make(chan struct{})}
	if opts.Metrics != nil {
		s.metrics = newServerMetrics(opts.Metrics)
	}
	if opts.MaxConns > 0 {
		s.sem = make(chan struct{}, opts.MaxConns)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AcceptRejects reports how many accepted connections were closed because
// the MaxConns goroutine cap was full.
func (s *Server) AcceptRejects() int64 { return s.acceptRejects.Load() }

// Drain moves the server into graceful shutdown: the listener closes (no
// new connections), handlers blocked waiting for their next request are
// woken and closed, and handlers mid-request are left to finish — Drain
// blocks until every handler has exited or the timeout expires, and
// reports whether the drain completed cleanly. Connections that complete
// their in-flight request while draining are closed instead of looping
// for another request. Call Close afterwards to hard-close whatever is
// left; Drain with timeout 0 just performs the stop-accepting/nudge step.
func (s *Server) Drain(timeout time.Duration) bool {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.ln.Close()
		s.mu.Lock()
		for c, st := range s.conns {
			if !st.busy.Load() {
				// Wake the handler out of its blocking header read; it
				// observes the draining flag and closes the connection.
				c.SetReadDeadline(time.Now())
			}
		}
		s.mu.Unlock()
	})
	if timeout <= 0 {
		return false
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close stops the server and its connections. It is idempotent, so a
// server killed mid-run (chaos tests, signal handlers) can be closed again
// by deferred cleanup.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// At the goroutine cap: close without spawning anything.
				conn.Close()
				s.acceptRejects.Add(1)
				if s.metrics != nil {
					s.metrics.acceptRejct.Inc()
				}
				continue
			}
		}
		st := &connState{}
		s.mu.Lock()
		s.conns[conn] = st
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				if s.sem != nil {
					<-s.sem
				}
			}()
			if s.opts.Admission != nil {
				gate, err := s.opts.Admission.AdmitConn(conn.RemoteAddr().String())
				if err != nil {
					s.rejectConn(conn, err)
					return
				}
				defer gate.Close()
				s.handle(conn, st, gate)
				return
			}
			s.handle(conn, st, nil)
		}()
	}
}

// rejectReadTimeout bounds how long a rejected connection may dawdle over
// its first request before the server gives up on delivering a status.
const rejectReadTimeout = 2 * time.Second

// rejectConn answers a connection refused by admission control: it reads
// requests (consuming a body when the op carries one, so each response
// frame is unambiguous) and replies to every one with the overloaded/
// draining status, so a client that backs off and retries on the same
// connection keeps seeing the status instead of a broken pipe. It
// returns — and the caller closes the connection — once the client goes
// quiet for rejectReadTimeout or hangs up.
func (s *Server) rejectConn(conn net.Conn, cause error) {
	if s.metrics != nil {
		s.metrics.connRejects.Inc()
	}
	var header [reqHeaderSize]byte
	for {
		conn.SetReadDeadline(time.Now().Add(rejectReadTimeout))
		if _, err := io.ReadFull(conn, header[:]); err != nil {
			return
		}
		op := header[0]
		a := int64(binary.LittleEndian.Uint64(header[1:]))
		// Drain the body without buffering it: the bytes are discarded
		// anyway, and an error path must not allocate proportional to an
		// attacker-supplied length.
		switch {
		case op == opGetBatch && a >= 1 && a <= maxBatchIDs:
			if _, err := io.CopyN(io.Discard, conn, 8*a); err != nil {
				return
			}
		case op == opGetBatchTraced && a >= 1 && a <= maxBatchIDs:
			if _, err := io.CopyN(io.Discard, conn, tracectx.Size+8*a); err != nil {
				return
			}
		case op == opGetTraced:
			if _, err := io.CopyN(io.Discard, conn, tracectx.Size); err != nil {
				return
			}
		case op == opHello && a >= 1 && a <= maxTenantName:
			if _, err := io.CopyN(io.Discard, conn, a); err != nil {
				return
			}
		}
		if s.rec() != nil && op != opHello {
			s.rec().Add(flightrec.Record{Kind: flightrec.KindShed, Op: opName(op), Err: cause.Error()})
		}
		if s.writeFrame(conn, nil, cause) != nil {
			return
		}
	}
}

// checkHeader validates a request header against the served chunk before
// any payload work happens — a malformed or hostile header must not make
// the server allocate or touch the source.
func (s *Server) checkHeader(op byte, a, b int64) error {
	lo, hi := s.src.LocalRange()
	switch op {
	case opMeta:
		return nil
	case opGet, opGetTraced:
		if a < 0 {
			return fmt.Errorf("negative sample id %d", a)
		}
		if a < lo || a >= hi {
			return fmt.Errorf("sample %d outside chunk [%d,%d)", a, lo, hi)
		}
		return nil
	case opMulti:
		if a < 0 || b < 0 {
			return fmt.Errorf("negative range [%d,%d)", a, b)
		}
		if b < a {
			return fmt.Errorf("inverted range [%d,%d)", a, b)
		}
		if a < lo || b > hi {
			return fmt.Errorf("range [%d,%d) outside chunk [%d,%d)", a, b, lo, hi)
		}
		return nil
	case opGetBatch, opGetBatchTraced:
		// a is the id count; the ids themselves follow the header and are
		// range-checked after they are read. b is reserved.
		if a < 1 || a > maxBatchIDs {
			return fmt.Errorf("batch count %d outside [1,%d]", a, maxBatchIDs)
		}
		return nil
	case opHello:
		// a is the tenant-name byte count; the name follows the header.
		if a < 1 || a > maxTenantName {
			return fmt.Errorf("tenant name length %d outside [1,%d]", a, maxTenantName)
		}
		return nil
	case opShardMap:
		if s.opts.ShardMap == nil {
			return errors.New("server does not serve a shard map")
		}
		return nil
	default:
		return fmt.Errorf("unknown op %d", op)
	}
}

func (s *Server) handle(conn net.Conn, st *connState, gate ConnGate) {
	var header [reqHeaderSize]byte
	tenant := "" // declared by the connection's most recent hello
	for {
		if s.draining.Load() {
			return
		}
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		if _, err := io.ReadFull(conn, header[:]); err != nil {
			return
		}
		st.busy.Store(true)
		op := header[0]
		a := int64(binary.LittleEndian.Uint64(header[1:]))
		b := int64(binary.LittleEndian.Uint64(header[9:]))
		start := time.Now()
		err := s.checkHeader(op, a, b)
		if err != nil && (op == opGetBatch || op == opGetBatchTraced || op == opHello) {
			// An invalid body count means the length of the request body is
			// unknown, so the stream cannot be resynchronized: report the
			// error, then drop the connection.
			s.metrics.observe(op, 0, err, time.Since(start))
			s.writeFrame(conn, nil, err)
			return
		}
		// Ops with a body consume it before admission, so a shed response
		// leaves the stream aligned on the next request header. The traced
		// single-get's body is fixed-size, so it is drained even when the
		// header was invalid and the request will answer with an error.
		var body []byte
		switch {
		case op == opGetTraced:
			body = make([]byte, tracectx.Size)
		case err == nil && op == opGetBatchTraced:
			body = make([]byte, tracectx.Size+8*a)
		case err == nil && op == opGetBatch:
			body = make([]byte, 8*a)
		case err == nil && op == opHello:
			body = make([]byte, a)
		}
		if len(body) > 0 {
			if _, rerr := io.ReadFull(conn, body); rerr != nil {
				return
			}
		}
		// A corrupt or truncated trace context never fails the request: it
		// decodes invalid and merely disables tracing for it (tracectx's
		// documented contract, pinned by its fuzz test).
		var tc tracectx.Context
		if err == nil && (op == opGetTraced || op == opGetBatchTraced) {
			tc, _ = tracectx.Decode(body)
		}
		// The request is fully read: an idle-timeout deadline (or a Drain
		// nudge that raced the header) must not cut the in-flight request
		// short, e.g. while it waits in an admission queue.
		if s.opts.IdleTimeout > 0 || s.draining.Load() {
			conn.SetReadDeadline(time.Time{})
		}
		// Admission: hello switches tenant identity; data ops pass through
		// the front end's rate limits and priority queues, blocking here
		// while queued and failing with an overloaded status when shed. The
		// queue wait is measured here and reported in the timing trailer.
		var release func(int64)
		var queueWait time.Duration
		if err == nil && gate != nil && op != opHello {
			admitStart := time.Now()
			release, err = gate.Admit(classOf(op))
			queueWait = time.Since(admitStart)
		}
		if err == nil && op == opHello {
			if gate != nil {
				err = gate.Hello(string(body))
			}
			if err == nil {
				tenant = string(body)
			}
		}
		// Each op produces a list of payload parts that are written with one
		// vectored write — the source's cached sample slices are referenced
		// in place, never concatenated into a scratch payload.
		var parts [][]byte
		samples := 0
		srcStart := time.Now()
		if err == nil {
			switch op {
			case opMeta:
				lo, hi := s.src.LocalRange()
				meta := make([]byte, 16)
				binary.LittleEndian.PutUint64(meta[0:], uint64(lo))
				binary.LittleEndian.PutUint64(meta[8:], uint64(hi))
				parts = [][]byte{meta}
			case opGet, opGetTraced:
				samples = 1
				if err = s.ownsAll(a, a+1); err == nil {
					var one []byte
					if one, err = s.src.LocalSampleBytes(a); err == nil {
						parts = [][]byte{one}
					}
				}
			case opMulti:
				if err = s.ownsAll(a, b); err != nil {
					break
				}
				samples = int(b - a)
				parts = make([][]byte, 0, b-a)
				for id := a; id < b; id++ {
					var one []byte
					if one, err = s.src.LocalSampleBytes(id); err != nil {
						parts = nil
						break
					}
					parts = append(parts, one)
				}
			case opGetBatch, opGetBatchTraced:
				// The count is validated, so the body length is trusted and
				// the connection stays usable even if an id is out of range.
				idBytes := body
				if op == opGetBatchTraced {
					idBytes = body[tracectx.Size:]
				}
				ids := decodeBatchIDs(idBytes, int(a))
				samples = len(ids)
				if err = s.ownsBatch(ids); err == nil {
					parts, err = s.batchParts(ids)
				}
			case opHello:
				// Acknowledge with the server's feature word, so both sides
				// know which protocol extensions are safe to use on this
				// connection. Old clients release the payload unread.
				feat := make([]byte, 8)
				binary.LittleEndian.PutUint64(feat, featureTracing)
				parts = [][]byte{feat}
			case opShardMap:
				var mb []byte
				if mb, err = s.opts.ShardMap.Encoded(); err == nil {
					parts = [][]byte{mb}
				}
			}
		}
		sourceTime := time.Since(srcStart)
		var total int
		for _, p := range parts {
			total += len(p)
		}
		// Traced success responses carry the server's timing breakdown as a
		// trailer inside the same frame; its bytes ride the existing
		// length/CRC envelope.
		if err == nil && tc.Valid() && tc.Sampled {
			gen := uint64(0)
			if s.opts.ShardMap != nil {
				gen = s.opts.ShardMap.Generation()
			}
			trailer := appendTimingTrailer(nil, ServerTiming{
				QueueWait:  queueWait,
				Service:    time.Since(start),
				Source:     sourceTime,
				Bytes:      int64(total),
				Generation: gen,
				Tenant:     tenant,
			})
			parts = append(parts, trailer)
			total += len(trailer)
		}
		// Count and flight-record the request before its reply can reach
		// the client (see serverMetrics); the measured service time
		// therefore ends here, before the frame write.
		dur := time.Since(start)
		s.metrics.observe(op, total, err, dur)
		s.recordRequest(op, tenant, tc, samples, total, queueWait, sourceTime, dur, err)
		werr := s.writeFrame(conn, parts, err)
		if release != nil {
			release(int64(total))
		}
		st.busy.Store(false)
		if werr != nil {
			return
		}
	}
}

// rec returns the configured flight recorder (nil when absent).
func (s *Server) rec() *flightrec.Recorder { return s.opts.FlightRecorder }

// recordRequest feeds the flight recorder: errored, shed, and
// stale-answered requests always, successful ones only when they exceeded
// the slow threshold. Hello handshakes are administrative and never
// recorded.
func (s *Server) recordRequest(op byte, tenant string, tc tracectx.Context, samples, total int, queueWait, source, dur time.Duration, err error) {
	rec := s.rec()
	if rec == nil || op == opHello {
		return
	}
	var kind flightrec.Kind
	var sg *staleGenError
	switch {
	case errors.As(err, &sg):
		kind = flightrec.KindStale
	case errors.Is(err, ErrOverloaded):
		kind = flightrec.KindShed
	case err != nil:
		kind = flightrec.KindError
	case s.opts.SlowThreshold > 0 && dur >= s.opts.SlowThreshold:
		kind = flightrec.KindSlow
	default:
		return
	}
	r := flightrec.Record{
		Kind:        kind,
		Op:          opName(op),
		Tenant:      tenant,
		TraceID:     tracectx.IDString(tc.TraceID),
		DurMs:       flightrec.Ms(dur),
		QueueWaitMs: flightrec.Ms(queueWait),
		SourceMs:    flightrec.Ms(source),
		Bytes:       int64(total),
		Samples:     samples,
	}
	if s.opts.ShardMap != nil {
		r.Generation = s.opts.ShardMap.Generation()
	}
	if err != nil {
		r.Err = err.Error()
	}
	rec.Add(r)
}

// ownsAll checks every id in [lo, hi) against the shard map (a no-op
// without one): the first id this server does not own under the current
// generation turns the whole request into a stale-generation answer
// carrying the current map. Migration keeps data addressable throughout —
// the old owner answers stale only after it has applied the generation
// that moved the chunk, by which point the new owner serves it.
func (s *Server) ownsAll(lo, hi int64) error {
	sm := s.opts.ShardMap
	if sm == nil {
		return nil
	}
	for id := lo; id < hi; id++ {
		if !sm.Owns(id) {
			return s.staleErr()
		}
	}
	return nil
}

// ownsBatch is ownsAll over an id list, after range-checking every id as
// the single-id ops' headers are: an id outside the chunk is an error on
// every server, never a stale-generation answer, since no generation
// routes it anywhere. Any out-of-range id fails the whole batch — the
// client grouped the ids by owner, so a stray id is a protocol error, not
// a partial-result situation.
func (s *Server) ownsBatch(ids []int64) error {
	lo, hi := s.src.LocalRange()
	for _, id := range ids {
		if id < lo || id >= hi {
			return fmt.Errorf("sample %d outside chunk [%d,%d)", id, lo, hi)
		}
	}
	sm := s.opts.ShardMap
	if sm == nil {
		return nil
	}
	for _, id := range ids {
		if !sm.Owns(id) {
			return s.staleErr()
		}
	}
	return nil
}

func (s *Server) staleErr() error {
	mb, err := s.opts.ShardMap.Encoded()
	if err != nil {
		return err
	}
	return &staleGenError{mapBytes: mb}
}

// batchParts gathers the requested samples into the length-prefixed batch
// response framing as a part list: one shared slab holds every 4-byte
// length prefix, and each sample's cached bytes are referenced directly,
// so the reply costs zero per-chunk copies. The ids are range-checked by
// ownsBatch.
func (s *Server) batchParts(ids []int64) ([][]byte, error) {
	parts := make([][]byte, 0, 2*len(ids))
	prefixes := make([]byte, 4*len(ids))
	for i, id := range ids {
		one, err := s.src.LocalSampleBytes(id)
		if err != nil {
			return nil, err
		}
		pre := prefixes[4*i : 4*i+4 : 4*i+4]
		binary.LittleEndian.PutUint32(pre, uint32(len(one)))
		parts = append(parts, pre, one)
	}
	return parts, nil
}

// writeFrame sends one response frame — status byte, total length, CRC —
// followed by the payload parts in a single vectored write (writev on TCP
// connections; net.Buffers falls back to sequential writes elsewhere).
// The CRC is computed incrementally over the parts, so the wire format is
// byte-identical to the old single-payload framing and existing clients
// need no changes. On err the parts are ignored and the error text is the
// payload.
func (s *Server) writeFrame(conn net.Conn, parts [][]byte, err error) error {
	var head [respHeaderSize]byte
	var sg *staleGenError
	switch {
	case errors.As(err, &sg):
		// The refresh is the payload: the client installs this map and
		// retries the right owner without an extra round trip.
		head[0] = statusStaleGen
		parts = [][]byte{sg.mapBytes}
	case errors.Is(err, ErrOverloaded):
		head[0] = statusOverloaded
		parts = [][]byte{[]byte(err.Error())}
	case err != nil:
		head[0] = statusError
		parts = [][]byte{[]byte(err.Error())}
	default:
		head[0] = statusOK
	}
	total := 0
	crc := uint32(0)
	for _, p := range parts {
		total += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(head[1:], uint32(total))
	binary.LittleEndian.PutUint32(head[5:], crc)
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	bufs := make(net.Buffers, 0, 1+len(parts))
	bufs = append(bufs, head[:])
	for _, p := range parts {
		if len(p) > 0 {
			bufs = append(bufs, p)
		}
	}
	_, werr := bufs.WriteTo(conn)
	return werr
}
