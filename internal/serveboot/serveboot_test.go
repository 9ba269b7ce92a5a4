package serveboot

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/transport"
)

// TestLazyChunkServes drives the CacheBytes serving mode end to end: a
// lazy owner behind a real TCP server answers repeated Gets correctly, the
// second pass over the ids is all cache hits, and ids outside the served
// range are rejected without touching the backing source.
func TestLazyChunkServes(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 100})
	inst, err := Boot(Config{
		Source: ds, Lo: 10, Hi: 40,
		CacheBytes: 1 << 20, WriteTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	cl, err := transport.Dial(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for pass := 0; pass < 2; pass++ {
		for id := int64(10); id < 40; id++ {
			g, err := cl.Get(id)
			if err != nil {
				t.Fatalf("pass %d get %d: %v", pass, id, err)
			}
			if g.ID != id {
				t.Fatalf("pass %d get %d returned sample %d", pass, id, g.ID)
			}
		}
	}
	st, ok := inst.CacheStats()
	if !ok {
		t.Fatal("lazy mode reported no cache")
	}
	if st.Misses != 30 {
		t.Fatalf("%d cache misses over two passes, want 30 (one per id)", st.Misses)
	}
	if st.Hits != 30 {
		t.Fatalf("%d cache hits on the repeat pass, want 30", st.Hits)
	}

	for _, id := range []int64{9, 40} {
		if _, err := cl.Get(id); err == nil {
			t.Fatalf("get %d outside the served range succeeded", id)
		}
	}
	if after, _ := inst.CacheStats(); after.Misses != st.Misses {
		t.Fatal("out-of-range gets reached the cache")
	}

	// ResetCache returns the instance to a cold state: the same ids miss
	// again on the next pass — the warm/cold phase seam the load
	// generator relies on.
	inst.ResetCache()
	if _, err := cl.Get(15); err != nil {
		t.Fatalf("get after reset: %v", err)
	}
	if after, _ := inst.CacheStats(); after.Misses != st.Misses+1 {
		t.Fatalf("post-reset get was not a miss (misses %d, want %d)", after.Misses, st.Misses+1)
	}
}

// TestDebugMetricsExposition boots an instance exactly the way
// ddstore-serve -debug-addr does — server metrics, cache collector,
// pre-registered resilience counters — drives a little traffic, and checks
// the /metrics and /healthz endpoints serve a scrape containing the full
// schema.
func TestDebugMetricsExposition(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 50})
	inst, err := Boot(Config{
		Source: ds, Lo: 0, Hi: 50,
		CacheBytes: 1 << 20, WriteTimeout: time.Second,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	cl, err := transport.Dial(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for pass := 0; pass < 2; pass++ {
		for id := int64(0); id < 5; id++ {
			if _, err := cl.Get(id); err != nil {
				t.Fatalf("get %d: %v", id, err)
			}
		}
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + inst.DebugAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	if url := inst.MetricsURL(); !strings.HasSuffix(url, "/metrics") {
		t.Fatalf("MetricsURL = %q", url)
	}
	body := get("/metrics")
	for _, want := range []string{
		"ddstore_fetch_latency_seconds_bucket",
		"ddstore_fetch_latency_seconds_count 10",
		`ddstore_serve_requests_total{op="get"} 10`,
		`ddstore_events_total{event="cache-hits"} 5`,
		`ddstore_events_total{event="cache-misses"} 5`,
		`ddstore_events_total{event="net-retries"} 0`,
		`ddstore_events_total{event="net-failovers"} 0`,
		"ddstore_cache_hit_rate 0.5",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", body)
	}
}

// TestBootRejectsBadConfig covers the validation paths: no source, an
// unknown synthetic dataset, and an inverted or oversized range.
func TestBootRejectsBadConfig(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no source", Config{Lo: 0, Hi: 10}},
		{"unknown dataset", Config{Dataset: "nope", N: 10, Hi: -1}},
		{"inverted range", Config{Source: ds, Lo: 5, Hi: 5}},
		{"range past end", Config{Source: ds, Lo: 0, Hi: 11}},
		{"negative lo", Config{Source: ds, Lo: -1, Hi: 5}},
		{"bad cache policy", Config{Source: ds, Lo: 0, Hi: 10, CacheBytes: 1 << 20, CachePolicy: "mru"}},
		{"bad tenant spec", Config{Source: ds, Lo: 0, Hi: 10, Tenants: "a:turbo=9"}},
		{"dup tenant", Config{Source: ds, Lo: 0, Hi: 10, Tenants: "a:rate=1;a:rate=2"}},
	}
	for _, tc := range cases {
		if inst, err := Boot(tc.cfg); err == nil {
			inst.Close()
			t.Errorf("%s: Boot succeeded", tc.name)
		}
	}
}

// TestBootPreloadMode exercises the eager-preload path (no cache) and the
// default ephemeral loopback address.
func TestBootPreloadMode(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	inst, err := Boot(Config{Source: ds, Lo: 0, Hi: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if lo, hi := inst.Range(); lo != 0 || hi != 20 {
		t.Fatalf("Range() = [%d,%d), want [0,20)", lo, hi)
	}
	if _, ok := inst.CacheStats(); ok {
		t.Fatal("preload mode reported a cache")
	}
	if inst.DebugAddr() != "" || inst.MetricsURL() != "" {
		t.Fatal("debug endpoint reported without DebugAddr")
	}
	cl, err := transport.Dial(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lo, hi, err := cl.Meta()
	if err != nil || lo != 0 || hi != 20 {
		t.Fatalf("Meta() = %d,%d,%v", lo, hi, err)
	}
	if g, err := cl.Get(7); err != nil || g.ID != 7 {
		t.Fatalf("Get(7) = %v, %v", g, err)
	}
}

// blockingSource stalls reads of one sample id until release is closed,
// so a test can hold a request in flight server-side at will. entered is
// closed when the first read of that id begins.
type blockingSource struct {
	SampleSource
	block   int64
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (b *blockingSource) ReadSample(id int64) (*graph.Graph, error) {
	if id == b.block {
		b.once.Do(func() { close(b.entered) })
		<-b.release
	}
	return b.SampleSource.ReadSample(id)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDrainsGracefully is the drain regression test: with the front
// end enabled, Close must let an in-flight request finish while new work
// is refused with the overloaded/draining wire status, and the debug
// endpoint must stay scrapeable — with the draining gauge raised — for
// the whole drain (it used to be torn down alongside the server).
func TestCloseDrainsGracefully(t *testing.T) { closeDrainsGracefully(t, 1) }

// TestClusterCloseDrainsGracefully runs the same drill on a two-owner
// cluster: every cluster shuts down in the one drain order.
func TestClusterCloseDrainsGracefully(t *testing.T) { closeDrainsGracefully(t, 2) }

// closeDrainsGracefully drives the drain drill against the first owner of
// a lazy cluster (ids 3 and 7 live there at one or two owners).
func closeDrainsGracefully(t *testing.T, owners int) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 50})
	src := &blockingSource{SampleSource: ds, block: 7,
		release: make(chan struct{}), entered: make(chan struct{})}
	inst, err := Boot(Config{
		Source: src, Lo: 0, Hi: 50, Owners: owners,
		CacheBytes: 1 << 20, WriteTimeout: time.Second,
		DebugAddr:  "127.0.0.1:0",
		QueueDepth: 8, FrontendWorkers: 2, DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	scrape := func() (int, string) {
		resp, err := http.Get(inst.MetricsURL())
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if _, body := scrape(); !strings.Contains(body, "ddstore_serve_draining 0") {
		t.Fatal("draining gauge not 0 before Close")
	}

	cl, err := transport.Dial(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get(3); err != nil {
		t.Fatalf("warmup get: %v", err)
	}

	type getResult struct {
		g   *graph.Graph
		err error
	}
	inflight := make(chan getResult, 1)
	go func() {
		g, err := cl.Get(7) // blocks in ReadSample until release closes
		inflight <- getResult{g, err}
	}()
	// Wait for the request to reach the source, not merely for InFlight:
	// the warm-up Get(3) holds its front-end permit until after its reply
	// is written, so InFlight >= 1 alone can be satisfied before Get(7) is
	// admitted — and a Close started then sheds Get(7) instead of draining
	// it.
	select {
	case <-src.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the request to reach the source")
	}
	waitFor(t, "request in flight", func() bool {
		st, _ := inst.FrontendStats()
		return st.InFlight >= 1
	})

	closed := make(chan struct{})
	go func() {
		inst.Close()
		close(closed)
	}()
	waitFor(t, "drain to start", func() bool {
		st, _ := inst.FrontendStats()
		return st.Draining
	})

	// Mid-drain: /metrics still answers and shows the draining gauge up.
	if code, body := scrape(); code != http.StatusOK {
		t.Fatalf("/metrics during drain: status %d", code)
	} else if !strings.Contains(body, "ddstore_serve_draining 1") {
		t.Fatal("/metrics during drain missing ddstore_serve_draining 1")
	}

	// Mid-drain: new connections are admitted at the socket but every
	// request is refused with the overloaded status, so clients back off
	// instead of failing over.
	cl2, err := transport.Dial(inst.Addr())
	if err != nil {
		t.Fatalf("dial during drain: %v", err)
	}
	defer cl2.Close()
	if _, err := cl2.Get(3); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("get during drain: %v, want ErrOverloaded", err)
	}

	// The in-flight request completes once the source unblocks, and Close
	// then finishes.
	close(src.release)
	res := <-inflight
	if res.err != nil || res.g.ID != 7 {
		t.Fatalf("in-flight get = %v, %v; want sample 7", res.g, res.err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the drain finished")
	}
	st, ok := inst.FrontendStats()
	if !ok || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("front end not empty after Close: %+v", st)
	}
}

// TestFrontendShedsOverRate proves the wire-level shed path end to end:
// a tenant with a 1-token budget gets exactly one admit; the next request
// comes back as the distinguishable overloaded status and is counted.
func TestFrontendShedsOverRate(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	inst, err := Boot(Config{
		Source: ds, Lo: 0, Hi: 20, WriteTimeout: time.Second,
		Tenants: "tiny:rate=0.001,burst=1", FrontendWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	cl, err := transport.DialOptions(inst.Addr(), transport.ClientOptions{
		Tenant: "tiny",
		Policy: transport.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get(3); err != nil {
		t.Fatalf("budgeted get: %v", err)
	}
	if _, err := cl.Get(4); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("over-budget get: %v, want ErrOverloaded", err)
	}
	st, ok := inst.FrontendStats()
	if !ok {
		t.Fatal("no front end stats")
	}
	if st.ShedByReason["rate"] == 0 {
		t.Fatalf("no rate sheds recorded: %+v", st)
	}
	if st.AdmittedByClass[transport.ClassLookup] != 1 { // hello is not a data op
		t.Fatalf("admitted = %+v, want exactly one lookup", st.AdmittedByClass)
	}
}
