package serveboot

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/faultnet"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/transport"
)

// fastNet is a retry policy tuned for loopback tests.
func fastNet() transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		DialTimeout: time.Second, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second,
		Seed: 1,
	}
}

func bootTestCluster(t *testing.T, owners, n int, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Source: datasets.HomoLumo(datasets.Config{NumGraphs: n}),
		Owners: owners,
		Net:    fastNet(),
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func elasticGroup(t *testing.T, c *Cluster) *transport.Group {
	t.Helper()
	g, err := transport.NewElasticGroup(c.Addrs(), transport.GroupOptions{
		Client: transport.ClientOptions{Policy: fastNet()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// loadAll loads every sample through the group and checks identity.
func loadAll(t *testing.T, g *transport.Group, n int64) {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	gs, err := g.Load(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, gr := range gs {
		if gr == nil || gr.ID != int64(i) {
			t.Fatalf("sample %d came back wrong (%v)", i, gr)
		}
	}
}

func TestBootClusterServesAllSamples(t *testing.T) {
	c := bootTestCluster(t, 2, 200, nil)
	if got := c.OwnerCount(); got != 2 {
		t.Fatalf("owner count %d, want 2", got)
	}
	if got := c.Generation(); got != 1 {
		t.Fatalf("generation %d, want 1", got)
	}
	// The whole keyspace is resident exactly once across the owners
	// (width 1).
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 200 {
		t.Fatalf("%d samples resident across owners, want 200", total)
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 200)
}

func TestAddOwnerMovesMinimalDataAndRebalances(t *testing.T) {
	c := bootTestCluster(t, 2, 240, nil)
	id, err := c.AddOwner()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("generation after join = %d, want 2", got)
	}
	newOwner := c.Owner(id)
	if newOwner == nil || newOwner.Resident() == 0 {
		t.Fatalf("joined owner holds no data")
	}
	// Balance: every owner within one shard (240/16 shards = 15 samples
	// per shard) of the mean.
	for _, oid := range c.OwnerIDs() {
		r := c.Owner(oid).Resident()
		if r < 240/3-15 || r > 240/3+15 {
			t.Fatalf("owner %s holds %d samples after rebalance to 3 owners", oid, r)
		}
	}
	// The moved volume was metered.
	reg := c.Registry()
	snap := metricValue(t, reg, obs.MetricShardMapChunksMoved)
	if snap <= 0 {
		t.Fatalf("chunks-moved counter %v after a join", snap)
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 240)
}

// metricValue reads one unlabeled series out of a registry snapshot via
// the Prometheus text exposition.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	return -1
}

func TestRemoveOwnerHandsOffBeforeShutdown(t *testing.T) {
	c := bootTestCluster(t, 3, 150, nil)
	victim := c.OwnerIDs()[2]
	if err := c.RemoveOwner(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.OwnerCount(); got != 2 {
		t.Fatalf("owner count %d after remove, want 2", got)
	}
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 150 {
		t.Fatalf("%d samples resident after remove, want 150", total)
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 150)

	if err := c.RemoveOwner("owner-99"); err == nil {
		t.Fatal("removing an unknown owner succeeded")
	}
}

func TestLiveReshardUnderLoadZeroHardErrors(t *testing.T) {
	reshardUnderLoad(t, bootTestCluster(t, 2, 300, nil), 300)
}

// TestLazyLiveReshardUnderLoadZeroHardErrors runs the drill on lazy
// owners: a joining owner pulls nothing and serves its new shards from
// the durable source through its cache.
func TestLazyLiveReshardUnderLoadZeroHardErrors(t *testing.T) {
	c := bootTestCluster(t, 2, 300, func(cfg *Config) { cfg.CacheBytes = 1 << 20 })
	reshardUnderLoad(t, c, 300)
	if st, ok := c.CacheStats(); !ok || st.Misses == 0 {
		t.Fatalf("lazy owners never filled their caches: %+v, %v", st, ok)
	}
}

// reshardUnderLoad is the acceptance drill: a 2-owner cluster rebalances
// to 3 while clients hammer it. Every load must succeed — stale-generation
// refreshes and failovers are fine, hard errors are not. The first hard
// error is kept with its ids and the client's generation, and a failure
// dumps the cluster flight recorder, so a rare failure explains itself.
func reshardUnderLoad(t *testing.T, c *Cluster, n int64) {
	t.Helper()
	g := elasticGroup(t, c)
	loadAll(t, g, n) // warm bootstrap

	var hardErrs atomic.Int64
	var loads atomic.Int64
	var firstOnce sync.Once
	var first string
	hardErr := func(ids []int64, err error) {
		hardErrs.Add(1)
		gen := g.Generation()
		firstOnce.Do(func() { first = fmt.Sprintf("%v (ids %v, client generation %d)", err, ids, gen) })
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := make([]int64, 8)
				for i := range ids {
					ids[i] = rng.Int63n(n)
				}
				gs, err := g.Load(ids)
				if err != nil {
					hardErr(ids, err)
					continue
				}
				for i := range gs {
					if gs[i] == nil || gs[i].ID != ids[i] {
						hardErr(ids, fmt.Errorf("slot %d came back as %v", i, gs[i]))
					}
				}
				loads.Add(1)
			}
		}(w)
	}
	// Let traffic flow, rebalance live, keep traffic flowing after.
	time.Sleep(50 * time.Millisecond)
	if err := c.Reshard(3); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if he := hardErrs.Load(); he != 0 {
		if rec := c.FlightRecorder(); rec != nil {
			for _, r := range rec.Records() {
				b, _ := json.Marshal(r)
				t.Logf("flight record: %s", b)
			}
		}
		t.Fatalf("%d hard errors during live reshard (loads=%d); first: %s; cluster generation %d, client generation %d",
			he, loads.Load(), first, c.Generation(), g.Generation())
	}
	if loads.Load() == 0 {
		t.Fatal("no loads completed")
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("generation after reshard = %d, want 2", got)
	}
	if got := c.OwnerCount(); got != 3 {
		t.Fatalf("owner count %d, want 3", got)
	}
	// The group refreshed to the published generation.
	loadAll(t, g, n)
	if got := g.Generation(); got != 2 {
		t.Fatalf("client generation %d after reshard traffic, want 2", got)
	}
}

func TestCrashOwnerHealsFromDurableSource(t *testing.T) {
	// Width-1 cluster: a crash orphans the dead owner's shards (no
	// surviving replica), so healing must re-read them from the backing
	// source. Nothing is lost and clients keep loading.
	c := bootTestCluster(t, 3, 150, nil)
	g := elasticGroup(t, c)
	loadAll(t, g, 150)

	victim := c.OwnerIDs()[1]
	if err := c.CrashOwner(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.OwnerCount(); got != 2 {
		t.Fatalf("owner count %d after crash, want 2", got)
	}
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 150 {
		t.Fatalf("%d samples resident after crash heal, want 150", total)
	}
	loadAll(t, g, 150)
	if got := g.Generation(); got != 2 {
		t.Fatalf("client generation %d after crash heal, want 2", got)
	}
}

func TestCrashWithReplicasPromotesWithoutSourceReads(t *testing.T) {
	// Width-2: every shard has a surviving replica, so a crash heals by
	// promotion plus replica top-up pulls — the durable source is never
	// needed for the promoted primaries.
	src := &countingSource{SampleSource: datasets.HomoLumo(datasets.Config{NumGraphs: 120})}
	c := bootTestCluster(t, 3, 120, func(cfg *Config) {
		cfg.Source = src
		cfg.Width = 2
	})
	g := elasticGroup(t, c)
	loadAll(t, g, 120)
	preloadReads := src.reads.Load()

	victim := c.OwnerIDs()[0]
	if err := c.CrashOwner(victim); err != nil {
		t.Fatal(err)
	}
	loadAll(t, g, 120)
	// Top-up pulls come from surviving replicas over the wire; the
	// source sees no new reads.
	if got := src.reads.Load(); got != preloadReads {
		t.Fatalf("crash heal read %d samples from the durable source, want 0", got-preloadReads)
	}
}

// countingSource counts ReadSample calls through to the wrapped source.
type countingSource struct {
	SampleSource
	reads atomic.Int64
}

func (s *countingSource) ReadSample(id int64) (*graph.Graph, error) {
	s.reads.Add(1)
	return s.SampleSource.ReadSample(id)
}

func TestMidMigrationCrashDegradesToRetryAndSource(t *testing.T) {
	// Chaos drill: every owner listener resets connections now and then,
	// so migration pulls fail mid-stream and must retry or fall back to
	// the durable source — the transition still converges and clients
	// still see every sample.
	c := bootTestCluster(t, 2, 200, func(cfg *Config) {
		cfg.Chaos = &faultnet.Scenario{Seed: 7, ResetProb: 0.02}
	})
	if _, err := c.AddOwner(); err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("generation after chaotic join = %d, want 2", got)
	}
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 200 {
		t.Fatalf("%d samples resident after chaotic migration, want 200", total)
	}
	// Resets are retry-recoverable, not hard errors: a patient client (a
	// deeper retry budget, and small batches so each response risks few
	// reset draws) still sees every sample through the chaotic fabric.
	pol := fastNet()
	pol.MaxAttempts = 8
	g, err := transport.NewElasticGroup(c.Addrs(), transport.GroupOptions{
		Client:   transport.ClientOptions{Policy: pol},
		MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	loadAll(t, g, 200)
}

func TestAdminReshardEndpointAndMetrics(t *testing.T) {
	c := bootTestCluster(t, 2, 100, func(cfg *Config) {
		cfg.DebugAddr = "127.0.0.1:0"
	})
	if c.DebugAddr() == "" {
		t.Fatal("no debug endpoint")
	}
	resp, err := http.Get("http://" + c.DebugAddr() + "/admin/reshard?owners=3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reshard endpoint: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Generation uint64   `json:"generation"`
		Owners     []string `json:"owners"`
		Addrs      []string `json:"addrs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != 2 || len(out.Owners) != 3 || len(out.Addrs) != 3 {
		t.Fatalf("reshard response %+v", out)
	}

	// /metrics exposes the generation gauge at the published value.
	mresp, err := http.Get(c.MetricsURL())
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), obs.MetricShardMapGeneration+" 2") {
		t.Fatalf("/metrics missing %s 2:\n%s", obs.MetricShardMapGeneration, firstLines(string(mbody), 40))
	}

	// Bad requests are rejected.
	bad, err := http.Get("http://" + c.DebugAddr() + "/admin/reshard?owners=0")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("owners=0 answered %d, want 400", bad.StatusCode)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func TestClusterGenerationIsMonotonic(t *testing.T) {
	c := bootTestCluster(t, 2, 120, nil)
	want := uint64(1)
	for _, target := range []int{3, 4, 2, 3} {
		if err := c.Reshard(target); err != nil {
			t.Fatalf("reshard to %d: %v", target, err)
		}
		if c.Generation() <= want {
			t.Fatalf("generation %d did not advance past %d on reshard to %d", c.Generation(), want, target)
		}
		want = c.Generation()
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 120)
}

// TestElasticGroupBootstrapsFromStaticServer: a -lo/-hi server is a
// one-owner cluster, so it serves its generation-1 shard map and a
// map-following client can join it like any other cluster.
func TestElasticGroupBootstrapsFromStaticServer(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 40})
	inst, err := Boot(Config{Source: ds, Lo: 10, Hi: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	g, err := transport.NewElasticGroup([]string{inst.Addr()}, transport.GroupOptions{
		Client: transport.ClientOptions{Policy: fastNet()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if lo, hi := g.Range(); lo != 10 || hi != 30 || g.Generation() != 1 || g.Replicas() != 1 {
		t.Fatalf("group sees [%d,%d) gen %d width %d, want [10,30) gen 1 width 1",
			lo, hi, g.Generation(), g.Replicas())
	}
	ids := []int64{29, 10, 17, 17}
	gs, err := g.Load(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if gs[i].ID != id {
			t.Fatalf("slot %d: got sample %d, want %d", i, gs[i].ID, id)
		}
	}
	if _, err := g.Load([]int64{30}); err == nil {
		t.Fatal("load past the keyspace succeeded")
	}
}

// TestOutOfKeyspaceIsRangeErrorNotStale pins the ownership rule: an id
// inside the keyspace that an owner does not hold gets a stale-generation
// answer (refresh and retry), while an id outside the keyspace gets a
// plain range error from every owner, on single and batched ops alike —
// no generation can route it anywhere.
func TestOutOfKeyspaceIsRangeErrorNotStale(t *testing.T) {
	c := bootTestCluster(t, 2, 100, nil)
	cl, err := transport.Dial(c.Owner(c.OwnerIDs()[0]).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.GetBatchRaw([]int64{99}); !errors.Is(err, transport.ErrStaleGeneration) {
		t.Fatalf("batch get of the other owner's sample: %v, want ErrStaleGeneration", err)
	}
	for _, id := range []int64{100, 1 << 40} {
		if _, err := cl.GetBatchRaw([]int64{0, id}); err == nil || errors.Is(err, transport.ErrStaleGeneration) {
			t.Fatalf("batch get of %d outside the keyspace: %v, want a range error", id, err)
		}
		if _, err := cl.Get(id); err == nil || errors.Is(err, transport.ErrStaleGeneration) {
			t.Fatalf("get of %d outside the keyspace: %v, want a range error", id, err)
		}
	}
	if g, err := cl.Get(0); err != nil || g.ID != 0 {
		t.Fatalf("connection unusable after range errors: %v, %v", g, err)
	}
}

// TestGroupReplicasIsMinShardWidth: a static group freezes one owner per
// replica into every shard and an elastic group reads the planner's
// width, so both report replicas as the minimum shard width.
func TestGroupReplicasIsMinShardWidth(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 60})
	var replicas [][]string
	for r := 0; r < 2; r++ {
		inst, err := Boot(Config{Source: ds})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		replicas = append(replicas, []string{inst.Addr()})
	}
	static, err := transport.NewGroupReplicas(replicas, transport.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	if got := static.Replicas(); got != 2 {
		t.Fatalf("2-replica static group reports %d replicas", got)
	}

	c := bootTestCluster(t, 3, 60, func(cfg *Config) { cfg.Width = 2 })
	if got := elasticGroup(t, c).Replicas(); got != 2 {
		t.Fatalf("width-2 elastic group reports %d replicas", got)
	}
}
