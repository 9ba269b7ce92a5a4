package transport_test

import (
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/transport"
)

// TestGroupTracedLoadNestsServerSpans is the acceptance scenario: one
// traced batch against a live two-owner cluster yields a merged trace —
// per-owner fetch spans carrying the batch's trace id, with the servers'
// timing trailers synthesized as "server" category spans nested inside
// them, tagged with tenant, shard, and generation.
func TestGroupTracedLoadNestsServerSpans(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 40})
	s1, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 20, 40))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	ring := obs.NewSpanRing(256, 0)
	grp, err := transport.NewGroupReplicas([][]string{{s1.Addr(), s2.Addr()}}, transport.GroupOptions{
		Client: transport.ClientOptions{Tracing: true, Tenant: "trainer"},
		Spans:  ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()

	tc := tracectx.New(true)
	ids := []int64{3, 17, 23, 38} // two on each owner
	lazies, _, err := grp.LoadLazyTraced(ids, tc)
	if err != nil {
		t.Fatal(err)
	}
	for i, lz := range lazies {
		if g := lz.Graph(); g.ID != ids[i] {
			t.Fatalf("sample %d came back as %d", ids[i], g.ID)
		}
	}

	fetchByID := map[uint64]obs.Span{} // per-owner fetch spans by span id
	var servers []obs.Span
	for _, s := range ring.Spans() {
		switch {
		case s.Name == "fetch-owner":
			fetchByID[s.SpanID] = s
		case s.Cat == "server":
			servers = append(servers, s)
		}
	}
	if len(fetchByID) != 2 {
		t.Fatalf("got %d traced fetch-owner spans, want 2 (one per owner)", len(fetchByID))
	}
	var requests, segments int
	for _, s := range servers {
		if s.TraceID == 0 {
			t.Fatalf("server span %q carries no trace id", s.Name)
		}
		if s.Name != "server-request" {
			segments++
			continue
		}
		requests++
		// Nested under the owner fetch that issued the wire request, which
		// is itself a child of the batch's root context.
		parent, ok := fetchByID[s.ParentID]
		if !ok {
			t.Fatalf("server-request parent %016x is not a fetch-owner span", s.ParentID)
		}
		if parent.TraceID != tc.TraceID || parent.ParentID != tc.SpanID {
			t.Fatalf("fetch-owner span ids = trace %016x parent %016x, want trace %016x parent %016x",
				parent.TraceID, parent.ParentID, tc.TraceID, tc.SpanID)
		}
		if s.Tenant != "trainer" {
			t.Errorf("server-request tenant %q, want trainer", s.Tenant)
		}
		if s.Gen == 0 {
			t.Error("server-request span has no shard map generation")
		}
		if s.Dur <= 0 || s.Bytes <= 0 {
			t.Errorf("server-request span window = %+v", s)
		}
		if s.Start < parent.Start || s.Start+s.Dur > parent.Start+parent.Dur {
			t.Errorf("server window [%v,+%v] escapes client window [%v,+%v]",
				s.Start, s.Dur, parent.Start, parent.Dur)
		}
	}
	if requests != 2 {
		t.Fatalf("got %d server-request spans, want 2 (one per owner)", requests)
	}
	if segments == 0 {
		t.Fatal("no server-queue-wait/server-chunk-source segments recorded")
	}
}

// TestPlaneLoaderTracedBatch pins the DDP seam: a PlaneLoader with Trace
// set mints one sampled root context per batch and records the client-side
// root span; the per-owner fetch span is its child and the server spans
// are the fetch span's children, all under the root's trace id.
func TestPlaneLoaderTracedBatch(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ring := obs.NewSpanRing(64, 0)
	grp, err := transport.NewGroupReplicas([][]string{{srv.Addr()}}, transport.GroupOptions{
		Client: transport.ClientOptions{Tracing: true},
		Spans:  ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()

	loader := &ddp.PlaneLoader{Plane: grp, Trace: true, Spans: ring}
	ids := []int64{2, 5, 11, 5}
	gs, lats, err := loader.LoadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != len(ids) || len(lats) != len(ids) {
		t.Fatalf("got %d graphs, %d latencies for %d ids", len(gs), len(lats), len(ids))
	}
	for i, g := range gs {
		if g.ID != ids[i] {
			t.Fatalf("position %d: sample %d, want %d", i, g.ID, ids[i])
		}
	}
	if gs[1] != gs[3] {
		t.Fatal("duplicate ids did not share one graph")
	}

	var root, fetch *obs.Span
	var servers []obs.Span
	for _, s := range ring.Spans() {
		s := s
		switch {
		case s.Name == "load-batch":
			root = &s
		case s.Name == "fetch-owner":
			fetch = &s
		case s.Cat == "server":
			servers = append(servers, s)
		}
	}
	if root == nil || root.TraceID == 0 || root.SpanID == 0 {
		t.Fatalf("no traced load-batch root span: %+v", root)
	}
	if fetch == nil || fetch.TraceID != root.TraceID || fetch.ParentID != root.SpanID {
		t.Fatalf("fetch-owner span %+v is not a child of root %+v", fetch, root)
	}
	if len(servers) == 0 {
		t.Fatal("traced batch produced no server spans")
	}
	for _, s := range servers {
		if s.TraceID != root.TraceID {
			t.Fatalf("server span trace %016x != root trace %016x", s.TraceID, root.TraceID)
		}
		if s.Name == "server-request" && s.ParentID != fetch.SpanID {
			t.Fatalf("server-request parent %016x, want fetch-owner %016x", s.ParentID, fetch.SpanID)
		}
	}
}
