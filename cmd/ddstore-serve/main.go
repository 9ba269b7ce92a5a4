// Command ddstore-serve exposes a dataset over the TCP data plane, so
// DDStore chunks can be fetched between real processes — one server per
// node, for example. Every server is a cluster of one or more owners
// routing through a versioned shard map: a plain -lo/-hi server is one
// owner whose map stays at generation 1, and -elastic N boots N owners
// that the debug endpoint's /admin/reshard can grow or shrink while
// clients keep loading. Peers connect with transport.NewGroup /
// transport.NewElasticGroup (or any client speaking the simple
// length-prefixed protocol in internal/transport). The assembly itself
// lives in internal/serveboot so tests and the load-generator harness can
// boot the same server in-process on a loopback port.
//
// Usage:
//
//	# terminal 1-3: serve thirds of a CFF dataset
//	ddstore-serve -cff /tmp/aisd -lo 0     -hi 33000 -addr 127.0.0.1:7001
//	ddstore-serve -cff /tmp/aisd -lo 33000 -hi 66000 -addr 127.0.0.1:7002
//	ddstore-serve -cff /tmp/aisd -lo 66000 -hi 99000 -addr 127.0.0.1:7003
//
//	# or serve a synthetic dataset directly, no files needed
//	ddstore-serve -dataset homolumo -n 10000 -lo 0 -hi 5000 -addr 127.0.0.1:7001
//
//	# or two owners behind a live shard map, reshardable at runtime
//	ddstore-serve -elastic 2 -dataset homolumo -n 10000 \
//	    -elastic-addrs 127.0.0.1:7001,127.0.0.1:7002 -debug-addr 127.0.0.1:7901
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ddstore/internal/faultnet"
	"ddstore/internal/serveboot"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7001", "listen address (without -elastic)")
		cffDir = flag.String("cff", "", "serve from a CFF directory")
		pffDir = flag.String("pff", "", "serve from a PFF directory")
		dsName = flag.String("dataset", "", "serve a synthetic dataset: ising, homolumo, discrete, smooth")
		n      = flag.Int("n", 10000, "synthetic dataset size")
		bins   = flag.Int("bins", 0, "smooth-spectrum grid size")
		lo     = flag.Int64("lo", 0, "first sample id served (inclusive)")
		hi     = flag.Int64("hi", -1, "last sample id served (exclusive; -1 = dataset end)")

		// Owner count: every server routes through a live shard map, and
		// owners can be added/removed at runtime via the debug endpoint's
		// /admin/reshard.
		elasticN     = flag.Int("elastic", 0, "boot this many owners, listening on -elastic-addrs (0 = one owner on -addr)")
		elasticAddrs = flag.String("elastic-addrs", "", "comma-separated listen addresses for the -elastic owners (empty = ephemeral loopback ports)")
		width        = flag.Int("width", 0, "per-shard replica width the resharding planner maintains (0 = 1)")

		writeTimeout = flag.Duration("write-timeout", 5*time.Second, "per-response write deadline (0 = none)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty = disabled)")

		// Front-end flags enable multi-tenant admission control: per-tenant
		// budgets, priority queues, load shedding, and graceful drain.
		tenants      = flag.String("tenants", "", `per-tenant budgets, e.g. "alpha:rate=500,burst=50,conns=8;*:rate=100" (setting any front-end flag enables admission control)`)
		maxConns     = flag.Int("max-conns", 0, "cap concurrent client connections (0 = unlimited)")
		queueDepth   = flag.Int("queue-depth", 0, "bound each priority-class request queue (0 = default)")
		feWorkers    = flag.Int("frontend-workers", 0, "request worker permits draining the queues (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful-drain bound on shutdown")

		// Flight-recorder flags tune the always-on ring of anomalous
		// requests (slow/errored/shed/stale) served at /debug/flightrecorder.
		flightCap  = flag.Int("flightrec", 0, "flight recorder ring capacity (0 = default 256, negative = disabled)")
		slowThresh = flag.Duration("slow-threshold", 0, "flight-record successful requests slower than this (0 = default 250ms, negative = disabled)")
		flightDir  = flag.String("flightrec-dir", "", "snapshot the flight recorder here when shed/stale rates spike (empty = no snapshots)")

		// Cache flags switch from eager preload to lazy on-demand serving
		// through a byte-budgeted hot-sample cache.
		cacheBytes = flag.Int64("cache-bytes", 0, "serve lazily through a cache of this many bytes instead of preloading the range (0 = preload)")
		cachePol   = flag.String("cache-policy", "lru", "cache eviction policy: lru, fifo, clock")

		// Chaos flags wrap the listener in a faultnet injector, turning the
		// server into a misbehaving peer for resilience drills.
		chaosSeed      = flag.Int64("chaos-seed", 1, "fault injection RNG seed")
		chaosReset     = flag.Float64("chaos-reset", 0, "probability of a connection reset per I/O op")
		chaosStallProb = flag.Float64("chaos-stall-prob", 0, "probability of a stall per I/O op")
		chaosStall     = flag.Duration("chaos-stall", 200*time.Millisecond, "stall duration when injected")
		chaosCorrupt   = flag.Float64("chaos-corrupt", 0, "probability of flipping a byte per write")
		chaosSlowStart = flag.Duration("chaos-slow-start", 0, "extra latency on each connection's first op")
	)
	flag.Parse()

	chaotic := *chaosReset > 0 || *chaosStallProb > 0 || *chaosCorrupt > 0 || *chaosSlowStart > 0
	var chaos *faultnet.Scenario
	if chaotic {
		chaos = &faultnet.Scenario{
			Seed:      *chaosSeed,
			ResetProb: *chaosReset,
			StallProb: *chaosStallProb, StallFor: *chaosStall,
			CorruptProb: *chaosCorrupt,
			SlowStart:   *chaosSlowStart,
		}
	}

	owners := 1
	addrs := []string{*addr}
	if *elasticN > 0 {
		owners, addrs = *elasticN, nil
		if *elasticAddrs != "" {
			for _, a := range strings.Split(*elasticAddrs, ",") {
				addrs = append(addrs, strings.TrimSpace(a)) // "" = ephemeral port
			}
		}
	}
	c, err := serveboot.Boot(serveboot.Config{
		Addrs:        addrs,
		CFFDir:       *cffDir,
		PFFDir:       *pffDir,
		Dataset:      *dsName,
		N:            *n,
		Bins:         *bins,
		Lo:           *lo,
		Hi:           *hi,
		Owners:       owners,
		Width:        *width,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
		CacheBytes:   *cacheBytes,
		CachePolicy:  *cachePol,
		DebugAddr:    *debugAddr,

		Tenants:         *tenants,
		MaxConns:        *maxConns,
		QueueDepth:      *queueDepth,
		FrontendWorkers: *feWorkers,
		DrainTimeout:    *drainTimeout,

		Chaos:         chaos,
		FlightRecCap:  *flightCap,
		SlowThreshold: *slowThresh,
		FlightRecDir:  *flightDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-serve: %v\n", err)
		os.Exit(2)
	}
	srvLo, srvHi := c.Range()
	fmt.Printf("serving samples [%d,%d) with %d owner(s) at generation %d (ctrl-c to stop)\n",
		srvLo, srvHi, c.OwnerCount(), c.Generation())
	for _, id := range c.OwnerIDs() {
		fmt.Printf("  %s on %s\n", id, c.Owner(id).Addr())
	}
	if dbg := c.DebugAddr(); dbg != "" {
		fmt.Printf("debug server on http://%s (/metrics, /healthz, /readyz, /debug/flightrecorder, /debug/pprof/, /admin/reshard?owners=N)\n", dbg)
	}
	if pol := c.CachePolicy(); pol != "" {
		fmt.Printf("lazy mode: %s cache, %d byte budget per owner\n", pol, *cacheBytes)
	}
	if _, ok := c.FrontendStats(); ok {
		fmt.Printf("front end: tenants=%q max-conns=%d queue-depth=%d workers=%d drain-timeout=%s\n",
			*tenants, *maxConns, *queueDepth, *feWorkers, *drainTimeout)
	}
	if chaotic {
		fmt.Printf("chaos mode: seed=%d reset=%g stall=%g/%s corrupt=%g slow-start=%s\n",
			*chaosSeed, *chaosReset, *chaosStallProb, *chaosStall, *chaosCorrupt, *chaosSlowStart)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	gen, nOwners := c.Generation(), c.OwnerCount()
	c.Close()
	if st, ok := c.FrontendStats(); ok {
		fmt.Printf("\nfront end: %d lookup + %d bulk admitted, %d shed %v\n",
			st.AdmittedByClass[0], st.AdmittedByClass[1], st.Shed, st.ShedByReason)
	}
	if st, ok := c.FaultStats(); ok {
		fmt.Printf("\ninjected faults: %+v\n", st)
	}
	if st, ok := c.CacheStats(); ok {
		fmt.Printf("\ncache: %.1f%% hit rate, %d hits, %d misses, %d evictions, %d coalesced, %d entries / %d B resident\n",
			100*st.HitRate(), st.Hits, st.Misses, st.Evictions, st.Coalesced, st.Entries, st.Bytes)
	}
	fmt.Printf("shut down at generation %d with %d owner(s)\n", gen, nOwners)
}
