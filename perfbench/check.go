package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
)

// lazyLoader is the data-plane call every workload drives;
// *transport.Group implements it.
type lazyLoader interface {
	LoadLazy(ids []int64) ([]*graph.Lazy, []time.Duration, error)
}

// checkEvery is the stride of the byte-for-byte subset: one id in
// checkEvery is compared against a fresh encoding of the dataset sample.
const checkEvery = 64

// checker verifies deliveries. Every sample's id must equal the requested
// id; the samples whose id falls in a seed-chosen 1-in-64 residue class
// must re-encode byte for byte to the dataset's own encoding. The
// reference encodings are computed before any timing starts.
type checker struct {
	phase uint64
	ref   map[int64][]byte

	mu       sync.Mutex
	problems []string
	dropped  int
}

// newChecker precomputes the reference encodings of the checked subset of
// ds's n samples.
func newChecker(ds *datasets.Dataset, n int64, seed uint64) (*checker, error) {
	c := &checker{phase: checkPhase(seed), ref: make(map[int64][]byte)}
	for id := int64(c.phase); id < n; id += checkEvery {
		g, err := ds.Sample(id)
		if err != nil {
			return nil, fmt.Errorf("reference sample %d: %w", id, err)
		}
		c.ref[id] = g.Encode()
	}
	return c, nil
}

// checkPhase is the residue, modulo checkEvery, of the ids a run checks
// byte for byte.
func checkPhase(seed uint64) uint64 { return mix(seed, 0xc4ec) % checkEvery }

// sample checks one materialized delivery for requested id want.
func (c *checker) sample(want int64, g *graph.Graph) {
	if g == nil {
		c.fail("sample %d: nil delivery", want)
		return
	}
	if g.ID != want {
		c.fail("requested sample %d, delivered sample %d", want, g.ID)
		return
	}
	if ref, ok := c.ref[want]; ok && !bytes.Equal(g.Encode(), ref) {
		c.fail("sample %d: delivered bytes differ from the dataset's encoding", want)
	}
}

// fail records a problem; only the first few are kept verbatim.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
		return
	}
	c.dropped++
}

func (c *checker) result() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.problems...)
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more", c.dropped))
	}
	return out
}

// mix derives an independent 64-bit stream value from seed and a salt
// (splitmix64 finalizer), so each id stream of a run depends on the seed
// alone.
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
