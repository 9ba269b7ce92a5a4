package bufarena

import (
	"sync"
	"testing"
)

func TestGetSizesAndRefs(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 1 << 20, 1<<20 + 1} {
		b := Get(n)
		if b.Len() != n {
			t.Fatalf("Get(%d).Len() = %d", n, b.Len())
		}
		if got := len(b.Bytes()); got != n {
			t.Fatalf("Get(%d) Bytes len = %d", n, got)
		}
		if b.Refs() != 1 {
			t.Fatalf("fresh buffer has %d refs, want 1", b.Refs())
		}
		b.Release()
	}
}

func TestGetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get(-1) did not panic")
		}
	}()
	Get(-1)
}

func TestRetainReleaseCounting(t *testing.T) {
	b := Get(64)
	b.Retain()
	b.Retain()
	if b.Refs() != 3 {
		t.Fatalf("refs = %d, want 3", b.Refs())
	}
	b.Release()
	b.Release()
	if b.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", b.Refs())
	}
	b.Release()
	if b.Refs() != 0 {
		t.Fatalf("refs = %d after final release, want 0", b.Refs())
	}
}

// TestPoisonOnFinalRelease is the mutate-after-release canary: the final
// Release overwrites the payload, so any consumer still reading a released
// buffer sees poison, not stale-but-plausible data.
func TestPoisonOnFinalRelease(t *testing.T) {
	b := Get(128)
	data := b.Bytes()
	for i := range data {
		data[i] = byte(i)
	}
	b.Release()
	for i, v := range data {
		if v != Poison {
			t.Fatalf("byte %d = %#x after final release, want poison %#x", i, v, Poison)
		}
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterFinalReleasePanics(t *testing.T) {
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final Release did not panic")
		}
	}()
	b.Retain()
}

func TestNilSafe(t *testing.T) {
	var b *Buf
	b.Retain()
	b.Release()
	if b.Len() != 0 || b.Bytes() != nil || b.Refs() != 0 {
		t.Fatal("nil Buf accessors not zero-valued")
	}
}

func TestRecycling(t *testing.T) {
	// A released pooled buffer should come back from the pool. sync.Pool
	// gives no hard guarantee, so assert on the stats counters instead of
	// pointer identity: after warming the class, recycles must rise.
	gets0, _, recycles0 := Stats()
	for i := 0; i < 64; i++ {
		b := Get(512)
		b.Release()
	}
	gets1, _, recycles1 := Stats()
	if gets1-gets0 != 64 {
		t.Fatalf("gets rose by %d, want 64", gets1-gets0)
	}
	if recycles1 <= recycles0 {
		t.Fatalf("no recycles after 64 get/release rounds (before %d, after %d)", recycles0, recycles1)
	}
}

func TestOversizeUnpooled(t *testing.T) {
	b := Get(1<<20 + 1)
	if b.class >= 0 {
		t.Fatalf("oversize buffer got pool class %d, want unpooled", b.class)
	}
	b.Release() // must not panic, must not pool
}

func TestConcurrentRetainRelease(t *testing.T) {
	const workers = 8
	b := Get(256)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		b.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Retain()
				_ = b.Bytes()[0]
				b.Release()
			}
			b.Release()
		}()
	}
	wg.Wait()
	if b.Refs() != 1 {
		t.Fatalf("refs = %d after workers, want 1", b.Refs())
	}
	b.Release()
}

// TestPoisonCoversEveryLength checks the doubling poison fill at lengths
// that are not powers of two: every byte of the [:n] payload is poisoned
// and the class capacity past n is left as it was.
func TestPoisonCoversEveryLength(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 255, 257, 1000, 23 << 10} {
		b := Get(n)
		full := b.data[:cap(b.data)]
		for i := range full {
			full[i] = 0x11
		}
		b.Release()
		for i, v := range full {
			want := byte(0x11)
			if i < n {
				want = Poison
			}
			if v != want {
				t.Fatalf("n=%d: byte %d = %#x after final release, want %#x", n, i, v, want)
			}
		}
	}
}

// BenchmarkRelease times Get plus a final Release of a 32 KiB-class buffer
// (about the size of a 16-sample reply), i.e. the pool round trip and the
// poison fill.
func BenchmarkRelease(b *testing.B) {
	const n = 23 << 10
	b.SetBytes(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Get(n).Release()
	}
}
