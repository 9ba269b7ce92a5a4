package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/graph"
)

// manifest is the part of BENCHMARK.json the tests hold the program to.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runTiny executes one short run and returns its exit code, result line
// and full record.
func runTiny(t *testing.T, o options) (int, result, report) {
	t.Helper()
	o.outDir = t.TempDir()
	var stdout, stderr bytes.Buffer
	code := execute(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result (%v):\n%s\n%s", o.workload, err, stdout.String(), stderr.String())
	}
	b, err := os.ReadFile(filepath.Join(o.outDir, o.workload+"-seed7-trace"+map[bool]string{false: "0", true: "1"}[o.trace]+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return code, res, rep
}

func checkNames(t *testing.T, where string, got metricSet, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", where, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", where, len(got), len(want))
	}
}

// A tiny traced run of every workload passes its checks and emits every
// metric BENCHMARK.json names, with its unit: the per-layer set on the
// result line, the end-to-end set and the wall-clock figures in the record.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		code, res, rep := runTiny(t, options{workload: w.Name, seed: 7, seconds: 0.5, trace: true})
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: exit %d, result %+v, problems %v", w.Name, code, res, rep.Problems)
		}
		checkNames(t, w.Name+" result line", res.Metrics, m.PerLayer)
		checkNames(t, w.Name+" record", rep.EndToEnd, m.EndToEnd)
		for _, set := range []metricSet{rep.EndToEnd, rep.WallClock} {
			for name, v := range set {
				if v.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, name, v.Value)
				}
			}
		}
		for _, name := range []string{"samples_per_s", "batch_p50_ms", "batch_p90_ms", "setup_wall_s"} {
			if _, ok := rep.WallClock[name]; !ok {
				t.Errorf("%s: wall-clock metric %s missing", w.Name, name)
			}
		}
		if rep.Host.GOMAXPROCS < 1 || rep.Host.GoVersion == "" || rep.Sizes.Samples == 0 {
			t.Errorf("%s: record lacks host fingerprint or sizes: %+v %+v", w.Name, rep.Host, rep.Sizes)
		}
		if _, err := os.Stat(rep.TraceFile); err != nil {
			t.Errorf("%s: chrome trace: %v", w.Name, err)
		}
	}
	code, res, _ := runTiny(t, options{workload: "fetch-hot", seed: 7, seconds: 0.5})
	if code != 0 || !res.Correct {
		t.Fatalf("untraced fetch-hot: exit %d, result %+v", code, res)
	}
	checkNames(t, "untraced result line", res.Metrics, m.EndToEnd)
}

// flipper corrupts one byte of the first delivery it picks, re-wrapping
// the bytes as a fresh lazy view.
type flipper struct {
	inner  lazyLoader
	pick   func(id int64) bool
	offset func(raw []byte) int
	done   atomic.Bool
}

func (f *flipper) LoadLazy(ids []int64) ([]*graph.Lazy, []time.Duration, error) {
	lzs, lats, err := f.inner.LoadLazy(ids)
	if err != nil {
		return lzs, lats, err
	}
	for i, lz := range lzs {
		if !f.pick(ids[i]) || !f.done.CompareAndSwap(false, true) {
			continue
		}
		raw := lz.AppendTo(nil)
		lz.Release()
		raw[f.offset(raw)] ^= 0x01
		bad, err := graph.DecodeLazy(raw, nil)
		if err != nil {
			return nil, nil, err
		}
		lzs[i] = bad
	}
	return lzs, lats, nil
}

// One flipped byte in one delivery fails the run: in the id field it
// fails the id check; in the payload of a sample from the byte-checked
// subset it fails the byte-for-byte comparison.
func TestCorruptDeliveryFailsCheck(t *testing.T) {
	const seed = 7
	subset := checkPhase(seed)
	cases := []struct {
		name   string
		pick   func(int64) bool
		offset func([]byte) int
		want   string
	}{
		{"id", func(int64) bool { return true }, func([]byte) int { return 4 }, "delivered sample"},
		{"payload", func(id int64) bool { return uint64(id)%checkEvery == subset },
			func(raw []byte) int { return len(raw) - 1 }, "differ"},
	}
	for _, tc := range cases {
		for _, wl := range []string{"fetch-hot", "train"} {
			o := options{workload: wl, seed: seed, seconds: 0.5, wrap: func(in lazyLoader) lazyLoader {
				return &flipper{inner: in, pick: tc.pick, offset: tc.offset}
			}}
			code, res, rep := runTiny(t, o)
			if code == 0 || res.Correct {
				t.Errorf("%s/%s: corrupted run exited %d with correct=%v", tc.name, wl, code, res.Correct)
			}
			if len(rep.Problems) == 0 || !strings.Contains(strings.Join(rep.Problems, "; "), tc.want) {
				t.Errorf("%s/%s: problems %v, want one mentioning %q", tc.name, wl, rep.Problems, tc.want)
			}
		}
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "train", "--trace", "2"},
		{"--workload", "train", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
