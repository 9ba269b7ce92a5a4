// Command perfbench is the repository's benchmark. It boots a DDStore
// cluster in-process through serveboot, drives it over loopback TCP from
// one process, checks every delivered sample, and prints one metric per
// line followed by a JSON result line.
//
// Workloads (see README.md for why each exists):
//
//	train       2-rank DDP HydraGNN training over a preloaded elastic cluster
//	fetch-hot   closed-loop batch fetches; the owners' caches hold everything
//	fetch-cold  the same fetches; the working set is ~35x the owners' caches
//
// Usage:
//
//	go run . --workload fetch-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result line carries the end-to-end metrics, measured
// with tracing off: process CPU time per sample, peak heap, and set-up CPU
// time. The wall-clock figures (samples per second, batch latency) are
// printed too but not gated; on a shared host their spread is too wide.
// With --trace 1 the result line carries the per-layer metrics: the
// counters of the same untraced run plus a separate traced pass and direct
// calls into the model and the collective. Every run also writes its full
// record (host fingerprint, seed, workload sizes, every metric and window)
// under --out, and a traced run writes a merged client+server Chrome trace
// there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// wrap, when set, sits between the workload and the data plane; the
	// tests use it to corrupt deliveries.
	wrap func(lazyLoader) lazyLoader
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// report is everything one workload run measured.
type report struct {
	Workload   string       `json:"workload"`
	Seed       uint64       `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Traced     bool         `json:"traced"`
	Host       host         `json:"host"`
	Sizes      sizes        `json:"sizes"`
	Attempted  int64        `json:"attempted"`
	Failed     int64        `json:"failed"`
	ErrorRatio float64      `json:"error_ratio"`
	Problems   []string     `json:"problems,omitempty"`
	EndToEnd   metricSet    `json:"end_to_end"`
	WallClock  metricSet    `json:"wall_clock"`
	PerLayer   metricSet    `json:"per_layer"`
	TraceFile  string       `json:"trace_file,omitempty"`
	Windows    []windowStat `json:"windows"`
}

// host fingerprints the machine a record was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// sizes records the inputs a workload was run at.
type sizes struct {
	Samples            int64   `json:"samples"`
	Owners             int     `json:"owners"`
	CacheBytesPerOwner int64   `json:"cache_bytes_per_owner"`
	OwnerRangeBytes    int64   `json:"owner_range_bytes"`
	WorkingSetPerCache float64 `json:"working_set_per_cache"`
	Workers            int     `json:"workers"`
	Batch              int     `json:"batch"`
	Epochs             int     `json:"epochs,omitempty"`
	StepsPerEpoch      int     `json:"steps_per_epoch,omitempty"`
}

func currentHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

var workloads = map[string]func(options) (*report, error){
	"train":      runTrain,
	"fetch-hot":  func(o options) (*report, error) { return runFetch(o, hotSpec) },
	"fetch-cold": func(o options) (*report, error) { return runFetch(o, coldSpec) },
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return 2
	}
	return execute(o, stdout, stderr)
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: train, fetch-hot or fetch-cold")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every id stream is derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics (adds a traced pass), 0 the end-to-end metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "records"), "directory for run records and Chrome traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, names)
		return o, errors.New("bad workload")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return o, errors.New("bad trace flag")
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", o.seconds)
		return o, errors.New("bad seconds")
	}
	o.trace = *traceFlag == 1
	return o, nil
}

// execute runs one workload and prints its metrics. It returns 0 when the
// run completed and every check passed, 1 otherwise; a run that could not
// complete prints no result line.
func execute(o options, stdout, stderr io.Writer) int {
	rep, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.Workload, rep.Seed, rep.Seconds, rep.Traced = o.workload, o.seed, o.seconds, o.trace
	rep.Host = currentHost()
	if rep.Attempted > 0 {
		rep.ErrorRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	if path, err := writeRecord(o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "record: %s\n", path)
	}

	cacheDesc := "no cache"
	if c := rep.Sizes.CacheBytesPerOwner; c > 0 {
		cacheDesc = fmt.Sprintf("%d B cache per owner, working set %.2fx cache", c, rep.Sizes.WorkingSetPerCache)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d samples over %d owners, %s; nproc %d GOMAXPROCS %d %s\n",
		o.workload, o.seed, rep.Sizes.Samples, rep.Sizes.Owners, cacheDesc,
		rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion)
	printMetrics(stdout, "end-to-end", rep.EndToEnd)
	printMetrics(stdout, "wall-clock (not gated)", rep.WallClock)
	printMetrics(stdout, "per-layer", rep.PerLayer)
	fmt.Fprintf(stdout, "error_ratio %g (%d of %d failed)\n", rep.ErrorRatio, rep.Failed, rep.Attempted)
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}

	res := result{
		Correct:   len(rep.Problems) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   rep.EndToEnd,
	}
	if o.trace {
		res.Metrics = rep.PerLayer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, title string, ms metricSet) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func writeRecord(o options, rep *report) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", fmt.Errorf("record: %w", err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace)))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", fmt.Errorf("record: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("record: %w", err)
	}
	return path, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
