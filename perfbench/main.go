// Command perfbench is thorin-go's benchmark: one seeded workload per run,
// every output checked against the reference interpreter, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
//
//	go run . --workload suite-exec --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - suite-exec: the 10 paper programs, functional and imperative, for the
//     vm and wasm targets, compiled at -O2 in set-up; the timed loop only
//     executes main(DefaultN).
//   - compile-scale: a closed loop of cold in-process compiles of a seeded
//     program mix to encoded artifacts, each run once at a small n.
//   - daemon-mix: an in-process thorind on a loopback listener and a closed
//     loop of clients sending a seeded mix of cache hits, never-repeated
//     misses, module-set edits and coalescing identical requests.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). The full result, stamped with the environment, is written
// to .bench_out, and a traced run also stores its spans there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	clients  int
	jobs     int
	commit   string
}

// setupReps is how many set-ups a run makes; setup_s is their median.
const setupReps = 15

// outDir receives the result and span files.
const outDir = ".bench_out"

// tally counts checked operations and keeps the first failures.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firsts    []string
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.firsts) < 5 {
			t.firsts = append(t.firsts, shortErr(err))
		}
	}
}

// env is the environment stamp every result carries.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Jobs       int    `json:"jobs"`
}

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run   func(*config, *tally) (*metricSet, error)
	trace func(*config, *tally) (*metricSet, *tracer, error)
}{
	"suite-exec":    {runSuiteExec, traceSuiteExec},
	"compile-scale": {runCompileScale, traceCompileScale},
	"daemon-mix":    {runDaemonMix, traceDaemonMix},
}

// heapLimit bounds the benchmark's Go heap. A run needs a few hundred MB; a
// miscompiled program that recurses or allocates without end would
// otherwise take the machine's memory before its step budget ran out.
const heapLimit = 2 << 30

// watchHeap ends the process when the heap passes heapLimit.
func watchHeap() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for range time.Tick(10 * time.Millisecond) {
		metrics.Read(s)
		if s[0].Value.Uint64() > heapLimit {
			fmt.Fprintln(os.Stderr, "perfbench: Go heap above 2 GiB; an execution or compile ran away")
			os.Exit(4)
		}
	}
}

func main() {
	go watchHeap()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	nproc := runtime.NumCPU()
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: suite-exec, compile-scale or daemon-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded in the result")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	// All load comes from this process: daemon-mix runs one client per CPU
	// and every compile uses one analysis worker per CPU, never more.
	cfg.clients, cfg.jobs = nproc, nproc

	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	case seconds < 1:
		return errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return errors.New("--trace takes 0 or 1")
	}
	stamp := env{nproc, runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit, cfg.clients, cfg.jobs}

	var t tally
	var res *metricSet
	var tr *tracer
	var err error
	if trace == 1 {
		res, tr, err = w.trace(&cfg, &t)
	} else {
		res, err = w.run(&cfg, &t)
	}
	if err != nil {
		return err
	}
	correct := t.failed == 0 && t.attempted > 0

	fmt.Printf("workload %s seed %d trace %d: %d operations, %d failed (failed_ratio %g ratio)\n",
		cfg.workload, cfg.seed, trace, t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)))
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s commit=%s clients=%d jobs=%d\n",
		stamp.NumCPU, stamp.GOMAXPROCS, stamp.GoVersion, stamp.Commit, stamp.Clients, stamp.Jobs)
	for _, f := range t.firsts {
		fmt.Println("FAILED:", f)
	}
	res.print(os.Stdout)
	if tr != nil {
		printSelfTimes(os.Stdout, cfg.workload, tr.selfTimes(),
			res.byKey["trace.overhead_ms"].Value, res.byKey["trace.overhead_pct"].Value)
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	full := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": seconds, "trace": trace,
		"env": stamp, "correct": correct, "attempted": t.attempted, "failed": t.failed,
		"failed_ratio": ratio(float64(t.failed), float64(t.attempted)), "failures": t.firsts,
		"metrics": res.byKey,
	}
	if tr != nil {
		full["layers"] = tr.selfTimes()
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	// The summary line: value and unit per metric, nothing else.
	short := map[string]any{}
	for name, m := range res.byKey {
		short[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": t.attempted, "failed": t.failed, "metrics": short,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(3)
	}
	return nil
}
