package main

import (
	"fmt"
	"time"

	"thorin/internal/backend"
	"thorin/internal/bench"
	"thorin/internal/vm"
)

// newE2E returns an empty sample set.
func newE2E() *e2e { return &e2e{execs: map[backend.Target]int{}} }

// e2e holds the samples behind the end-to-end metrics of one untraced run.
type e2e struct {
	setup         []time.Duration
	compile       latencies              // source to encoded artifact
	compileAllocs []float64              // Go heap MB allocated per compile
	runVM, runWas []float64              // per-arm medians (suite-exec) or per-execution times, ms
	execs         map[backend.Target]int // executions behind runVM and runWas
	census        census
	req           latencies // request latencies (suite-exec: per-arm medians)
	requests      int       // requests completed in the window
	window        time.Duration
}

// metrics returns every end-to-end metric in BENCHMARK.json order.
func (e *e2e) metrics() *metricSet {
	m := newMetricSet()
	secs := make([]float64, len(e.setup))
	for i, d := range e.setup {
		secs[i] = d.Seconds()
	}
	m.set("setup_s", "s", median(secs), len(secs))
	m.set("compile_ms.p50", "ms", quantile(e.compile, 0.5), len(e.compile))
	m.set("compile_ms.p90", "ms", quantile(e.compile, 0.9), len(e.compile))
	m.set("compile_alloc_mb.mean", "MB", mean(e.compileAllocs), len(e.compileAllocs))
	m.set("run_ms.vm.geomean", "ms", geomean(e.runVM), e.execs[backend.VM])
	m.set("run_ms.wasm.geomean", "ms", geomean(e.runWas), e.execs[backend.Wasm])
	m.set("fun_imp_instrs.geomean", "ratio", e.census.funImp, len(bench.Suite))
	m.set("code_bytes.vm", "bytes", float64(e.census.codeVM), 2*len(bench.Suite))
	m.set("code_bytes.wasm", "bytes", float64(e.census.codeWasm), 2*len(bench.Suite))
	m.set("req_ms.p50", "ms", quantile(e.req, 0.5), len(e.req))
	m.set("req_ms.p99", "ms", quantile(e.req, 0.99), len(e.req))
	m.set("req_per_s", "1/s", float64(e.requests)/e.window.Seconds(), e.requests)
	return m
}

// census is the deterministic summary of the 40 suite arms: generated code
// size per target and the functional/imperative VM instruction ratio at
// DefaultN (the paper's claim that higher-order code reaches first-order
// cost).
type census struct {
	funImp           float64
	codeVM, codeWasm int
}

// takeCensus measures arts, compiled from suiteJobs(defaultN) in that
// order, executing each VM arm once (checked against the reference).
func takeCensus(arms []job, arts []*artifact, t *tally) (census, error) {
	var c census
	instrs := map[string]int64{} // VM instructions per arm at DefaultN
	for i := range arms {
		n, err := arts[i].codeBytes()
		if err != nil {
			return c, err
		}
		if arms[i].target == backend.Wasm {
			c.codeWasm += n
			continue
		}
		c.codeVM += n
		cnt, err := execute(&arms[i], arts[i], nil, 0, 0)
		t.record(err)
		instrs[arms[i].name] = cnt.vm.Instructions
	}
	var ratios []float64
	for _, p := range bench.Suite {
		fun, imp := instrs[p.Name+"/fun/vm"], instrs[p.Name+"/imp/vm"]
		if fun == 0 || imp == 0 {
			return c, fmt.Errorf("census: %s executed no instructions", p.Name)
		}
		ratios = append(ratios, float64(fun)/float64(imp))
	}
	c.funImp = geomean(ratios)
	return c, nil
}

// compileArms compiles every arm in process, recording each compile's
// latency and allocation in e (when non-nil).
func compileArms(arms []job, jobs int, t *tally, e *e2e) ([]*artifact, error) {
	arts := make([]*artifact, len(arms))
	meter := newAllocMeter()
	for i := range arms {
		var err error
		b0, _ := meter.read()
		d := timed(func() { arts[i], _, err = compile(&arms[i], jobs, nil, 0, 0) })
		b1, _ := meter.read()
		t.record(err)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arms[i].name, err)
		}
		if e != nil {
			e.compile.add(d)
			e.compileAllocs = append(e.compileAllocs, float64(b1-b0)/(1<<20))
		}
	}
	return arts, nil
}

// layerAcc accumulates the per-layer counters of a traced run. Callers on
// several goroutines serialize their calls.
type layerAcc struct {
	compiles   int
	moduleSets int
	cc         compileCounters
	vmExecs    int
	vm         vm.Counters
	wasmExecs  int
	fuel       int64
	artifacts  int
	artBytes   int
	rttHit     []float64
	rttMiss    []float64
}

func (l *layerAcc) addCompile(j *job, c compileCounters, a *artifact) {
	l.compiles++
	if j.modules != nil {
		l.moduleSets++
	}
	l.cc.add(c)
	if a != nil {
		l.artifacts++
		l.artBytes += len(a.encoded)
	}
}

func (l *layerAcc) addExec(t backend.Target, c execCounters) {
	if t == backend.VM {
		l.vmExecs++
		l.vm.Instructions += c.vm.Instructions
		l.vm.ClosureAllocs += c.vm.ClosureAllocs
		l.vm.HeapWords += c.vm.HeapWords
	} else {
		l.wasmExecs++
		l.fuel += c.fuel
	}
}

// serverDelta is the change in the daemon's /metrics over a traced pass.
type serverDelta struct {
	requests, hits, compiled, coalesced, evictions, sheds int64
	compileNs                                             time.Duration
}

// layerMetrics turns the spans and counters of a traced run into the
// per-layer metrics, in BENCHMARK.json order. Times are means per call of
// the layer's unit of work (compile, module-set compile, execution,
// artifact, request); a layer the workload never reached reads 0.
func layerMetrics(tr *tracer, l *layerAcc, sd serverDelta, overhead, untraced time.Duration) *metricSet {
	by := tr.byName()
	m := newMetricSet()
	per := func(name string, n int) float64 { return ratio(by[name].ms, float64(n)) }
	c, cc := l.compiles, &l.cc
	m.set("impala.lex_ms", "ms", per("impala.lex", c), c)
	m.set("impala.parse_ms", "ms", ratio(by["impala.parse"].ms-by["impala.lex"].ms, f64(c)), c)
	m.set("impala.check_ms", "ms", per("impala.check", c), c)
	m.set("impala.emit_ms", "ms", per("impala.emit", c), c)
	m.set("impala.tokens", "count", ratio(f64(cc.tokens), f64(c)), c)
	m.set("pm.optimize_ms", "ms", per("pm.optimize", c), c)
	m.set("pm.optimize_allocs", "count", ratio(f64(by["pm.optimize"].objs), f64(c)), c)
	m.set("pm.pass_runs", "count", ratio(f64(cc.passRuns), f64(c)), c)
	m.set("pm.skips", "count", ratio(f64(cc.skips), f64(c)), c)
	m.set("pm.skip_ratio", "ratio", ratio(f64(cc.skips), f64(cc.passRuns)), c)
	m.set("pm.rewrites", "count", ratio(f64(cc.rewrites), f64(c)), c)
	m.set("pm.memo_hits", "count", ratio(f64(cc.memoHits), f64(c)), c)
	m.set("analysis.scope_builds", "count", ratio(f64(cc.scopeBuilds), f64(c)), c)
	m.set("ir.verify_ms", "ms", per("ir.verify", c), c)
	m.set("ir.cons_hit_ratio", "ratio", ratio(f64(cc.consHits), f64(cc.consRequested)), c)
	m.set("ir.conts", "count", ratio(f64(cc.conts), f64(c)), c)
	m.set("ir.primops", "count", ratio(f64(cc.primops), f64(c)), c)
	m.set("link.module_compile_ms", "ms", per("link.module_compile", l.moduleSets), l.moduleSets)
	m.set("link.link_ms", "ms", ratio(by["link.link"].ms+by["link.resolve"].ms, f64(l.moduleSets)), l.moduleSets)
	vmC, wasmC := by["backend.vm.emit"].n, by["backend.wasm.emit"].n
	m.set("backend.vm.emit_ms", "ms", per("backend.vm.emit", vmC), vmC)
	m.set("backend.wasm.emit_ms", "ms", per("backend.wasm.emit", wasmC), wasmC)
	v, w := l.vmExecs, l.wasmExecs
	m.set("vm.exec_ms", "ms", per("vm.exec", v), v)
	m.set("vm.instrs", "count", ratio(f64(l.vm.Instructions), f64(v)), v)
	m.set("vm.closure_allocs", "count", ratio(f64(l.vm.ClosureAllocs), f64(v)), v)
	m.set("vm.heap_words", "count", ratio(f64(l.vm.HeapWords), f64(v)), v)
	m.set("vm.go_allocs", "count", ratio(f64(by["vm.exec"].objs), f64(v)), v)
	m.set("wasm.decode_ms", "ms", per("wasm.decode", w), w)
	m.set("wasm.instantiate_ms", "ms", per("wasm.instantiate", w), w)
	m.set("wasm.exec_ms", "ms", per("wasm.exec", w), w)
	m.set("wasm.fuel", "count", ratio(f64(l.fuel), f64(w)), w)
	wasmObjs := by["wasm.decode"].objs + by["wasm.instantiate"].objs + by["wasm.exec"].objs
	m.set("wasm.go_allocs", "count", ratio(f64(wasmObjs), f64(w)), w)
	enc, dec := by["driver.artifact_encode"].n, by["driver.artifact_decode"].n
	m.set("driver.artifact_encode_ms", "ms", per("driver.artifact_encode", enc), enc)
	m.set("driver.artifact_decode_ms", "ms", per("driver.artifact_decode", dec), dec)
	m.set("driver.artifact_bytes", "bytes", ratio(f64(l.artBytes), f64(l.artifacts)), l.artifacts)
	m.set("server.rtt_ms.hit", "ms", mean(l.rttHit), len(l.rttHit))
	m.set("server.rtt_ms.miss", "ms", mean(l.rttMiss), len(l.rttMiss))
	m.set("server.cache_hit_ratio", "ratio", ratio(f64(sd.hits), f64(sd.requests)), int(sd.requests))
	m.set("server.compile_ms", "ms", ratio(ms(sd.compileNs), f64(sd.compiled)), int(sd.compiled))
	m.set("server.coalesced", "count", f64(sd.coalesced), 1)
	m.set("server.evictions", "count", f64(sd.evictions), 1)
	m.set("server.sheds", "count", f64(sd.sheds), 1)
	m.set("trace.overhead_ms", "ms", ms(overhead), 1)
	m.set("trace.overhead_pct", "%", 100*ratio(ms(overhead), ms(untraced)), 1)
	m.set("trace.spans", "count", f64(len(tr.spans)), 1)
	return m
}

func f64[T int | int64 | uint64](x T) float64 { return float64(x) }

// opList is the fixed, seeded list of operations of a traced run; each
// operation opens its own root span.
type opList []func(tr *tracer, op int64) error

// traced runs ops once untraced, then once traced, and returns the tracer,
// the traced pass's overhead and the untraced pass's time.
func traced(ops opList, t *tally) (*tracer, time.Duration, time.Duration) {
	pass := func(tr *tracer) time.Duration {
		return timed(func() {
			for i, f := range ops {
				t.record(f(tr, int64(i+1)))
			}
		})
	}
	untraced := pass(nil)
	tr := newTracer()
	return tr, pass(tr) - untraced, untraced
}
