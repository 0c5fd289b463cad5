package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"thorin/internal/backend"
)

// suiteSetup is the set-up of suite-exec and compile-scale: the 40 arms at
// DefaultN get their reference outcomes (outside the timed set-up), then
// reps timed compiles of all arms run; the census is taken from the last.
// Each set-up starts after a collection, so the garbage of the reference
// runs and earlier set-ups is not charged to it.
func suiteSetup(reps, jobs int, t *tally, e *e2e) ([]job, []*artifact, error) {
	arms, err := suiteJobs(defaultN)
	if err != nil {
		return nil, nil, err
	}
	var arts []*artifact
	for r := 0; r < reps; r++ {
		var err error
		runtime.GC()
		d := timed(func() { arts, err = compileArms(arms, jobs, t, e) })
		if err != nil {
			return nil, nil, err
		}
		if e != nil {
			e.setup = append(e.setup, d)
		}
	}
	c, err := takeCensus(arms, arts, t)
	if e != nil {
		e.census = c
	}
	return arms, arts, err
}

// runSuiteExec sweeps the compiled arms in seeded order until the window
// closes. A request is one execution. run_ms.<target>.geomean is the
// geomean over that target's 20 arms of each arm's median execution time,
// and req_ms takes its percentiles over the 40 arm medians: a window holds
// about ten executions per arm, so the raw 99th percentile would rest on a
// handful of samples from the slowest arms. compile_ms likewise takes its
// percentiles over each arm's median set-up compile: the arms' compile
// times form clusters, and a percentile of the raw samples jumps between
// two of them from run to run.
func runSuiteExec(cfg *config, t *tally) (*metricSet, error) {
	e := newE2E()
	// The census doubles as the warm-up: every VM arm runs once.
	arms, arts, err := suiteSetup(setupReps, cfg.jobs, t, e)
	if err != nil {
		return nil, err
	}
	compiles := make([][]float64, len(arms))
	for k, d := range e.compile {
		compiles[k%len(arms)] = append(compiles[k%len(arms)], d)
	}
	e.compile = e.compile[:0]
	for _, xs := range compiles {
		e.compile = append(e.compile, median(xs))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	perArm := make([][]float64, len(arms))
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for sweep := 0; sweep == 0 || time.Now().Before(deadline); sweep++ {
		for _, i := range rng.Perm(len(arms)) {
			if sweep > 0 && !time.Now().Before(deadline) {
				break
			}
			var err error
			d := timed(func() { _, err = execute(&arms[i], arts[i], nil, 0, 0) })
			t.record(err)
			e.requests++
			perArm[i] = append(perArm[i], ms(d))
		}
	}
	e.window = time.Since(start)
	fmt.Println("median execution time per arm:")
	for i, xs := range perArm {
		med := median(xs)
		fmt.Printf("  %-22s %10.3f ms  n=%d\n", arms[i].name, med, len(xs))
		e.execs[arms[i].target] += len(xs)
		e.req = append(e.req, med)
		if arms[i].target == backend.VM {
			e.runVM = append(e.runVM, med)
		} else {
			e.runWas = append(e.runWas, med)
		}
	}
	return e.metrics(), nil
}

// traceSuiteExec traces the suite's compile (all arms, through the layer
// chain) and one seeded sweep of executions.
func traceSuiteExec(cfg *config, t *tally) (*metricSet, *tracer, error) {
	arms, arts, err := suiteSetup(1, cfg.jobs, t, nil)
	if err != nil {
		return nil, nil, err
	}
	acc := &layerAcc{}
	rng := rand.New(rand.NewSource(cfg.seed))
	var ops opList
	for i := range arms {
		ops = append(ops, func(tr *tracer, op int64) error {
			root := tr.begin(op, 0, "bench.compile")
			defer root.end()
			a, cnt, err := compile(&arms[i], cfg.jobs, tr, op, root.id())
			if tr != nil && err == nil {
				acc.addCompile(&arms[i], cnt, a)
			}
			return err
		})
	}
	for _, i := range rng.Perm(len(arms)) {
		ops = append(ops, func(tr *tracer, op int64) error {
			root := tr.begin(op, 0, "bench.exec")
			defer root.end()
			cnt, err := execute(&arms[i], arts[i], tr, op, root.id())
			if tr != nil {
				acc.addExec(arms[i].target, cnt)
			}
			return err
		})
	}
	tr, overhead, untraced := traced(ops, t)
	return layerMetrics(tr, acc, serverDelta{}, overhead, untraced), tr, nil
}
