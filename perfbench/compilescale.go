package main

import (
	"math/rand"
	"time"

	"thorin/internal/backend"
)

// deckSize is how many compile-scale programs one run prepares, about what
// a 30-second window compiles on a two-core machine. The closed loop cycles
// through them in order; an in-process compile shares nothing with an
// earlier one, so a repeated program is compiled as cold as the first time.
const deckSize = 3000

// compileDeck draws the seeded program mix with reference outcomes. Fuzz
// seeds are offset by the workload seed, so every seed compiles different
// generated programs.
func compileDeck(seed int64, size int) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	fuzzSeed := seed * 1_000_000
	deck := make([]job, size)
	for i, cat := range blocks(rng, compileMixCounts, size) {
		j, err := compileJob(cat, rng, &fuzzSeed)
		if err != nil {
			return nil, err
		}
		deck[i] = j
	}
	return deck, nil
}

// runCompileScale compiles deck programs back to back, one client with
// cfg.jobs analysis workers, until the window closes. A request is one
// compile plus the single execution that checks it.
func runCompileScale(cfg *config, t *tally) (*metricSet, error) {
	deck, err := compileDeck(cfg.seed, deckSize)
	if err != nil {
		return nil, err
	}
	// The warm-up compiles the suite arms, as suite-exec's set-up does, but
	// their latencies stay out of compile_ms: that is the deck's.
	e := newE2E()
	if _, _, err := suiteSetup(setupReps, cfg.jobs, t, e); err != nil {
		return nil, err
	}
	e.compile, e.compileAllocs = nil, nil
	meter := newAllocMeter()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		j := &deck[i%len(deck)]
		var a *artifact
		var err error
		b0, _ := meter.read()
		dc := timed(func() { a, _, err = compile(j, cfg.jobs, nil, 0, 0) })
		b1, _ := meter.read()
		if err != nil {
			t.record(err)
			continue
		}
		e.compile.add(dc)
		e.compileAllocs = append(e.compileAllocs, float64(b1-b0)/(1<<20))
		de := timed(func() { _, err = execute(j, a, nil, 0, 0) })
		t.record(err)
		e.req.add(dc + de)
		e.requests++
		e.execs[j.target]++
		if j.target == backend.VM {
			e.runVM = append(e.runVM, ms(de))
		} else {
			e.runWas = append(e.runWas, ms(de))
		}
	}
	e.window = time.Since(start)
	return e.metrics(), nil
}

// traceOps is the fixed number of deck programs a traced compile-scale run
// compiles, so its counters are a function of the seed alone.
const traceOps = 150

// compileOps are the traced run's operations over deck: compile and
// execute each program, recording counters when traced.
func compileOps(deck []job, jobs int, acc *layerAcc) opList {
	var ops opList
	for i := range deck {
		j := &deck[i]
		ops = append(ops, func(tr *tracer, op int64) error {
			root := tr.begin(op, 0, "bench.compile")
			defer root.end()
			a, cnt, err := compile(j, jobs, tr, op, root.id())
			if err != nil {
				return err
			}
			ecnt, err := execute(j, a, tr, op, root.id())
			if tr != nil {
				acc.addCompile(j, cnt, a)
				acc.addExec(j.target, ecnt)
			}
			return err
		})
	}
	return ops
}

// traceCompileScale runs the first traceOps deck programs untraced, then
// through the traced layer chain.
func traceCompileScale(cfg *config, t *tally) (*metricSet, *tracer, error) {
	deck, err := compileDeck(cfg.seed, traceOps)
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := suiteSetup(1, cfg.jobs, t, nil); err != nil {
		return nil, nil, err
	}
	acc := &layerAcc{}
	tr, overhead, untraced := traced(compileOps(deck, cfg.jobs, acc), t)
	return layerMetrics(tr, acc, serverDelta{}, overhead, untraced), tr, nil
}
