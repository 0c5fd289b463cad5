package bench

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// The incremental-vs-full comparison of the change-journal rewrite core:
// the same fixpoint workload — a cold optimize plus re-optimization rounds
// after small localized changes — runs once with journal-driven skipping
// enabled and once with it disabled. The IR produced is byte-identical
// (the determinism tests pin that); what differs is the work, and this
// file pins it exactly: NewScope executions and executed, skipped and
// memoized pass runs. Wall time is perfbench's compile-scale workload.

// incRounds is the number of optimize rounds per program: one cold round
// plus re-optimization rounds, each after a small localized change. The
// re-rounds are where the two modes diverge — a cold optimize stales nearly
// every scope either way, but after a local perturbation the full mode's
// wholesale invalidation rebuilds every scope the later passes look at
// while the stamp-validated cache rebuilds only what the change touched.
const incRounds = 3

// perturb applies the smallest interesting change: a fresh self-looping
// dead continuation. It stamps no existing def (its only operand is
// itself), yet the next cleanup provably rewrites (sweeps it), so the
// re-round does real pass work in both modes.
func perturb(w *ir.World) {
	c := w.Continuation(w.FnType(), "bench.pert")
	c.Jump(c)
}

// optimizeRounds runs the canonical OptAll pipeline incRounds times over w
// on one reused context (explicitly controlling incremental re-running;
// transform.Optimize would inherit the THORIN_INCREMENTAL environment
// default instead), perturbing the world before each re-round.
func optimizeRounds(w *ir.World, incremental bool) ([]*pm.Report, error) {
	pl, err := pm.Parse(transform.SpecFor(transform.OptAll()))
	if err != nil {
		return nil, err
	}
	ctx := pm.NewContext(w)
	ctx.Incremental = incremental
	reps := make([]*pm.Report, 0, incRounds)
	for r := 0; r < incRounds; r++ {
		if r > 0 {
			perturb(w)
		}
		rep, err := pl.Run(ctx)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// incrementalWork is the work one mode does on a workload.
type incrementalWork struct {
	scopeBuilds                int64
	executed, skipped, memoHit int
}

// measureWork runs optimizeRounds over every source in one mode and totals
// the NewScope executions and pass runs of all rounds.
func measureWork(t *testing.T, srcs []string, incremental bool) incrementalWork {
	t.Helper()
	var out incrementalWork
	before := analysis.ScopeBuildCount()
	for _, src := range srcs {
		w, err := impala.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := optimizeRounds(w, incremental)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			out.skipped += rep.Skips()
			out.memoHit += rep.MemoHits()
			out.executed += len(rep.Runs) - rep.Skips()
		}
	}
	out.scopeBuilds = analysis.ScopeBuildCount() - before
	return out
}

// TestIncrementalWork pins the work of both modes on the synthetic
// many-functions program and the first three fuzz-generator programs.
// ScopeBuildCount is process-wide, so this test must not run in parallel
// with anything that builds scopes. The numbers are the same at any
// THORIN_JOBS.
func TestIncrementalWork(t *testing.T) {
	fuzz := make([]string, 3)
	for i := range fuzz {
		fuzz[i] = fuzzgen.Program(int64(i + 1))
	}
	cases := []struct {
		name      string
		srcs      []string
		inc, full incrementalWork
	}{
		{"GenManyFns(8)", []string{GenManyFns(8)},
			incrementalWork{scopeBuilds: 106, executed: 24, skipped: 4, memoHit: 1},
			incrementalWork{scopeBuilds: 284, executed: 28}},
		{"fuzz seeds 1-3", fuzz,
			incrementalWork{scopeBuilds: 38, executed: 69, skipped: 11, memoHit: 4},
			incrementalWork{scopeBuilds: 80, executed: 80}},
	}
	for _, c := range cases {
		if got := measureWork(t, c.srcs, true); got != c.inc {
			t.Errorf("%s incremental: %+v, want %+v", c.name, got, c.inc)
		}
		if got := measureWork(t, c.srcs, false); got != c.full {
			t.Errorf("%s full: %+v, want %+v", c.name, got, c.full)
		}
	}
}
