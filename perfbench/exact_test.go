package main

import (
	"runtime"
	"testing"
)

// exactMetrics are the deterministic metrics: counts of work that depend on
// the seed and the compiler alone, so two runs of the same code and seed
// must report them bit for bit. fun_imp_instrs.geomean and code_bytes.* come
// from the census every run takes; the rest from the traced runs.
var exactMetrics = []string{
	"vm.instrs", "wasm.fuel", "analysis.scope_builds", "pm.rewrites",
}

func TestCensusIsExact(t *testing.T) {
	var first census
	for run := 0; run < 2; run++ {
		var tl tally
		e := newE2E()
		if _, _, err := suiteSetup(1, runtime.NumCPU(), &tl, e); err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 {
			t.Fatalf("census run %d: %d failed: %v", run, tl.failed, tl.firsts)
		}
		m := e.metrics()
		for _, name := range []string{"fun_imp_instrs.geomean", "code_bytes.vm", "code_bytes.wasm"} {
			if m.byKey[name].Value <= 0 {
				t.Errorf("%s = %v, want a positive value", name, m.byKey[name].Value)
			}
		}
		if run == 0 {
			first = e.census
			continue
		}
		if e.census != first {
			t.Errorf("census differs between runs: %+v vs %+v", first, e.census)
		}
	}
}

func TestTracedCountersAreExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every traced workload twice")
	}
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			var got [2]*metricSet
			for run := range got {
				cfg := &config{workload: name, seed: 7, clients: runtime.NumCPU(), jobs: runtime.NumCPU()}
				var tl tally
				ms, _, err := workloads[name].trace(cfg, &tl)
				if err != nil {
					t.Fatal(err)
				}
				if tl.failed != 0 {
					t.Fatalf("run %d: %d failed: %v", run, tl.failed, tl.firsts)
				}
				got[run] = ms
			}
			for _, m := range exactMetrics {
				a, b := got[0].byKey[m], got[1].byKey[m]
				if a.Value != b.Value || a.Samples != b.Samples {
					t.Errorf("%s: %v (n=%d) then %v (n=%d) for the same seed", m, a.Value, a.Samples, b.Value, b.Samples)
				}
			}
		})
	}
}
