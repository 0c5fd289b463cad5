package bench

import (
	"fmt"
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/driver"
)

// memorySource builds the effect-region workload: disjoint arrays and a
// clean accumulator interleaved in a loop, a read-only global read every
// iteration, an escaped cell, and a dead store. Every shape is there on
// purpose:
//
//   - a and b are disjoint array regions written every iteration —
//     unpromotable, so their traffic stays on the mem chain;
//   - acc's own load/store chain is clean, but the array traffic and the
//     closure's effects interleave with it: only region-local promotion
//     can lift it;
//   - base is never stored to, so its region is read-only and the load
//     inside the loop is hoistable;
//   - e escapes into a lambda handed to the recursive blend. cff mangles
//     blend for the literal lambda (that is the paper's move), after
//     which the lambda survives only as a direct callee of the recursive
//     clone: multi-use (inline-once skips it), distinct return
//     continuations (contify skips it), never a jump argument again. The
//     capturing lambda keeps sweep's scope out of block form forever —
//     without region-local promotion every slot in it is skipped;
//   - x's first store is dead (overwritten before any read).
//
// Two structural details are load-bearing. sweep has two call sites with
// distinct return continuations, or contify/inline-once would fuse it
// into main and re-anchor its slots on covered-block parameters (which
// region-local promotion refuses). And e is declared before acc and the
// arrays, so the lambda's operand closure (e's slot plus everything
// sequenced before it on the mem chain) touches nothing region-local
// promotion wants to lift.
func memorySource(iters int) string {
	return fmt.Sprintf(`static base = 7;

fn blend(f: fn(i64) -> i64, i: i64, lim: i64, acc2: i64) -> i64 {
	if i >= lim { acc2 } else { blend(f, i + 1, lim, acc2 + f(i)) }
}

fn sweep(n: i64) -> i64 {
	let mut e = n;
	let mut acc = 0;
	let a = [n; 8];
	let b = [n + 1; 8];
	for i in 0 .. %d {
		a[(i & 7)] = a[(i & 7)] + i;
		b[(i & 7)] = b[(i & 7)] + (i * 2);
		acc = acc + base + a[(i & 7)];
		e = e + blend((|k: i64| e + k), (i & 1), (i & 3), 1);
	}
	acc + e
}

fn main(n: i64) -> i64 {
	let mut x = n;
	x = n + 1;
	let mut total = 0;
	for j in 0 .. 4 {
		total = total + sweep(n + j);
	}
	total + x + base + sweep(n & 3)
}
`, iters)
}

// countHoisted rebuilds the smart schedule of every top-level scope of an
// already-optimized world and sums the region-pure loads it moved to a
// shallower loop depth — the same schedules codegen consumes.
func countHoisted(res *driver.Result) int {
	hoisted := 0
	for _, c := range res.World.Continuations() {
		if !c.HasBody() || c.IsIntrinsic() {
			continue
		}
		s := analysis.NewScope(c)
		if !s.TopLevel() {
			continue
		}
		hoisted += analysis.NewSchedule(s, analysis.ScheduleSmart).Hoisted
	}
	return hoisted
}

// memoryWins is what the region consumers buy on the workload.
type memoryWins struct {
	promoted, skippedInterleaved, skippedEscaped int
	deadStores, hoisted                          int
	instructions, loads, stores, result          int64
}

// TestMemoryRegions compiles memorySource(64) under the canonical O2 spec,
// executes main(3) and pins the effect-region wins exactly.
func TestMemoryRegions(t *testing.T) {
	res := compileArm(t, memorySource(64), o2, backend.VM)
	result, counters, err := driver.Exec(res.Program, io.Discard, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := memoryWins{
		promoted:           res.Stats.Mem2Reg.PromotedSlots,
		skippedInterleaved: res.Stats.Mem2Reg.SkippedInterleaved,
		skippedEscaped:     res.Stats.Mem2Reg.SkippedEscaped,
		deadStores:         res.Stats.Cleanup.DeadStores,
		hoisted:            countHoisted(res),
		instructions:       counters.Instructions,
		loads:              counters.Loads,
		stores:             counters.Stores,
		result:             result,
	}
	want := memoryWins{
		promoted: 3, skippedInterleaved: 0, skippedEscaped: 1, deadStores: 1, hoisted: 1,
		instructions: 12668, loads: 1611, stores: 1045, result: 71341277270831376,
	}
	if got != want {
		t.Errorf("memory workload: %+v, want %+v", got, want)
	}

	// The same workload with the region consumers off, measured before
	// they became unconditional: linear-chain mem2reg promoted 2 slots,
	// nothing was hoisted, and main(3) ran 13,638 VM instructions to the
	// same result.
	const beforePromoted, beforeHoisted, beforeInstructions = 2, 0, 13638
	const beforeResult = 71341277270831376
	if got.result != beforeResult {
		t.Errorf("result %d, before %d", got.result, beforeResult)
	}
	if got.promoted <= beforePromoted {
		t.Errorf("region-local mem2reg promoted %d slots, linear-chain promotion %d — expected strictly more",
			got.promoted, beforePromoted)
	}
	if got.hoisted <= beforeHoisted {
		t.Error("no region-pure load hoisted out of the loop")
	}
	if got.instructions >= beforeInstructions {
		t.Errorf("no VM instruction win: %d, before %d", got.instructions, beforeInstructions)
	}
}
