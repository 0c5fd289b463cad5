package driver

import (
	"testing"

	"thorin/internal/fuzzgen"
)

// TestFuzzMemory sweeps the memory-heavy generator mode through every
// compiled arm: slots written in loops, aliased array cells, repeated
// stores to the same cell, and lambda-captured mutables whose slots
// escape — the corpus that exercises alias regions, region-local
// promotion, region-pure load hoisting and dead-store elimination. Every
// seed must agree with the reference interpreter.
func TestFuzzMemory(t *testing.T) {
	seeds := 250
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		src := fuzzgen.MemoryProgram(int64(seed))
		arg := int64(seed%15 - 7)
		finding, err := diffArms(src, arg)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if finding != "" {
			t.Fatalf("seed %d (arg %d): %s\n%s", seed, arg, finding, src)
		}
	}
}
