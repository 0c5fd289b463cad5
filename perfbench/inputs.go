package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"thorin/internal/backend"
	"thorin/internal/bench"
	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/link"
)

// job is one program the benchmark compiles and runs: a single source or a
// module set, the target it is compiled for and the argument main runs with.
type job struct {
	name    string
	src     string   // single-source program (empty for a module set)
	modules []string // module set compiled through driver.CompileModules
	link    link.Mode
	target  backend.Target
	n       int64
	want    outcome
}

// outcome is what running main produced: its result and printed output, or
// a division trap, and the reference interpreter's step count.
type outcome struct {
	val   int64
	out   string
	trap  bool
	steps int64
}

// isDivTrap reports whether err is the division or remainder by zero trap,
// the one runtime failure a generated program may legally end with.
func isDivTrap(err error) bool {
	s := err.Error()
	return strings.Contains(s, "division by zero") || strings.Contains(s, "remainder by zero")
}

// check compares a compiled execution against the reference outcome. A trap
// matches a reference trap; partial output before a trap is not compared,
// because the trapping division is not ordered against prints.
func (want outcome) check(got int64, out string, err error) error {
	switch {
	case want.trap && err != nil && isDivTrap(err):
		return nil
	case want.trap:
		return fmt.Errorf("got (%d, %v), reference trapped on division by zero", got, err)
	case err != nil:
		return fmt.Errorf("execution failed: %s", shortErr(err))
	case got != want.val:
		return fmt.Errorf("result %d, reference %d", got, want.val)
	case out != want.out:
		return fmt.Errorf("output %q, reference %q", out, want.out)
	}
	return nil
}

// interpret runs the reference interpreter (impala.NewInterp) on src.
func interpret(src string, n int64) (outcome, error) {
	prog, err := impala.Parse(src)
	if err != nil {
		return outcome{}, err
	}
	if err := impala.Check(prog); err != nil {
		return outcome{}, err
	}
	var out bytes.Buffer
	in, err := impala.NewInterp(prog, &out, 0)
	if err != nil {
		return outcome{}, err
	}
	v, err := in.Run(n)
	steps := impala.DefaultFuel - in.Remaining()
	if err != nil {
		if isDivTrap(err) {
			return outcome{trap: true, steps: steps}, nil
		}
		return outcome{}, fmt.Errorf("reference interpreter: %w", err)
	}
	return outcome{val: v.I, out: out.String(), steps: steps}, nil
}

// flatten turns a module set into the equivalent single program for the
// reference interpreter: module, import and re-export lines go, export
// markers are dropped. Function names are unique across the sets the
// benchmark generates, so no renaming is needed.
func flatten(modules []string) string {
	var sb strings.Builder
	for _, m := range modules {
		for _, line := range strings.Split(m, "\n") {
			t := strings.TrimSpace(line)
			if strings.HasPrefix(t, "module ") || strings.HasPrefix(t, "import ") {
				continue
			}
			sb.WriteString(strings.TrimPrefix(line, "export "))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// withOracle fills j.want from the reference interpreter. Expected results
// never come from another compiled arm.
func withOracle(j job) (job, error) {
	src := j.src
	if src == "" {
		src = flatten(j.modules)
	}
	w, err := interpret(src, j.n)
	if err != nil {
		return j, fmt.Errorf("%s: %w", j.name, err)
	}
	j.want = w
	return j, nil
}

// targets are the two backends every workload compiles for.
var targets = []backend.Target{backend.VM, backend.Wasm}

// smallN is the argument a suite program runs with when it is only being
// checked, not timed: large enough to execute every loop, small enough that
// execution is noise next to compilation.
var smallN = map[string]int64{
	"fib": 12, "mapreduce": 200, "filter": 200, "compose": 200, "mandelbrot": 6,
	"nbody": 6, "spectralnorm": 6, "qsort": 100, "matmul": 6, "nqueens": 5,
}

// suiteArm names one suite program variant.
func suiteArm(p bench.Program, functional bool) (name, src string) {
	if functional {
		return p.Name + "/fun", p.Functional
	}
	return p.Name + "/imp", p.Imperative
}

// suiteJobs returns the 40 suite arms (10 programs × functional/imperative ×
// vm/wasm) running main(n(program)), with reference outcomes. Both targets
// of one variant share one interpreter run.
func suiteJobs(n func(bench.Program) int64) ([]job, error) {
	var jobs []job
	for _, p := range bench.Suite {
		for _, functional := range []bool{true, false} {
			name, src := suiteArm(p, functional)
			base, err := withOracle(job{name: name, src: src, n: n(p)})
			if err != nil {
				return nil, err
			}
			for _, t := range targets {
				j := base
				j.name, j.target = name+"/"+string(t), t
				jobs = append(jobs, j)
			}
		}
	}
	return jobs, nil
}

func defaultN(p bench.Program) int64 { return p.DefaultN }
func checkN(p bench.Program) int64   { return smallN[p.Name] }

// maxFuzzSteps bounds the reference interpreter steps of a generated
// program. Generated programs stand for cold compiles of small sources; about
// one in a thousand runs for millions of steps, executes for seconds, and
// would make a run's throughput depend on whether its seed drew one.
const maxFuzzSteps = 100_000

// fuzzJob is the generated program after *seed, with its reference
// outcome: fuzzgen.Program or, for odd seeds, fuzzgen.MemoryProgram. The
// argument spans negative values, so division traps occur. A program the
// reference cannot judge (out of fuel) or that exceeds maxFuzzSteps is
// skipped for the next seed.
func fuzzJob(seed *int64, t backend.Target) (job, error) {
	for try := 0; try < 100; try++ {
		*seed++
		src, kind := fuzzgen.Program(*seed), "fuzz"
		if *seed%2 != 0 {
			src, kind = fuzzgen.MemoryProgram(*seed), "memfuzz"
		}
		j, err := withOracle(job{name: fmt.Sprintf("%s/%d", kind, *seed), src: src, target: t, n: *seed%15 - 7})
		if err == nil && j.want.steps <= maxFuzzSteps {
			return j, nil
		}
	}
	return job{}, fmt.Errorf("no usable generated program before seed %d", *seed)
}

// moduleJob is a GenModuleSet module set with one edited leaf.
func moduleJob(leaves, edited, version int, mode link.Mode, t backend.Target) job {
	return job{
		name:    fmt.Sprintf("modules/%d/leaf%d.v%d/%s", leaves, edited, version, mode),
		modules: bench.GenModuleSet(leaves, edited, version),
		link:    mode,
		target:  t,
		n:       3,
	}
}

// blocks returns n category indices in seeded blocks: each block holds
// exactly counts[c] draws of category c in shuffled order, so every stretch
// of a schedule holds the mix in its stated proportions, whatever the seed.
func blocks(rng *rand.Rand, counts []int, n int) []int {
	var block []int
	for c, k := range counts {
		for ; k > 0; k-- {
			block = append(block, c)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		out = append(out, block...)
	}
	return out[:n]
}

// compileMixCounts is compile-scale's mix per 100 programs, in the order of
// the cases of compileJob. It puts the median in the small generated
// programs and the 90th percentile inside the 16-function group (10 above
// the 3 of 32 functions), so neither percentile sits on the boundary
// between two program shapes.
var compileMixCounts = []int{48, 16, 10, 4, 5, 4, 10, 3}

// compileJob draws one compile-scale program of category cat, with its
// reference outcome.
func compileJob(cat int, rng *rand.Rand, fuzzSeed *int64) (job, error) {
	t := targets[rng.Intn(len(targets))]
	var j job
	switch cat {
	case 0:
		return fuzzJob(fuzzSeed, t)
	case 1:
		p := bench.Suite[rng.Intn(len(bench.Suite))]
		name, src := suiteArm(p, rng.Intn(2) == 0)
		j = job{name: name, src: src, target: t, n: smallN[p.Name]}
	case 2:
		mode := link.Trampoline
		if rng.Intn(2) == 0 {
			mode = link.Mangle
		}
		leaves := 4 + 4*rng.Intn(2)
		j = moduleJob(leaves, rng.Intn(leaves), rng.Intn(10), mode, t)
	case 3:
		j = job{name: "chain/50", src: bench.GenChain(50), target: t, n: 5}
	default:
		size := []int{4, 8, 16, 32}[cat-4]
		j = job{name: fmt.Sprintf("manyfns/%d", size), src: bench.GenManyFns(size), target: t, n: 10}
	}
	return withOracle(j)
}
