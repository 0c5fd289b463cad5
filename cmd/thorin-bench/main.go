// Command thorin-bench regenerates the evaluation tables and figures of the
// reproduction (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded results).
//
// Usage:
//
//	thorin-bench -all              # everything
//	thorin-bench -table 1          # IR statistics
//	thorin-bench -table 2          # closure elimination
//	thorin-bench -table 3          # φ vs mem2reg params
//	thorin-bench -table 4          # compile-time scaling
//	thorin-bench -table 5          # per-pass compile-time breakdown
//	thorin-bench -table 6          # compile time vs -jobs workers
//	thorin-bench -figure runtime   # the headline runtime comparison
//	thorin-bench -figure sweep     # overhead vs input size
//	thorin-bench -ablation all     # consing / schedule / mem2reg ablations
//	thorin-bench -fast             # reduced problem sizes everywhere
//	thorin-bench -alloc -o BENCH_pr4.json   # compile-throughput + allocs/op
//	thorin-bench -incremental -o BENCH_pr5.json   # incremental vs full pipeline work
//	thorin-bench -incremental -diff BENCH_pr5.json   # fail on >10% optimize regression
//	thorin-bench -loadtest -o BENCH_pr6.json      # thorind cold vs warm-cache latency
//	thorin-bench -modload -o BENCH_pr7.json       # separate compilation: single-leaf edits on a warm daemon
//	thorin-bench -overload -o BENCH_pr8.json      # shed/retry storm: clients > compile slots
//	thorin-bench -memory -o BENCH_pr9.json        # effect-region memory pipeline: wins over the carried before arm
//	thorin-bench -memory -diff BENCH_pr9.json     # fail on a >10% VM-instruction regression
//	thorin-bench -backends -o BENCH_pr10.json     # vm vs wasm backend: emission time, payload size, dynamic instrs
package main

import (
	"flag"
	"fmt"
	"os"

	"thorin/internal/bench"
)

func main() {
	var (
		table    = flag.Int("table", 0, "print table N (1-6)")
		figure   = flag.String("figure", "", "print figure: runtime | sweep")
		ablation = flag.String("ablation", "", "print ablation: consing | schedule | mem2reg | all")
		all      = flag.Bool("all", false, "print every table, figure and ablation")
		fast     = flag.Bool("fast", false, "use reduced problem sizes")
		alloc    = flag.Bool("alloc", false, "measure compile throughput (ns/op, allocs/op, bytes/op) and emit JSON")
		incr     = flag.Bool("incremental", false, "measure incremental-vs-full pipeline work (ns/op, scope builds, skipped runs) and emit JSON")
		loadtest = flag.Bool("loadtest", false, "load-test an in-process thorind (N clients × bench corpus, cold vs warm cache) and emit JSON")
		clients  = flag.Int("clients", 8, "with -loadtest: concurrent clients in the warm phase")
		rounds   = flag.Int("rounds", 5, "with -loadtest: warm sweeps over the corpus per client")
		modload  = flag.Bool("modload", false, "load-test thorind's separate-compilation path (shared-import module set, single-leaf edits on a warm cache) and emit JSON")
		leaves   = flag.Int("leaves", 16, "with -modload: leaf modules importing the shared util module")
		edits    = flag.Int("edits", 8, "with -modload: single-leaf edit requests after the cold build")
		memory   = flag.Bool("memory", false, "measure the effect-region memory pipeline (promoted slots, hoisted loads, VM instructions) against the before arm of the -o or -diff report and emit JSON")
		backends = flag.Bool("backends", false, "compare the vm and wasm backends over the suite (emission ns/op, payload bytes, dynamic instructions; checksum parity enforced) and emit JSON")
		overload = flag.Bool("overload", false, "storm thorind with more retrying clients than compile slots, record shed rate and p50/p99 latency, and emit JSON")
		stormers = flag.Int("stormers", 8, "with -overload: concurrent retrying clients")
		perEach  = flag.Int("per-client", 3, "with -overload: distinct cold compiles per client")
		diffFile = flag.String("diff", "", "with -incremental/-memory: compare against this committed report and fail on a >10% regression instead of writing")
		outFile  = flag.String("o", "", "with -alloc/-incremental/-memory: write the JSON report to this file (default stdout); for -alloc an existing report's baseline (or, failing that, its current numbers) is carried forward as the baseline, for -memory the existing report's before arm")
	)
	flag.Parse()

	if *alloc {
		if err := runAlloc(*outFile, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *incr {
		if err := runIncremental(*outFile, *diffFile, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *loadtest {
		if err := runLoadTest(*outFile, *clients, *rounds, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *modload {
		if err := runModLoad(*outFile, *leaves, *edits, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *memory {
		if err := runMemory(*outFile, *diffFile, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *overload {
		if err := runOverload(*outFile, *stormers, *perEach, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *backends {
		if err := runBackends(*outFile, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		return
	}

	var sizes bench.Sizes
	if *fast {
		sizes = bench.Sizes{
			"fib": 18, "mapreduce": 3000, "filter": 3000, "compose": 3000,
			"mandelbrot": 16, "nbody": 200, "spectralnorm": 16, "qsort": 1000,
			"matmul": 12, "nqueens": 7,
		}
	}

	out := os.Stdout
	ran := false
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(out)
		ran = true
	}

	if *all || *table == 1 {
		check(bench.Table1(out, sizes))
	}
	if *all || *table == 2 {
		check(bench.Table2(out, sizes))
	}
	if *all || *figure == "runtime" {
		check(bench.FigureRuntime(out, sizes))
	}
	if *all || *figure == "sweep" {
		check(bench.FigureSweep(out))
	}
	if *all || *table == 3 {
		check(bench.Table3(out))
	}
	if *all || *table == 4 {
		check(bench.Table4(out))
	}
	if *all || *table == 5 {
		check(bench.TablePasses(out))
	}
	if *all || *table == 6 {
		check(bench.TableJobs(out))
	}
	if *all || *ablation == "consing" || *ablation == "all" {
		check(bench.AblationConsing(out))
	}
	if *all || *ablation == "schedule" || *ablation == "all" {
		check(bench.AblationSchedule(out, sizes))
	}
	if *all || *ablation == "mem2reg" || *ablation == "all" {
		check(bench.AblationMem2Reg(out, sizes))
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runAlloc measures compile throughput and writes the JSON trajectory. When
// the output file already holds a report, its baseline survives (so
// regenerating BENCH_pr4.json keeps the pre-optimization numbers to compare
// against); a report without a baseline promotes its current numbers.
func runAlloc(outFile string, fast bool) error {
	rep := bench.ThroughputReport{
		Note: "compile throughput: ns/op, allocs/op, bytes/op per workload; baseline = before the allocation-lean IR core (PR 4)",
		Fast: fast,
	}
	if outFile != "" {
		if f, err := os.Open(outFile); err == nil {
			old, rerr := bench.ReadThroughputReport(f)
			f.Close()
			// A baseline measured at a different problem scale is not
			// comparable; only carry it forward when the modes match.
			if rerr == nil && old.Fast == fast {
				rep.Baseline = old.Baseline
				if rep.Baseline == nil {
					rep.Baseline = old.Current
				}
			}
		}
	}
	rep.Current = bench.MeasureThroughput(fast)

	out := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteThroughputJSON(out, rep); err != nil {
		return err
	}
	if outFile != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d workloads)\n", outFile, len(rep.Current))
	}
	return nil
}

// runLoadTest runs the thorind cold-vs-warm load test and writes the JSON
// report (BENCH_pr6.json when committed).
func runLoadTest(outFile string, clients, rounds int, fast bool) error {
	rep, err := bench.MeasureLoad(clients, rounds, fast)
	if err != nil {
		return err
	}
	out := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteLoadJSON(out, rep); err != nil {
		return err
	}
	if outFile != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d programs, %d storm requests, %.1fx warm speedup)\n",
			outFile, len(rep.Cases), rep.StormRequests, rep.SpeedupX)
	}
	return nil
}

// runModLoad runs the shared-import separate-compilation load test and
// writes the JSON report (BENCH_pr7.json when committed). fast shrinks the
// module set for smoke runs.
func runModLoad(outFile string, leaves, edits int, fast bool) error {
	if fast {
		leaves, edits = 6, 3
	}
	rep, err := bench.MeasureModuleLoad(leaves, edits, fast)
	if err != nil {
		return err
	}
	out := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteModLoadJSON(out, rep); err != nil {
		return err
	}
	if outFile != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d modules, %d edits, %.1fx edit speedup over cold build)\n",
			outFile, rep.Modules, rep.Edits, rep.EditSpeedupX)
	}
	return nil
}

// runOverload runs the shed/retry storm and writes the JSON report
// (BENCH_pr8.json when committed). fast shrinks the storm for smoke runs.
func runOverload(outFile string, clients, perClient int, fast bool) error {
	if fast {
		clients, perClient = 6, 2
	}
	rep, err := bench.MeasureOverload(clients, perClient, fast)
	if err != nil {
		return err
	}
	out := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteOverloadJSON(out, rep); err != nil {
		return err
	}
	if outFile != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d clients vs %d slots: %.0f%% shed rate, %d retries, p99 %.0fms)\n",
			outFile, rep.Clients, rep.MaxInFlight, 100*rep.ShedRate, rep.Retries, float64(rep.P99Ns)/1e6)
	}
	return nil
}

// runBackends measures the vm-vs-wasm backend comparison (checksum parity
// is enforced inside the measurement) and writes BENCH_pr10.json.
func runBackends(outFile string, fast bool) error {
	rep, err := bench.MeasureBackends(fast)
	if err != nil {
		return err
	}
	out := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return bench.WriteBackendsJSON(out, rep)
}

// runMemory measures the effect-region memory pipeline (BENCH_pr9.json when
// committed). The before arm cannot be rebuilt, since the region consumers
// are always on, so it is carried from the committed report: diffFile when
// set, else the existing outFile. With diffFile set it acts as a
// regression gate: the fresh measurement must stay within 10% of the
// committed report's VM instruction count.
func runMemory(outFile, diffFile string, fast bool) error {
	baseFile := diffFile
	if baseFile == "" {
		baseFile = outFile
	}
	if baseFile == "" {
		return fmt.Errorf("-memory needs a committed report to carry the before arm from: pass -o or -diff with an existing BENCH_pr9.json")
	}
	f, err := os.Open(baseFile)
	if err != nil {
		return err
	}
	old, err := bench.ReadMemoryReport(f)
	f.Close()
	if err != nil {
		return err
	}
	rep, err := bench.MeasureMemory(fast, old)
	if err != nil {
		return err
	}

	if diffFile != "" {
		if err := bench.DiffMemory(old, rep, 10); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "memory bench within 10%% of %s (%d → %d VM instructions)\n",
			diffFile, old.After.VMInstructions, rep.After.VMInstructions)
		return nil
	}

	out := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteMemoryJSON(out, rep); err != nil {
		return err
	}
	if outFile != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (+%d promoted slots, %d hoisted loads, %.1f%% fewer VM instructions)\n",
			outFile, rep.PromotedSlotDelta, rep.After.HoistedLoads, rep.InstrSavedPct)
	}
	return nil
}

// runIncremental measures the incremental-vs-full pipeline comparison. With
// diffFile set it acts as a regression gate instead: the fresh measurement
// is compared against the committed report and any workload whose
// incremental optimize time regressed by more than 10% fails the run.
func runIncremental(outFile, diffFile string, fast bool) error {
	rep, err := bench.MeasureIncremental(fast)
	if err != nil {
		return err
	}

	if diffFile != "" {
		f, err := os.Open(diffFile)
		if err != nil {
			return err
		}
		old, rerr := bench.ReadIncrementalReport(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		if err := bench.DiffIncremental(old, rep, 10); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "incremental bench within 10%% of %s (%d workloads)\n", diffFile, len(rep.Cases))
		return nil
	}

	out := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteIncrementalJSON(out, rep); err != nil {
		return err
	}
	if outFile != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d workloads)\n", outFile, len(rep.Cases))
	}
	return nil
}
