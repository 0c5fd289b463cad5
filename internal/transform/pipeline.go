package transform

import "thorin/internal/ir"

// Options selects which passes the optimizer runs. The zero value runs
// nothing but the always-required lowering (cleanup + closure conversion).
type Options struct {
	// Mangle enables conversion to control-flow form via lambda mangling —
	// the paper's headline transformation.
	Mangle bool
	// Mem2Reg promotes stack slots to continuation parameters (SSA
	// construction inside the IR).
	Mem2Reg bool
	// PartialEval specializes calls with literal arguments.
	PartialEval bool
	// InlineOnce inlines continuations with a single call site.
	InlineOnce bool
	// Contify specializes functions whose call sites all share one return
	// continuation, fusing them into the caller's control flow.
	Contify bool
}

// OptAll enables every optimization.
func OptAll() Options {
	return Options{Mangle: true, Mem2Reg: true, PartialEval: true, InlineOnce: true, Contify: true}
}

// OptNone disables all optimizations; only the lowering required for code
// generation (closure conversion) runs. This is the paper's "unoptimized"
// arm: every higher-order call pays for a closure.
func OptNone() Options { return Options{} }

// OptMangleOnly enables only CFF conversion — isolates the effect of
// lambda mangling for the ablation benchmarks.
func OptMangleOnly() Options { return Options{Mangle: true, Mem2Reg: true} }

// Stats aggregates the per-pass statistics of one optimizer run.
type Stats struct {
	Cleanup   CleanupStats
	CFF       CFFStats
	Mem2Reg   Mem2RegStats
	PE        PEStats
	Inlined   int
	Contified int
	Closure   ClosureStats
}

// Optimize runs the canonical pipeline for opts over w and lowers the
// result so a backend can consume it (all residual first-class functions
// become closures). It is a thin wrapper over the pass manager: the pass
// order is SpecFor(opts), with the optimization passes iterated to a
// fixpoint. Callers that need the per-pass instrumentation should use
// RunPipeline (or the driver's CompileSpec) instead.
func Optimize(w *ir.World, opts Options) Stats {
	st, _, err := RunPipeline(w, SpecFor(opts))
	if err != nil {
		// Canonical specs parse by construction and the standard passes
		// never fail, so any error here is a programming error.
		panic("transform: canonical pipeline failed: " + err.Error())
	}
	return st
}

// must unwraps a (value, error) pair for the legacy pipeline, where every
// pass invocation is well-formed by construction.
func must[T any](v T, err error) T {
	if err != nil {
		panic("transform: legacy pipeline failed: " + err.Error())
	}
	return v
}

// OptimizeLegacy is the frozen pre-pass-manager pipeline: every pass runs
// exactly once in the original hardcoded order (including the redundant
// post-mangling Cleanup). It is retained as the reference arm of the
// pipeline-equivalence tests and must not be changed.
func OptimizeLegacy(w *ir.World, opts Options) Stats {
	var st Stats
	st.Cleanup = Cleanup(w)
	if opts.PartialEval {
		st.PE = must(PartialEval(w))
	}
	if opts.Mangle {
		st.CFF = must(LowerToCFF(w))
		Cleanup(w)
	}
	if opts.Contify {
		st.Contified = must(Contify(w))
	}
	if opts.Mem2Reg {
		st.Mem2Reg = Mem2Reg(w)
	}
	if opts.InlineOnce {
		st.Inlined = InlineOnce(w)
	}
	Cleanup(w)
	st.Closure = must(ClosureConvert(w))
	return st
}
