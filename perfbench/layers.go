package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/link"
	"thorin/internal/pm"
	"thorin/internal/transform"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

// spec is the -O2 pipeline every workload compiles with.
var spec = transform.SpecFor(transform.OptAll())

// budget bounds one execution (VM steps, wasm fuel) at a multiple of the
// reference interpreter's steps, so a miscompiled loop fails within seconds
// instead of hanging the run. On the suite and generated programs the VM
// executes at most 7 and wasm at most 48 instructions per interpreter step.
func (j *job) budget() int64 {
	if j.target == backend.Wasm {
		return 200*j.want.steps + 1_000_000
	}
	return 30*j.want.steps + 1_000_000
}

// artifact is one compiled program: the encoded driver.Artifact and the
// payload executions read.
type artifact struct {
	target  backend.Target
	prog    *vm.Program
	wasm    []byte
	encoded []byte
}

// codeBytes is the generated payload size: the JSON-encoded bytecode for
// the VM (as in the artifact), the module binary for wasm.
func (a *artifact) codeBytes() (int, error) {
	if a.target == backend.Wasm {
		return len(a.wasm), nil
	}
	js, err := json.Marshal(a.prog)
	return len(js), err
}

// compileCounters are the deterministic work counts of one traced compile.
type compileCounters struct {
	tokens, passRuns, skips, rewrites, memoHits int
	scopeBuilds                                 int64
	consRequested, consHits                     int
	conts, primops                              int
}

func (c *compileCounters) add(o compileCounters) {
	c.tokens += o.tokens
	c.passRuns += o.passRuns
	c.skips += o.skips
	c.rewrites += o.rewrites
	c.memoHits += o.memoHits
	c.scopeBuilds += o.scopeBuilds
	c.consRequested += o.consRequested
	c.consHits += o.consHits
	c.conts += o.conts
	c.primops += o.primops
}

// compile turns a job's source into an encoded artifact at -O2. Untraced
// (tr nil) it is one driver.CompileSpec or driver.CompileModules call, as a
// user of the library makes it; traced it is the same work as a chain of
// public layer calls with a span around each, whose counters it returns.
func compile(j *job, jobs int, tr *tracer, op, parent int64) (*artifact, compileCounters, error) {
	if tr != nil {
		return compileTraced(j, jobs, tr, op, parent)
	}
	cfg := driver.Config{Jobs: jobs, Target: j.target}
	var res *driver.Result
	var err error
	if j.src != "" {
		res, err = driver.CompileSpec(j.src, spec, analysis.ScheduleSmart, cfg)
	} else {
		res, err = driver.CompileModules(j.modules, spec, analysis.ScheduleSmart, j.link, cfg)
	}
	if err != nil {
		return nil, compileCounters{}, err
	}
	data, err := driver.NewArtifact(res, res.Spec, "smart").Encode()
	if err != nil {
		return nil, compileCounters{}, err
	}
	return &artifact{target: j.target, prog: res.Program, wasm: res.Wasm, encoded: data}, compileCounters{}, nil
}

// chain carries one traced compile through its layer calls.
type chain struct {
	tr      *tracer
	op, par int64
	jobs    int
	cnt     compileCounters
	err     error
	// cached, when not nil, replays thorind's separate compilation of a
	// module set: the modules in it (by index) are decoded from their
	// module artifact instead of compiled, and the ones compiled are
	// round-tripped through one before linking, as the daemon's per-module
	// cache does.
	cached map[int][]byte
}

func (c *chain) call(name string, f func() error) {
	if c.err != nil {
		return
	}
	c.tr.call(c.op, c.par, name, func() { c.err = f() })
}

// frontend lexes, parses and checks one source. impala.Parse lexes again
// internally; parse self time is reported net of the separate lex call.
func (c *chain) frontend(src string, module bool) *impala.Program {
	var prog *impala.Program
	c.call("impala.lex", func() error {
		toks, err := impala.Lex(src)
		c.cnt.tokens += len(toks)
		return err
	})
	c.call("impala.parse", func() (err error) {
		prog, err = impala.Parse(src)
		return err
	})
	c.call("impala.check", func() error {
		if module {
			return impala.CheckModule(prog)
		}
		return impala.Check(prog)
	})
	return prog
}

// optimize runs a pipeline spec over w and verifies the result, the
// driver's runPipeline step.
func (c *chain) optimize(w *ir.World, spec string) {
	var rep *pm.Report
	builds := analysis.ScopeBuildCount()
	c.call("pm.optimize", func() error {
		pl, err := pm.Parse(spec)
		if err != nil {
			return err
		}
		ctx := pm.NewContext(w)
		ctx.Jobs = c.jobs
		rep, err = pl.Run(ctx)
		return err
	})
	c.cnt.scopeBuilds += analysis.ScopeBuildCount() - builds
	if rep != nil {
		c.cnt.passRuns += len(rep.Runs)
		c.cnt.skips += rep.Skips()
		c.cnt.rewrites += rep.Rewrites()
		c.cnt.memoHits += rep.MemoHits()
	}
	c.call("ir.verify", func() error { return ir.Verify(w) })
}

func (c *chain) intern(w *ir.World) {
	st := w.InternStats()
	c.cnt.consRequested += st.Requested
	c.cnt.consHits += st.ConsHits
}

func compileTraced(j *job, jobs int, tr *tracer, op, parent int64) (*artifact, compileCounters, error) {
	return (&chain{tr: tr, op: op, par: parent, jobs: jobs}).compile(j)
}

// compileFromModuleCache is compileTraced for a module set the daemon
// compiled with the modules in cached (not nil) taken from its per-module
// cache.
func compileFromModuleCache(j *job, cached map[int][]byte, jobs int, tr *tracer, op, parent int64) (*artifact, compileCounters, error) {
	return (&chain{tr: tr, op: op, par: parent, jobs: jobs, cached: cached}).compile(j)
}

func (c *chain) compile(j *job) (*artifact, compileCounters, error) {
	var w *ir.World
	if j.src != "" {
		prog := c.frontend(j.src, false)
		c.call("impala.emit", func() (err error) {
			w, err = impala.EmitProgram(prog)
			return err
		})
		if c.err == nil {
			c.optimize(w, spec)
		}
	} else {
		w = c.modules(j)
	}
	var out *backend.Output
	c.call("backend."+string(j.target)+".emit", func() error {
		be, err := backend.Lookup(j.target)
		if err != nil {
			return err
		}
		out, err = be.Compile(w, "main", backend.Config{Mode: analysis.ScheduleSmart})
		return err
	})
	if c.err != nil {
		return nil, c.cnt, c.err
	}
	c.intern(w)
	st := driver.MeasureIR(w)
	c.cnt.conts += st.Continuations
	c.cnt.primops += st.PrimOps
	res := &driver.Result{World: w, Target: j.target, Program: out.VM, Wasm: out.Wasm, IRStats: st, Spec: spec}
	var data []byte
	c.call("driver.artifact_encode", func() (err error) {
		data, err = driver.NewArtifact(res, spec, "smart").Encode()
		return err
	})
	if c.err != nil {
		return nil, c.cnt, c.err
	}
	return &artifact{target: j.target, prog: out.VM, wasm: out.Wasm, encoded: data}, c.cnt, nil
}

// modules is driver.CompileModules as layer calls: per-module frontend and
// surface, import resolution, one span per module compile (emit, module
// pipeline, verify), link, then the post-link pipeline.
func (c *chain) modules(j *job) *ir.World {
	units := make([]*driver.ModuleUnit, len(j.modules))
	infos := make([]*impala.ModuleInfo, len(j.modules))
	for i, src := range j.modules {
		prog := c.frontend(src, true)
		c.call("impala.check", func() (err error) {
			infos[i], err = impala.ModuleSurface(prog)
			return err
		})
		units[i] = &driver.ModuleUnit{Source: src, Prog: prog, Info: infos[i]}
	}
	c.call("link.resolve", func() error {
		_, err := link.ResolveImports(infos)
		return err
	})
	mods := make([]*link.Module, len(units))
	for i, u := range units {
		if c.err != nil {
			return nil
		}
		if data, ok := c.cached[i]; ok {
			c.call("driver.module_decode", func() (err error) {
				mods[i], err = decodeModule(data)
				return err
			})
			continue
		}
		o := c.tr.begin(c.op, c.par, "link.module_compile")
		outer := c.par
		c.par = o.id()
		var w *ir.World
		var info *impala.ModuleInfo
		c.call("impala.emit", func() (err error) {
			w, info, err = impala.EmitModule(u.Prog)
			return err
		})
		if c.err == nil {
			c.optimize(w, driver.ModuleSpec(spec))
			c.intern(w)
		}
		c.par = outer
		o.end()
		mods[i] = &link.Module{World: w, Info: info}
		if c.cached != nil {
			c.call("driver.module_roundtrip", func() error {
				data, err := driver.NewModuleArtifact(mods[i], driver.ModuleSpec(spec)).Encode()
				if err == nil {
					mods[i], err = decodeModule(data)
				}
				return err
			})
		}
	}
	var w *ir.World
	c.call("link.link", func() (err error) {
		w, err = link.Link(mods, j.link)
		return err
	})
	if c.err == nil {
		c.optimize(w, driver.PostLinkSpec(spec, j.link))
	}
	return w
}

// decodeModule turns an encoded module artifact back into linker input.
func decodeModule(data []byte) (*link.Module, error) {
	a, err := driver.DecodeModuleArtifact(data)
	if err != nil {
		return nil, err
	}
	return a.Module()
}

// execCounters are the deterministic counts of one execution.
type execCounters struct {
	vm   vm.Counters
	fuel int64
}

// execute runs main(j.n) on a compiled artifact and checks the outcome
// against the reference. Untraced it is driver.ExecSteps or driver.ExecWasm;
// traced the wasm path splits into decode, instantiate and invoke spans.
func execute(j *job, a *artifact, tr *tracer, op, parent int64) (execCounters, error) {
	var out bytes.Buffer
	var got int64
	var err error
	var cnt execCounters
	if a.target == backend.VM {
		tr.call(op, parent, "vm.exec", func() {
			got, cnt.vm, err = driver.ExecSteps(a.prog, &out, j.budget(), j.n)
		})
	} else if tr == nil {
		got, err = driver.ExecWasm(a.wasm, &out, j.budget(), j.n)
	} else {
		got, cnt.fuel, err = execWasmTraced(a.wasm, &out, j.n, j.budget(), tr, op, parent)
	}
	if cerr := j.want.check(got, out.String(), err); cerr != nil {
		return cnt, fmt.Errorf("%s: %w", j.name, cerr)
	}
	return cnt, nil
}

func execWasmTraced(mod []byte, out *bytes.Buffer, n, budget int64, tr *tracer, op, parent int64) (int64, int64, error) {
	var m *wasm.Module
	var inst *wasm.Instance
	var err error
	if tr.call(op, parent, "wasm.decode", func() { m, err = wasm.Decode(mod) }); err != nil {
		return 0, 0, err
	}
	if tr.call(op, parent, "wasm.instantiate", func() { inst, err = wasm.NewInstance(m, wasmbackend.Host(out)) }); err != nil {
		return 0, 0, err
	}
	inst.Fuel = budget
	var res []uint64
	tr.call(op, parent, "wasm.exec", func() { res, err = inst.Invoke("main", uint64(n)) })
	fuel := budget - inst.Fuel
	if err != nil {
		return 0, fuel, err
	}
	if len(res) == 0 {
		return 0, fuel, nil
	}
	return int64(res[0]), fuel, nil
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
