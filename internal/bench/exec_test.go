package bench

import (
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/driver"
	"thorin/internal/transform"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

// The execution engines are measured per arm: one suite program, in one
// style, compiled at -O2 for one engine. One benchmark operation is one
// execution of main(n) as perfbench's suite-exec runs it: a fresh VM, or a
// wasm decode, instantiation and invoke. Run one arm with
//
//	go test -run='^$' -bench='Exec/fib/fun/vm' -benchmem ./internal/bench
//
// Under -short, n shrinks as backendsN(p, true) shrinks it.

// backendsN picks an arm's problem size: DefaultN, or with shrink set a
// tenth of it for the array and iteration workloads (those whose DefaultN
// exceeds 100), so the wasm interpreter finishes in test time.
func backendsN(p *Program, shrink bool) int64 {
	if !shrink || p.DefaultN <= 100 {
		return p.DefaultN
	}
	return p.DefaultN / 10
}

// o2 is the canonical -O2 spec.
var o2 = transform.SpecFor(transform.OptAll())

func compileArm(tb testing.TB, src, spec string, target backend.Target) *driver.Result {
	tb.Helper()
	res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{Jobs: 1, Target: target})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func BenchmarkExec(b *testing.B) {
	for i := range Suite {
		p := &Suite[i]
		n := backendsN(p, testing.Short())
		for _, style := range []string{"fun", "imp"} {
			src := p.Functional
			if style == "imp" {
				src = p.Imperative
			}
			for _, target := range []backend.Target{backend.VM, backend.Wasm} {
				b.Run(p.Name+"/"+style+"/"+string(target), func(b *testing.B) {
					res := compileArm(b, src, o2, target)
					b.ReportAllocs()
					b.ResetTimer()
					for k := 0; k < b.N; k++ {
						var err error
						if target == backend.VM {
							_, _, err = driver.Exec(res.Program, io.Discard, n)
						} else {
							_, err = driver.ExecWasm(res.Wasm, io.Discard, 0, n)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestExecAllocsIndependentOfN guards allocation-free execution. Once an
// engine has run a program (so its stacks have grown), executing the -O2
// functional fib, compose and mandelbrot arms at n and at 2n makes the
// same number of Go allocations on the VM and on wasm: no call, pointer,
// branch or return allocates.
func TestExecAllocsIndependentOfN(t *testing.T) {
	sizes := map[string]int64{"fib": 8, "compose": 100, "mandelbrot": 6}
	for i := range Suite {
		p := &Suite[i]
		n, ok := sizes[p.Name]
		if !ok {
			continue
		}
		t.Run(p.Name+"/vm", func(t *testing.T) {
			m := vm.New(compileArm(t, p.Functional, o2, backend.VM).Program, nil)
			allocs := func(n int64) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := m.Run(vm.Value{I: n}); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := allocs(n), allocs(2*n); a != b {
				t.Errorf("%v allocations per run at n=%d, %v at n=%d", a, n, b, 2*n)
			}
		})
		t.Run(p.Name+"/wasm", func(t *testing.T) {
			mod, err := wasm.Decode(compileArm(t, p.Functional, o2, backend.Wasm).Wasm)
			if err != nil {
				t.Fatal(err)
			}
			in, err := wasm.NewInstance(mod, wasmbackend.Host(io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(n int64) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := in.Invoke("main", uint64(n)); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := allocs(n), allocs(2*n); a != b {
				t.Errorf("%v allocations per run at n=%d, %v at n=%d", a, n, b, 2*n)
			}
		})
	}
}
