GO ?= go

.PHONY: all build test race vet perfbench fmt ci fuzz-smoke fuzz crashers loadtest modules wasm chaos bench bench-full bench-passes tables

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also re-runs the pass-manager and driver packages with four analysis
# workers forced, so the parallel scope scheduler is exercised under the race
# detector even on single-core hosts.
race:
	$(GO) test -race ./...
	THORIN_JOBS=4 $(GO) test -race ./internal/pm/... ./internal/driver/...

vet:
	$(GO) vet ./...

# perfbench type-checks the benchmark harness. perfbench/ is its own Go
# module, so ./... never compiles it; an exported API it imports that goes
# away breaks here instead of at benchmark time.
perfbench:
	$(GO) -C perfbench vet .

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt vet perfbench build race modules wasm fuzz-smoke fuzz crashers loadtest chaos bench

# modules compiles and runs the shipped three-module example (a imports b,
# b imports and re-exports c) through the separate-compilation CLI path in
# both link modes; main(4) must print 34 either way.
modules:
	$(GO) run ./cmd/thorinc -run examples/modules/a.imp examples/modules/b.imp examples/modules/c.imp 4 | grep -qx 'result: 34'
	$(GO) run ./cmd/thorinc -link=mangle -run examples/modules/a.imp examples/modules/b.imp examples/modules/c.imp 4 | grep -qx 'result: 34'

# wasm is the WebAssembly backend gate: every example differentially
# executed against the VM at -O0/-O2 × jobs 1/4 plus multi-module linking
# under both targets, the crasher corpus replayed through the wasm arms of
# diffArms (TestCrashers), explicit module validation, and a CLI round trip
# through -target=wasm.
wasm:
	$(GO) test -run 'TestWasm|TestCrashers' -count=1 ./internal/driver
	$(GO) run ./cmd/thorinc -target=wasm -run examples/fib.imp 10 | grep -qx 'result: 55'

# fuzz-smoke gives the integer-fold fuzzer (seeded with the signed-overflow
# and division edge cases) a short budget; it fails fast on any fold panic.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFoldArith -fuzztime=10s ./internal/ir

# fuzz runs the differential pipeline fuzzer: random well-typed programs,
# reference interpreter as oracle, compiled arms at -O0/-O2 × jobs 1/4.
# Failures are auto-minimized; save the reproducer under
# internal/driver/testdata/crashers/ to turn it into a regression.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/driver

# crashers replays the minimized crasher corpus under the race detector
# with four analysis workers forced.
crashers:
	THORIN_JOBS=4 $(GO) test -race -run TestCrashers ./internal/driver

# loadtest is the compile-server smoke gate: an in-process thorind on an
# ephemeral port serves cold then warm requests (warm ones hit the
# content-addressed cache with identical bytes), concurrent clients on a
# warm cache all hit and the hit/miss counters reconcile exactly, a
# single-module edit recompiles exactly one module artifact, a saturated
# daemon sheds with 429 and a retrying client lands once a slot frees
# (server sheds and retries equal what the client observed), and shutdown
# drains cleanly. Latency and throughput are perfbench's daemon-mix
# workload.
loadtest:
	$(GO) test -run 'TestCompileColdThenWarm|TestConcurrentWarmHits|TestModulesColdWarmEdit|TestShedWhenSaturated|TestRetryAfterShedSucceeds|TestGracefulDrain' -count=1 ./internal/server

# chaos is the deterministic fault-injection gate: the seeded chaos suite
# (injected disk/pass/transport faults against a live daemon; asserts the
# daemon survives, corrupt artifacts are never served, every counter
# reconciles exactly with the injected-fault counts, and surviving results
# are byte-identical to a fault-free run), plus a race-detector smoke of
# the storm. Override the seed with THORIN_CHAOS_SEED=N.
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/server
	$(GO) test -race -run 'TestChaosStorm' -count=1 ./internal/server

# bench is a single-iteration smoke run of every benchmark in
# internal/bench (catches benchmarks that crash or regress into errors).
# It writes no file; wall time and allocations are measured by perfbench.
bench:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./internal/bench

# bench-full runs the whole evaluation harness at laptop scale.
bench-full:
	$(GO) test -bench=. -benchmem -run='^$$'

# bench-passes records the per-pass compile-time breakdown only.
bench-passes:
	$(GO) test -bench=BenchmarkPassTimings -run='^$$'

tables:
	$(GO) run ./cmd/thorin-bench -all -fast
