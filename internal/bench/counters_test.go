package bench

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"

	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/driver"
	"thorin/internal/transform"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

// suiteCountersFile pins what every suite arm costs on both execution
// engines: the VM's counters and the wasm fuel spent are deterministic, so
// a change to the compile path or to either interpreter that moves one of
// them shows up here as an exact diff. Regenerate (only after a deliberate
// change) with:
//
//	THORIN_UPDATE_GOLDEN=1 go test -run TestSuiteCounters ./internal/bench
const suiteCountersFile = "testdata/suite_counters.json"

// armCounters is one arm's record: a suite program in one style at one
// optimization level, executed at n on the VM and on wasm.
type armCounters struct {
	N         int64       `json:"n"`
	Result    int64       `json:"result"`
	VM        vm.Counters `json:"vm"`
	WasmFuel  int64       `json:"wasm_fuel"`
	WasmBytes int         `json:"wasm_bytes"`
}

// measureArm compiles src under spec for both engines, executes main(n) on
// each and requires that they agree on the result.
func measureArm(t *testing.T, src, spec string, n int64) armCounters {
	t.Helper()
	got, counters, err := driver.Exec(compileArm(t, src, spec, backend.VM).Program, io.Discard, n)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	payload := compileArm(t, src, spec, backend.Wasm).Wasm
	mod, err := wasm.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	in, err := wasm.NewInstance(mod, wasmbackend.Host(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	const fuel = int64(1) << 40
	in.Fuel = fuel
	vals, err := in.Invoke("main", uint64(n))
	if err != nil {
		t.Fatalf("wasm: %v", err)
	}
	if w := int64(vals[0]); w != got {
		t.Fatalf("engines disagree: vm=%d wasm=%d", got, w)
	}
	return armCounters{N: n, Result: got, VM: counters, WasmFuel: fuel - in.Fuel, WasmBytes: len(payload)}
}

// TestSuiteCounters runs the 40 arms — every suite program, functional and
// imperative, at -O0 and -O2 — at backendsN(p, true) and compares each
// arm's record exactly with the golden file.
func TestSuiteCounters(t *testing.T) {
	levels := []struct{ name, spec string }{{"O0", transform.SpecFor(transform.OptNone())}, {"O2", o2}}
	got := map[string]armCounters{}
	for i := range Suite {
		p := &Suite[i]
		n := backendsN(p, true)
		for _, style := range []string{"fun", "imp"} {
			src := p.Functional
			if style == "imp" {
				src = p.Imperative
			}
			for _, lv := range levels {
				key := p.Name + "/" + style + "/" + lv.name
				t.Run(key, func(t *testing.T) { got[key] = measureArm(t, src, lv.spec, n) })
			}
		}
	}
	if t.Failed() {
		return
	}

	if os.Getenv("THORIN_UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteCountersFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d arms)", suiteCountersFile, len(got))
		return
	}

	data, err := os.ReadFile(suiteCountersFile)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with THORIN_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string]armCounters{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: in golden file but not measured (suite changed?)", k)
		} else if g != want[k] {
			t.Errorf("%s:\n  measured %+v\n  golden   %+v", k, g, want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("measured %d arms, golden file has %d", len(got), len(want))
	}
}
