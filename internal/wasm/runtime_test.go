package wasm

import "testing"

// trapModule exports
//
//	rec(n: i64) -> i64          = n < 1 ? 0 : 1 + rec(n-1)
//	dispatch(i: i32, x: i64) -> i64 = table[i](x), expecting (i64) -> i64
//
// with the table holding rec at 0, a () -> i64 function at 1 and nothing
// at 2; indices from 3 on are out of the table.
func trapModule(t *testing.T) *Instance {
	t.Helper()
	m := &Module{}
	unary := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	nullary := m.AddType(FuncType{Results: []ValType{I64}})
	entry := m.AddType(FuncType{Params: []ValType{I32, I64}, Results: []ValType{I64}})
	m.Funcs = append(m.Funcs,
		Func{TypeIdx: unary, Code: []byte{
			OpLocalGet, 0, OpI64Const, 1, OpI64LtS,
			OpIf, byte(I64),
			OpI64Const, 0,
			OpElse,
			OpI64Const, 1,
			OpLocalGet, 0, OpI64Const, 1, OpI64Sub, OpCall, 0,
			OpI64Add,
			OpEnd, OpEnd}},
		Func{TypeIdx: nullary, Code: []byte{OpI64Const, 7, OpEnd}},
		Func{TypeIdx: entry, Code: []byte{
			OpLocalGet, 1, OpLocalGet, 0, OpCallIndirect, byte(unary), 0, OpEnd}},
	)
	m.HasTable = true
	m.TableMin = 3
	m.Elems = append(m.Elems, Elem{Offset: 0, Funcs: []int{0, 1}})
	m.Exports = append(m.Exports,
		Export{Name: "rec", Kind: ExtFunc, Idx: 0},
		Export{Name: "dispatch", Kind: ExtFunc, Idx: 2})
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	in, err := NewInstance(m, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return in
}

// TestRuntimeTraps checks every call-path trap by its message, and that
// the instance runs a fresh Invoke correctly afterwards. A trap must not
// leave its frames counted, or after rec(1000000) exhausts the call stack
// every later call fails the same way. The follow-up recursion uses all
// maxFrames frames, so a trap that leaked even one frame would fail it.
func TestRuntimeTraps(t *testing.T) {
	in := trapModule(t)
	cases := []struct {
		name string
		fn   string
		args []uint64
		fuel int64
		want string
	}{
		{"undefined-element", "dispatch", []uint64{3, 1}, 0, "wasm: trap: undefined element"},
		{"uninitialized-element", "dispatch", []uint64{2, 1}, 0, "wasm: trap: uninitialized element"},
		{"type-mismatch", "dispatch", []uint64{1, 1}, 0, "wasm: trap: indirect call type mismatch"},
		{"stack-exhausted", "rec", []uint64{1000000}, 0, "wasm: trap: call stack exhausted"},
		{"fuel", "rec", []uint64{1000}, 500, ErrFuel.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in.Fuel = 1 << 40
			if c.fuel > 0 {
				in.Fuel = c.fuel
			}
			if _, err := in.Invoke(c.fn, c.args...); err == nil || err.Error() != c.want {
				t.Fatalf("%s%v: got error %v, want %q", c.fn, c.args, err, c.want)
			}
			in.Fuel = 1 << 40
			if res, err := in.Invoke("rec", maxFrames-1); err != nil || res[0] != maxFrames-1 {
				t.Fatalf("rec(%d) after the trap = %v, %v", maxFrames-1, res, err)
			}
			if res, err := in.Invoke("dispatch", 0, 3); err != nil || res[0] != 3 {
				t.Fatalf("dispatch(0, 3) after the trap = %v, %v", res, err)
			}
		})
	}
}
