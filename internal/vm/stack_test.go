package vm

import (
	"reflect"
	"testing"
)

// The register stack starts at 4*NumRegs+16 values of the called function
// and doubles on demand. These hand-built programs make it move between a
// call and its return, inside a closure call and at a tail call deep in the
// stack. Results and counters are pinned to the values of the VM that
// allocated a frame per call, so the stack discipline cannot move them.

// deepSum is sum(n) = n == 0 ? 0 : n + sum(n-1), by non-tail recursion.
func deepSum() *Program {
	main := &Func{
		Name: "main", NumRegs: 2, ParamRegs: []int{0},
		Blocks: []Block{{Name: "entry", Start: 0}, {Name: "k", Start: 1}},
		Code: []Instr{
			{Op: OpCall, Imm: 1, Args: []int{0}, Rets: []int{1}, C: 1},
			{Op: OpRet, Args: []int{1}},
		},
	}
	sum := &Func{
		Name: "sum", NumRegs: 6, ParamRegs: []int{0},
		Blocks: []Block{
			{Name: "entry", Start: 0}, {Name: "rec", Start: 3},
			{Name: "k", Start: 6}, {Name: "done", Start: 8},
		},
		Code: []Instr{
			{Op: OpConstI, A: 1, Imm: 0},
			{Op: OpEqI, A: 2, B: 0, C: 1},
			{Op: OpBr, A: 2, B: 3, C: 1},
			// rec
			{Op: OpConstI, A: 3, Imm: 1},
			{Op: OpSubI, A: 3, B: 0, C: 3},
			{Op: OpCall, Imm: 1, Args: []int{3}, Rets: []int{4}, C: 2},
			// k: the caller's n must have survived the move
			{Op: OpAddI, A: 5, B: 0, C: 4},
			{Op: OpRet, Args: []int{5}},
			// done
			{Op: OpRet, Args: []int{1}},
		},
	}
	return &Program{Funcs: []*Func{main, sum}, Main: 0}
}

// envCall calls a closure whose 64-register window does not fit the
// initial stack, so its env arguments land in a reallocated window. The
// callee also reads a register nobody wrote, which must be zero.
func envCall() *Program {
	main := &Func{
		Name: "main", NumRegs: 4, ParamRegs: []int{0},
		Blocks: []Block{{Name: "entry", Start: 0}, {Name: "k", Start: 4}},
		Code: []Instr{
			{Op: OpConstI, A: 2, Imm: 100},
			{Op: OpClosureNew, A: 1, Imm: 1, Args: []int{0, 2}},
			{Op: OpConstI, A: 3, Imm: 7},
			{Op: OpCallClosure, B: 1, Args: []int{3}, Rets: []int{3}, C: 1},
			{Op: OpRet, Args: []int{3}},
		},
	}
	addEnv := &Func{
		Name: "addenv", NumRegs: 64, ParamRegs: []int{0, 62, 63}, // x, env x0, env 100
		Blocks: []Block{{Name: "entry", Start: 0}},
		Code: []Instr{
			{Op: OpAddI, A: 1, B: 0, C: 62},
			{Op: OpAddI, A: 1, B: 1, C: 63},
			{Op: OpAddI, A: 1, B: 1, C: 10}, // r10 is never written
			{Op: OpRet, Args: []int{1}},
		},
	}
	return &Program{Funcs: []*Func{main, addEnv}, Main: 0}
}

// multiRet returns two values, (x+1, x*2), into two caller registers in
// swapped order; main returns (x+1 - x*2, x*2).
func multiRet() *Program {
	main := &Func{
		Name: "main", NumRegs: 4, ParamRegs: []int{0},
		Blocks: []Block{{Name: "entry", Start: 0}, {Name: "k", Start: 1}},
		Code: []Instr{
			{Op: OpCall, Imm: 1, Args: []int{0}, Rets: []int{2, 1}, C: 1},
			{Op: OpSubI, A: 3, B: 2, C: 1},
			{Op: OpRet, Args: []int{3, 1}},
		},
	}
	pair := &Func{
		Name: "pair", NumRegs: 4, ParamRegs: []int{0},
		Blocks: []Block{{Name: "entry", Start: 0}},
		Code: []Instr{
			{Op: OpConstI, A: 1, Imm: 1},
			{Op: OpAddI, A: 2, B: 0, C: 1},
			{Op: OpAddI, A: 3, B: 0, C: 0},
			{Op: OpRet, Args: []int{2, 3}},
		},
	}
	return &Program{Funcs: []*Func{main, pair}, Main: 0}
}

// deepTail recurses down(n) without tail calls; at the bottom it writes
// 99 into r5 and tail-calls leaf(99), whose 40-register window replaces
// down's and outgrows the stack. leaf reads r5 unwritten, so it must see
// zero, not down's 99. The frames above then add their n on the way out.
func deepTail() *Program {
	main := &Func{
		Name: "main", NumRegs: 2, ParamRegs: []int{0},
		Blocks: []Block{{Name: "entry", Start: 0}, {Name: "k", Start: 1}},
		Code: []Instr{
			{Op: OpCall, Imm: 1, Args: []int{0}, Rets: []int{1}, C: 1},
			{Op: OpRet, Args: []int{1}},
		},
	}
	down := &Func{
		Name: "down", NumRegs: 6, ParamRegs: []int{0},
		Blocks: []Block{
			{Name: "entry", Start: 0}, {Name: "rec", Start: 3},
			{Name: "k", Start: 6}, {Name: "bottom", Start: 8},
		},
		Code: []Instr{
			{Op: OpConstI, A: 1, Imm: 0},
			{Op: OpEqI, A: 2, B: 0, C: 1},
			{Op: OpBr, A: 2, B: 3, C: 1},
			// rec
			{Op: OpConstI, A: 3, Imm: 1},
			{Op: OpSubI, A: 4, B: 0, C: 3},
			{Op: OpCall, Imm: 1, Args: []int{4}, Rets: []int{5}, C: 2},
			// k
			{Op: OpAddI, A: 5, B: 5, C: 0},
			{Op: OpRet, Args: []int{5}},
			// bottom
			{Op: OpConstI, A: 5, Imm: 99},
			{Op: OpTailCall, Imm: 2, Args: []int{5}},
		},
	}
	leaf := &Func{
		Name: "leaf", NumRegs: 40, ParamRegs: []int{0},
		Blocks: []Block{{Name: "entry", Start: 0}},
		Code: []Instr{
			{Op: OpAddI, A: 1, B: 0, C: 5},
			{Op: OpRet, Args: []int{1}},
		},
	}
	return &Program{Funcs: []*Func{main, down, leaf}, Main: 0}
}

func TestRegisterStackGrowth(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		arg  int64
		want []int64
		cnt  Counters
	}{
		{"deep-recursion", deepSum(), 1000, []int64{500500}, Counters{
			Instructions: 8006, DirectCalls: 1001, Branches: 1001, MaxStackDepth: 1002}},
		{"closure-env", envCall(), 5, []int64{112}, Counters{
			Instructions: 9, IndirectCalls: 1, ClosureAllocs: 1, HeapWords: 3, MaxStackDepth: 2}},
		{"multi-ret", multiRet(), 20, []int64{-19, 40}, Counters{
			Instructions: 7, DirectCalls: 1, MaxStackDepth: 2}},
		{"deep-tail", deepTail(), 50, []int64{1374}, Counters{
			Instructions: 409, DirectCalls: 51, TailCalls: 1, Branches: 51, MaxStackDepth: 52}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(c.prog, nil)
			res, err := m.Run(Value{I: c.arg})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, len(res))
			for i, v := range res {
				got[i] = v.I
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("results = %v, want %v", got, c.want)
			}
			if m.Counters != c.cnt {
				t.Errorf("counters = %+v\nwant       %+v", m.Counters, c.cnt)
			}
		})
	}
}

// TestPointerEncoding covers element pointers (lea of an element pointer
// re-bases on its array; len sees through it), cell pointers, and the
// messages of every pointer trap.
func TestPointerEncoding(t *testing.T) {
	run := func(code []Instr, arg int64) (int64, error) {
		f := &Func{Name: "p", NumRegs: 8, ParamRegs: []int{0}, Blocks: []Block{{Name: "entry"}}, Code: code}
		res, err := New(&Program{Funcs: []*Func{f}}, nil).Run(Value{I: arg})
		if err != nil {
			return 0, err
		}
		return res[0].I, nil
	}
	got, err := run([]Instr{
		{Op: OpArrayNew, A: 1, B: 0},  // a = array(n)
		{Op: OpLea, A: 2, B: 1, C: 0}, // p = &a[n], one past the end
		{Op: OpConstI, A: 3, Imm: 1},  //
		{Op: OpLea, A: 4, B: 2, C: 3}, // q = lea p, 1: &a[1], not &a[n+1]
		{Op: OpConstI, A: 5, Imm: 40}, //
		{Op: OpPtrStore, A: 4, B: 5},  // a[1] = 40
		{Op: OpSlotNew, A: 6},         // c = new cell
		{Op: OpPtrStore, A: 6, B: 5},  // *c = 40
		{Op: OpPtrLoad, A: 7, B: 6},   //
		{Op: OpArrayLen, A: 3, B: 2},  // len(p) = n
		{Op: OpAddI, A: 7, B: 7, C: 3},
		{Op: OpPtrLoad, A: 3, B: 4},
		{Op: OpAddI, A: 7, B: 7, C: 3},
		{Op: OpRet, Args: []int{7}},
	}, 4)
	if err != nil || got != 84 {
		t.Fatalf("got %d, %v; want 84", got, err)
	}

	traps := []struct {
		code []Instr
		want string
	}{
		{[]Instr{{Op: OpArrayNew, A: 1, B: 0}, {Op: OpLea, A: 2, B: 1, C: 0}, {Op: OpPtrLoad, A: 3, B: 2}},
			"vm: p: load: index 4 out of bounds [0,4)"},
		{[]Instr{{Op: OpArrayNew, A: 1, B: 0}, {Op: OpConstI, A: 3, Imm: -1}, {Op: OpLea, A: 2, B: 1, C: 3}, {Op: OpPtrStore, A: 2, B: 0}},
			"vm: p: store: index -1 out of bounds [0,4)"},
		{[]Instr{{Op: OpPtrLoad, A: 3, B: 0}}, "vm: p: load through non-pointer"},
		{[]Instr{{Op: OpArrayNew, A: 1, B: 0}, {Op: OpPtrStore, A: 1, B: 0}}, "vm: p: store through non-pointer"},
		{[]Instr{{Op: OpSlotNew, A: 1}, {Op: OpLea, A: 2, B: 1, C: 0}}, "vm: p: lea into non-array"},
		{[]Instr{{Op: OpSlotNew, A: 1}, {Op: OpArrayLen, A: 2, B: 1}}, "vm: p: len of non-array"},
	}
	for _, tc := range traps {
		if _, err := run(tc.code, 4); err == nil || err.Error() != tc.want {
			t.Errorf("got error %v, want %q", err, tc.want)
		}
	}
}
