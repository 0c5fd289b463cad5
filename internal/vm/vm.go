// Package vm implements a register-based bytecode virtual machine used as
// the execution substrate for the reproduction. The paper's authors compile
// Thorin to native code via LLVM; this VM plays that role while providing
// deterministic cost counters (instructions, closure allocations, direct vs.
// indirect calls) so the experiments measure structure rather than machine
// noise, alongside wall-clock benchmarks.
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Opcode enumerates VM instructions.
type Opcode uint8

// Instruction set. Register operands are denoted A, B, C; Imm is an
// immediate. Call-like instructions use Args (argument registers) and Rets
// (caller registers receiving results).
const (
	OpNop Opcode = iota

	OpConstI // regs[A] = Imm
	OpConstF // regs[A] = F
	OpMov    // regs[A] = regs[B]

	// Integer arithmetic: regs[A] = regs[B] op regs[C].
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpRemI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	// Float arithmetic.
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpRemF

	// Comparisons (result 0/1 in I).
	OpEqI
	OpNeI
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpEqF
	OpNeF
	OpLtF
	OpLeF
	OpGtF
	OpGeF

	OpSelect // regs[A] = regs[B].I != 0 ? regs[C] : regs[Imm]

	OpCastIF // regs[A] = float(regs[B].I)
	OpCastFI // regs[A] = int(regs[B].F)
	OpCastII // regs[A] = truncate(regs[B].I, Imm bits)
	OpCastFF // regs[A] = float32-round(regs[B].F) if Imm==32

	OpJmp // jump to block Imm, copying Args to its param registers

	OpBr // if regs[A].I != 0 jump block B else block C

	// OpCall calls function Imm with Args; on return, Rets receive the
	// results and execution continues at block C.
	OpCall
	// OpTailCall replaces the current frame with a call to function Imm.
	OpTailCall
	// OpCallClosure calls the closure in regs[B] (env appended to Args).
	OpCallClosure
	// OpTailCallClosure tail-calls the closure in regs[B].
	OpTailCallClosure
	// OpRet returns Args to the caller.
	OpRet

	OpClosureNew // regs[A] = closure{fn: Imm, env: Args}
	OpArrayNew   // regs[A] = new array of regs[B].I zero values
	OpArrayLen   // regs[A] = len(regs[B] array)
	OpLea        // regs[A] = &regs[B].array[regs[C].I]
	OpSlotNew    // regs[A] = new cell pointer
	OpGlobalPtr  // regs[A] = pointer to global Imm
	OpPtrLoad    // regs[A] = *regs[B]
	OpPtrStore   // *regs[A] = regs[B]

	OpTupleNew // regs[A] = tuple(Args)
	OpTupleGet // regs[A] = regs[B].tuple[Imm]
	OpTupleSet // regs[A] = regs[B].tuple with [Imm] = regs[C]

	OpPrintI64  // print regs[A].I
	OpPrintF64  // print regs[A].F
	OpPrintChar // print rune regs[A].I

	OpHalt // stop; Args are the program results
)

var opcodeNames = [...]string{
	OpNop: "nop", OpConstI: "const.i", OpConstF: "const.f", OpMov: "mov",
	OpAddI: "add.i", OpSubI: "sub.i", OpMulI: "mul.i", OpDivI: "div.i",
	OpRemI: "rem.i", OpAndI: "and.i", OpOrI: "or.i", OpXorI: "xor.i",
	OpShlI: "shl.i", OpShrI: "shr.i",
	OpAddF: "add.f", OpSubF: "sub.f", OpMulF: "mul.f", OpDivF: "div.f",
	OpRemF: "rem.f",
	OpEqI:  "eq.i", OpNeI: "ne.i", OpLtI: "lt.i", OpLeI: "le.i",
	OpGtI: "gt.i", OpGeI: "ge.i",
	OpEqF: "eq.f", OpNeF: "ne.f", OpLtF: "lt.f", OpLeF: "le.f",
	OpGtF: "gt.f", OpGeF: "ge.f",
	OpSelect: "select",
	OpCastIF: "cast.if", OpCastFI: "cast.fi", OpCastII: "cast.ii", OpCastFF: "cast.ff",
	OpJmp: "jmp", OpBr: "br",
	OpCall: "call", OpTailCall: "tcall",
	OpCallClosure: "call.c", OpTailCallClosure: "tcall.c", OpRet: "ret",
	OpClosureNew: "closure", OpArrayNew: "array.new", OpArrayLen: "array.len",
	OpLea: "lea", OpSlotNew: "slot", OpGlobalPtr: "global",
	OpPtrLoad: "load", OpPtrStore: "store",
	OpTupleNew: "tuple", OpTupleGet: "tuple.get", OpTupleSet: "tuple.set",
	OpPrintI64: "print.i", OpPrintF64: "print.f", OpPrintChar: "print.c",
	OpHalt: "halt",
}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one VM instruction.
type Instr struct {
	Op      Opcode
	A, B, C int
	Imm     int64
	F       float64
	Args    []int
	Rets    []int
}

// Value is a VM value: integers and booleans in I, floats in F, and heap
// entities (closures, arrays, tuples, pointers) in Ref.
//
// A pointer is never boxed: a cell or global pointer is Ref *Value, and a
// pointer to an array element is Ref *elemRef (the array) with the index
// in I. Both are pointer-shaped, so storing them in Ref does not allocate.
type Value struct {
	I   int64
	F   float64
	Ref any
}

// Closure pairs a function index with its captured environment.
type Closure struct {
	Fn  int
	Env []Value
}

// Array is a heap array.
type Array struct {
	Elems []Value
}

// elemRef is the array an element pointer points into; the distinct type
// tells it apart from the array value itself.
type elemRef Array

// arrayOf returns the array behind an array or element-pointer value.
func arrayOf(v Value) (*Array, bool) {
	switch a := v.Ref.(type) {
	case *Array:
		return a, true
	case *elemRef:
		return (*Array)(a), true
	}
	return nil, false
}

// cell returns the storage a pointer value designates for the load or
// store op of fn, checking an element pointer's bounds at the access.
func cell(fn *Func, p Value, op string) (*Value, error) {
	switch ref := p.Ref.(type) {
	case *Value:
		return ref, nil
	case *elemRef:
		if p.I < 0 || p.I >= int64(len(ref.Elems)) {
			return nil, fmt.Errorf("vm: %s: %s: index %d out of bounds [0,%d)", fn.Name, op, p.I, len(ref.Elems))
		}
		return &ref.Elems[p.I], nil
	}
	return nil, fmt.Errorf("vm: %s: %s through non-pointer", fn.Name, op)
}

// Block is the metadata of one basic block within a function.
type Block struct {
	Name      string
	Start     int   // pc of the first instruction
	ParamRegs []int // registers that receive jump arguments
}

// Func is one compiled function.
type Func struct {
	Name      string
	NumRegs   int
	ParamRegs []int // registers receiving call arguments (env included)
	Blocks    []Block
	Code      []Instr
}

// Program is a complete compiled program.
type Program struct {
	Funcs   []*Func
	Main    int
	Globals []Value // initial values of global cells
}

// Counters accumulates deterministic cost metrics during execution.
type Counters struct {
	Instructions  int64
	DirectCalls   int64
	IndirectCalls int64
	TailCalls     int64
	Branches      int64
	ClosureAllocs int64
	ArrayAllocs   int64
	HeapWords     int64
	TupleAllocs   int64
	Loads         int64
	Stores        int64
	MaxStackDepth int64
}

// VM executes a Program.
type VM struct {
	prog    *Program
	globals []Value
	out     io.Writer
	// MaxSteps bounds execution (0 = no bound).
	MaxSteps int64
	Counters Counters

	// regs is the register stack: each frame owns the window of its
	// function's NumRegs registers starting at its base, and a callee's
	// window starts where its caller's ends.
	regs    []Value
	frames  []frame
	scratch []Value // jump and call arguments in flight
}

// New creates a VM for prog writing intrinsic output to out (io.Discard if
// nil).
func New(prog *Program, out io.Writer) *VM {
	if out == nil {
		out = io.Discard
	}
	g := make([]Value, len(prog.Globals))
	copy(g, prog.Globals)
	return &VM{prog: prog, globals: g, out: out}
}

type frame struct {
	fn       *Func
	base     int   // first register of the frame's window
	rets     []int // caller registers receiving the return values
	retBlock int   // caller block to continue at (-1: top level)
}

// ErrStepLimit is returned when MaxSteps is exceeded.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// Run executes the program's main function with the given arguments and
// returns its results.
func (m *VM) Run(args ...Value) ([]Value, error) {
	return m.Call(m.prog.Main, args...)
}

// Call executes function fnIdx with args and returns its results.
func (m *VM) Call(fnIdx int, args ...Value) ([]Value, error) {
	fn := m.prog.Funcs[fnIdx]
	if len(args) != len(fn.ParamRegs) {
		return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, len(fn.ParamRegs), len(args))
	}
	if size := 4*fn.NumRegs + 16; len(m.regs) < size {
		m.regs = make([]Value, size)
		m.frames = make([]frame, 0, 16)
		m.scratch = make([]Value, 0, 16)
	}
	m.frames = append(m.frames[:0], frame{fn: fn, retBlock: -1})
	fr := &m.frames[0]
	r := m.window(0, fn.NumRegs)
	for i, reg := range fn.ParamRegs {
		r[reg] = args[i]
	}
	pc := 0

	for {
		if m.MaxSteps > 0 && m.Counters.Instructions >= m.MaxSteps {
			return nil, ErrStepLimit
		}
		if pc >= len(fn.Code) {
			return nil, fmt.Errorf("vm: %s: fell off code end", fn.Name)
		}
		in := &fn.Code[pc]
		m.Counters.Instructions++

		switch in.Op {
		case OpNop:
		case OpConstI:
			r[in.A] = Value{I: in.Imm}
		case OpConstF:
			r[in.A] = Value{F: in.F}
		case OpMov:
			r[in.A] = r[in.B]

		case OpAddI:
			r[in.A] = Value{I: r[in.B].I + r[in.C].I}
		case OpSubI:
			r[in.A] = Value{I: r[in.B].I - r[in.C].I}
		case OpMulI:
			r[in.A] = Value{I: r[in.B].I * r[in.C].I}
		case OpDivI:
			if r[in.C].I == 0 {
				return nil, fmt.Errorf("vm: %s: division by zero", fn.Name)
			}
			if r[in.B].I == math.MinInt64 && r[in.C].I == -1 {
				// Two's-complement wrap, matching the constant folder; the
				// native operation panics on this pair.
				r[in.A] = Value{I: math.MinInt64}
			} else {
				r[in.A] = Value{I: r[in.B].I / r[in.C].I}
			}
		case OpRemI:
			if r[in.C].I == 0 {
				return nil, fmt.Errorf("vm: %s: remainder by zero", fn.Name)
			}
			if r[in.C].I == -1 {
				r[in.A] = Value{I: 0}
			} else {
				r[in.A] = Value{I: r[in.B].I % r[in.C].I}
			}
		case OpAndI:
			r[in.A] = Value{I: r[in.B].I & r[in.C].I}
		case OpOrI:
			r[in.A] = Value{I: r[in.B].I | r[in.C].I}
		case OpXorI:
			r[in.A] = Value{I: r[in.B].I ^ r[in.C].I}
		case OpShlI:
			r[in.A] = Value{I: r[in.B].I << (uint64(r[in.C].I) & 63)}
		case OpShrI:
			r[in.A] = Value{I: r[in.B].I >> (uint64(r[in.C].I) & 63)}

		case OpAddF:
			r[in.A] = Value{F: r[in.B].F + r[in.C].F}
		case OpSubF:
			r[in.A] = Value{F: r[in.B].F - r[in.C].F}
		case OpMulF:
			r[in.A] = Value{F: r[in.B].F * r[in.C].F}
		case OpDivF:
			r[in.A] = Value{F: r[in.B].F / r[in.C].F}
		case OpRemF:
			r[in.A] = Value{F: math.Mod(r[in.B].F, r[in.C].F)}

		case OpEqI:
			r[in.A] = boolVal(r[in.B].I == r[in.C].I)
		case OpNeI:
			r[in.A] = boolVal(r[in.B].I != r[in.C].I)
		case OpLtI:
			r[in.A] = boolVal(r[in.B].I < r[in.C].I)
		case OpLeI:
			r[in.A] = boolVal(r[in.B].I <= r[in.C].I)
		case OpGtI:
			r[in.A] = boolVal(r[in.B].I > r[in.C].I)
		case OpGeI:
			r[in.A] = boolVal(r[in.B].I >= r[in.C].I)
		case OpEqF:
			r[in.A] = boolVal(r[in.B].F == r[in.C].F)
		case OpNeF:
			r[in.A] = boolVal(r[in.B].F != r[in.C].F)
		case OpLtF:
			r[in.A] = boolVal(r[in.B].F < r[in.C].F)
		case OpLeF:
			r[in.A] = boolVal(r[in.B].F <= r[in.C].F)
		case OpGtF:
			r[in.A] = boolVal(r[in.B].F > r[in.C].F)
		case OpGeF:
			r[in.A] = boolVal(r[in.B].F >= r[in.C].F)

		case OpSelect:
			if r[in.B].I != 0 {
				r[in.A] = r[in.C]
			} else {
				r[in.A] = r[int(in.Imm)]
			}

		case OpCastIF:
			r[in.A] = Value{F: float64(r[in.B].I)}
		case OpCastFI:
			r[in.A] = Value{I: int64(r[in.B].F)}
		case OpCastII:
			r[in.A] = Value{I: truncBits(r[in.B].I, int(in.Imm))}
		case OpCastFF:
			v := r[in.B].F
			if in.Imm == 32 {
				v = float64(float32(v))
			}
			r[in.A] = Value{F: v}

		case OpJmp:
			b := &fn.Blocks[in.Imm]
			args := m.gather(r, in.Args)
			for i, p := range b.ParamRegs {
				r[p] = args[i]
			}
			pc = b.Start
			continue

		case OpBr:
			m.Counters.Branches++
			if r[in.A].I != 0 {
				pc = fn.Blocks[in.B].Start
			} else {
				pc = fn.Blocks[in.C].Start
			}
			continue

		case OpCall, OpTailCall, OpCallClosure, OpTailCallClosure:
			callee := int(in.Imm)
			args := m.gather(r, in.Args)
			if in.Op == OpCallClosure || in.Op == OpTailCallClosure {
				clo, ok := r[in.B].Ref.(*Closure)
				if !ok {
					return nil, fmt.Errorf("vm: %s: call through non-closure", fn.Name)
				}
				callee = clo.Fn
				args = append(args, clo.Env...)
				m.scratch = args
				m.Counters.IndirectCalls++
			}
			base := fr.base
			if in.Op == OpTailCall || in.Op == OpTailCallClosure {
				m.Counters.TailCalls++
			} else {
				if in.Op == OpCall {
					m.Counters.DirectCalls++
				}
				base += fn.NumRegs
				m.frames = append(m.frames, frame{base: base, rets: in.Rets, retBlock: in.C})
				fr = &m.frames[len(m.frames)-1]
			}
			fn = m.prog.Funcs[callee]
			fr.fn = fn
			r = m.window(base, fn.NumRegs)
			for i, v := range args {
				r[fn.ParamRegs[i]] = v
			}
			pc = 0
			if d := int64(len(m.frames)); d > m.Counters.MaxStackDepth {
				m.Counters.MaxStackDepth = d
			}
			continue

		case OpRet:
			if fr.retBlock < 0 {
				return results(r, in.Args), nil
			}
			if len(in.Args) != len(fr.rets) {
				return nil, fmt.Errorf("vm: %s returned %d values, caller expects %d",
					fn.Name, len(in.Args), len(fr.rets))
			}
			// The caller's window lies below the callee's, so the results
			// move directly.
			rets, retBlock := fr.rets, fr.retBlock
			m.frames = m.frames[:len(m.frames)-1]
			fr = &m.frames[len(m.frames)-1]
			fn = fr.fn
			cr := m.regs[fr.base : fr.base+fn.NumRegs]
			for i, reg := range rets {
				cr[reg] = r[in.Args[i]]
			}
			r, pc = cr, fn.Blocks[retBlock].Start
			continue

		case OpClosureNew:
			env := make([]Value, len(in.Args))
			for i, a := range in.Args {
				env[i] = r[a]
			}
			m.Counters.ClosureAllocs++
			m.Counters.HeapWords += int64(len(env)) + 1
			r[in.A] = Value{Ref: &Closure{Fn: int(in.Imm), Env: env}}

		case OpArrayNew:
			n := r[in.B].I
			if n < 0 {
				return nil, fmt.Errorf("vm: %s: negative array size %d", fn.Name, n)
			}
			m.Counters.ArrayAllocs++
			m.Counters.HeapWords += n
			r[in.A] = Value{Ref: &Array{Elems: make([]Value, n)}}

		case OpArrayLen:
			arr, ok := arrayOf(r[in.B])
			if !ok {
				return nil, fmt.Errorf("vm: %s: len of non-array", fn.Name)
			}
			r[in.A] = Value{I: int64(len(arr.Elems))}

		case OpLea:
			// Address computation is speculatable (optimizers may hoist it
			// above the guarding branch); bounds are checked at the access.
			arr, ok := arrayOf(r[in.B])
			if !ok {
				return nil, fmt.Errorf("vm: %s: lea into non-array", fn.Name)
			}
			r[in.A] = Value{I: r[in.C].I, Ref: (*elemRef)(arr)}

		case OpSlotNew:
			m.Counters.HeapWords++
			r[in.A] = Value{Ref: new(Value)}

		case OpGlobalPtr:
			r[in.A] = Value{Ref: &m.globals[in.Imm]}

		case OpPtrLoad:
			c, err := cell(fn, r[in.B], "load")
			if err != nil {
				return nil, err
			}
			m.Counters.Loads++
			r[in.A] = *c

		case OpPtrStore:
			c, err := cell(fn, r[in.A], "store")
			if err != nil {
				return nil, err
			}
			m.Counters.Stores++
			*c = r[in.B]

		case OpTupleNew:
			vals := make([]Value, len(in.Args))
			for i, a := range in.Args {
				vals[i] = r[a]
			}
			m.Counters.TupleAllocs++
			m.Counters.HeapWords += int64(len(vals))
			r[in.A] = Value{Ref: vals}

		case OpTupleGet:
			tup, ok := r[in.B].Ref.([]Value)
			if !ok {
				return nil, fmt.Errorf("vm: %s: tuple.get on non-tuple", fn.Name)
			}
			r[in.A] = tup[in.Imm]

		case OpTupleSet:
			tup, ok := r[in.B].Ref.([]Value)
			if !ok {
				return nil, fmt.Errorf("vm: %s: tuple.set on non-tuple", fn.Name)
			}
			nv := make([]Value, len(tup))
			copy(nv, tup)
			nv[in.Imm] = r[in.C]
			m.Counters.TupleAllocs++
			r[in.A] = Value{Ref: nv}

		case OpPrintI64:
			fmt.Fprintf(m.out, "%d\n", r[in.A].I)
		case OpPrintF64:
			fmt.Fprintf(m.out, "%.9g\n", r[in.A].F)
		case OpPrintChar:
			fmt.Fprintf(m.out, "%c", rune(r[in.A].I))

		case OpHalt:
			return results(r, in.Args), nil

		default:
			return nil, fmt.Errorf("vm: %s: bad opcode %v", fn.Name, in.Op)
		}
		pc++
	}
}

// window returns the zeroed register window of n registers at base,
// doubling the register stack when it is too short. No pointer into the
// stack outlives a call, so moving it is safe.
func (m *VM) window(base, n int) []Value {
	if base+n > len(m.regs) {
		size := 2 * len(m.regs)
		for size < base+n {
			size *= 2
		}
		regs := make([]Value, size)
		copy(regs, m.regs[:base])
		m.regs = regs
	}
	w := m.regs[base : base+n : base+n]
	clear(w)
	return w
}

// gather copies the registers regs of window r into the scratch slice, so
// a jump's parallel copy or a tail call's argument move can overwrite r.
func (m *VM) gather(r []Value, regs []int) []Value {
	s := m.scratch[:0]
	for _, a := range regs {
		s = append(s, r[a])
	}
	m.scratch = s
	return s
}

// results copies the registers regs of window r into a fresh slice.
func results(r []Value, regs []int) []Value {
	vals := make([]Value, len(regs))
	for i, a := range regs {
		vals[i] = r[a]
	}
	return vals
}

func boolVal(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{}
}

func truncBits(v int64, bits int) int64 {
	switch bits {
	case 1:
		if v != 0 {
			return 1
		}
		return 0
	case 8:
		return int64(int8(v))
	case 16:
		return int64(int16(v))
	case 32:
		return int64(int32(v))
	default:
		return v
	}
}
