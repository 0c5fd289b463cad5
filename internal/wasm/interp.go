package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrFuel is returned when execution exceeds the instance's fuel budget.
// It plays the role vm.ErrStepLimit plays for the bytecode VM.
var ErrFuel = errors.New("wasm: fuel exhausted")

// Trap is a wasm runtime trap (or a host-function error carrier).
type Trap struct{ Msg string }

func (t *Trap) Error() string { return "wasm: trap: " + t.Msg }

func trapf(format string, args ...any) error {
	return &Trap{Msg: fmt.Sprintf(format, args...)}
}

// HostFunc implements an imported function. Arguments and results are
// passed as raw 64-bit values (f64 as IEEE bits, i32 zero-extended).
type HostFunc struct {
	Type FuncType
	Fn   func(args []uint64) ([]uint64, error)
}

// instr is one pre-decoded instruction.
type instr struct {
	op  byte
	imm int64 // index / depth / constant (f64 as bits) / memarg offset
	x   int32 // structured control: matching end index
	y   int32 // if: else index, or -1
}

// fnBody is a pre-decoded function body.
type fnBody struct {
	typeIdx int
	nLocals int // declared locals beyond parameters
	code    []instr
}

// rtCtrl is a runtime control-stack entry.
type rtCtrl struct {
	isLoop bool
	start  int32 // loop: pc of the first body instruction
	cont   int32 // block/if: pc just past the matching end
	arity  int8
	height int32
}

// Instance is an instantiated module ready to execute.
type Instance struct {
	m       *Module
	bodies  []fnBody
	mem     []byte
	globals []uint64
	table   []int32 // function index per slot, -1 when uninitialized
	hosts   []*HostFunc

	// Fuel is the remaining instruction budget; execution returns ErrFuel
	// when it runs out. NewInstance seeds an effectively unlimited budget.
	Fuel int64

	// Per-invocation state: the value stack, plus the locals and control
	// entries of every active frame, each a slice of one shared stack.
	stack  []uint64
	locals []uint64
	ctrl   []rtCtrl
	frames int
}

const maxFrames = 20000

// NewInstance decodes bodies, resolves imports against hosts (keyed
// "module.name"), and applies global, data, and element initialization.
// The module must have been validated.
func NewInstance(m *Module, hosts map[string]HostFunc) (*Instance, error) {
	in := &Instance{m: m, Fuel: 1 << 62,
		stack: make([]uint64, 0, 64), locals: make([]uint64, 0, 64), ctrl: make([]rtCtrl, 0, 16)}
	for i := range m.Imports {
		im := &m.Imports[i]
		h, ok := hosts[im.Module+"."+im.Name]
		if !ok {
			return nil, fmt.Errorf("wasm: unresolved import %s.%s", im.Module, im.Name)
		}
		if !h.Type.Equal(m.Types[im.TypeIdx]) {
			return nil, fmt.Errorf("wasm: import %s.%s: host signature mismatch", im.Module, im.Name)
		}
		hc := h
		in.hosts = append(in.hosts, &hc)
	}
	for i := range m.Funcs {
		body, err := predecode(m.Funcs[i].Code)
		if err != nil {
			return nil, fmt.Errorf("wasm: function %d: %w", len(m.Imports)+i, err)
		}
		in.bodies = append(in.bodies, fnBody{
			typeIdx: m.Funcs[i].TypeIdx,
			nLocals: len(m.Funcs[i].Locals),
			code:    body,
		})
	}
	for _, g := range m.Globals {
		v, err := constValue(g.Init)
		if err != nil {
			return nil, err
		}
		in.globals = append(in.globals, v)
	}
	if m.HasMemory {
		in.mem = make([]byte, m.MemMin*PageSize)
	}
	for _, d := range m.Data {
		if int(d.Offset)+len(d.Bytes) > len(in.mem) {
			return nil, fmt.Errorf("wasm: data segment out of bounds")
		}
		copy(in.mem[d.Offset:], d.Bytes)
	}
	if m.HasTable {
		in.table = make([]int32, m.TableMin)
		for i := range in.table {
			in.table[i] = -1
		}
	}
	for _, e := range m.Elems {
		if int(e.Offset)+len(e.Funcs) > len(in.table) {
			return nil, fmt.Errorf("wasm: element segment out of bounds")
		}
		for i, f := range e.Funcs {
			in.table[int(e.Offset)+i] = int32(f)
		}
	}
	return in, nil
}

func constValue(init []byte) (uint64, error) {
	r := &reader{data: init}
	op, _ := r.byte()
	switch op {
	case OpI32Const:
		v, err := r.sleb()
		if err != nil {
			return 0, err
		}
		return uint64(uint32(v)), nil
	case OpI64Const:
		v, err := r.sleb()
		if err != nil {
			return 0, err
		}
		return uint64(v), nil
	case OpF64Const:
		b, err := r.bytes(8)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b), nil
	}
	return 0, fmt.Errorf("wasm: unsupported constant expression")
}

// predecode turns body bytes into instrs with block/if ends resolved.
func predecode(code []byte) ([]instr, error) {
	var out []instr
	var open []int // indices of unpatched block/loop/if instrs
	r := &reader{data: code}
	for !r.done() {
		op, err := r.byte()
		if err != nil {
			return nil, err
		}
		ins := instr{op: op, y: -1}
		switch op {
		case OpBlock, OpLoop, OpIf:
			bt, err := r.byte()
			if err != nil {
				return nil, err
			}
			if bt != BlockEmpty {
				switch ValType(bt) {
				case I32, I64, F32, F64:
					ins.imm = 1 // arity
				default:
					return nil, fmt.Errorf("invalid block type")
				}
			}
			open = append(open, len(out))
		case OpElse:
			if len(open) == 0 {
				return nil, fmt.Errorf("else outside if")
			}
			out[open[len(open)-1]].y = int32(len(out))
		case OpEnd:
			if len(open) > 0 {
				i := open[len(open)-1]
				open = open[:len(open)-1]
				out[i].x = int32(len(out))
				if out[i].y >= 0 {
					// The else instr also needs the end index to jump over
					// the false arm when the true arm finishes.
					out[out[i].y].x = int32(len(out))
				}
			}
		case OpBr, OpBrIf, OpCall, OpLocalGet, OpLocalSet, OpLocalTee,
			OpGlobalGet, OpGlobalSet:
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			ins.imm = int64(v)
		case OpCallIndirect:
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			ins.imm = int64(v)
			if _, err := r.byte(); err != nil { // table index
				return nil, err
			}
		case OpI32Load, OpI64Load, OpF64Load, OpI32Store, OpI64Store, OpF64Store:
			if _, err := r.u32(); err != nil { // align
				return nil, err
			}
			off, err := r.u32()
			if err != nil {
				return nil, err
			}
			ins.imm = int64(off)
		case OpMemSize, OpMemGrow:
			if _, err := r.byte(); err != nil {
				return nil, err
			}
		case OpI32Const, OpI64Const:
			v, err := r.sleb()
			if err != nil {
				return nil, err
			}
			ins.imm = v
		case OpF64Const:
			b, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			ins.imm = int64(binary.LittleEndian.Uint64(b))
		default:
			if _, ok := simpleOps[op]; !ok {
				switch op {
				case OpUnreachable, OpNop, OpReturn, OpDrop, OpSelect:
				default:
					return nil, fmt.Errorf("unknown opcode 0x%02x", op)
				}
			}
		}
		out = append(out, ins)
	}
	if len(open) != 0 {
		return nil, fmt.Errorf("unclosed block")
	}
	return out, nil
}

// frame is one active call. It lives on the Go stack; its locals and
// control entries live in the instance's shared stacks from the bases on.
type frame struct {
	fi    int // function index
	pc    int
	base  int // value-stack height at entry, arguments popped
	lbase int // first local in in.locals
	cbase int // first control entry in in.ctrl
}

// Invoke calls an exported function by name.
func (in *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	var fi = -1
	for _, e := range in.m.Exports {
		if e.Name == name && e.Kind == ExtFunc {
			fi = e.Idx
			break
		}
	}
	if fi < 0 {
		return nil, fmt.Errorf("wasm: no exported function %q", name)
	}
	sig, err := in.m.TypeOfFunc(fi)
	if err != nil {
		return nil, err
	}
	if len(args) != len(sig.Params) {
		return nil, fmt.Errorf("wasm: %q takes %d arguments, got %d", name, len(sig.Params), len(args))
	}
	// A trap leaves frames behind; drop them before the next run.
	in.stack = append(in.stack[:0], args...)
	in.locals, in.ctrl, in.frames = in.locals[:0], in.ctrl[:0], 0
	if err := in.call(fi); err != nil {
		return nil, err
	}
	res := append([]uint64(nil), in.stack...)
	in.stack = in.stack[:0]
	return res, nil
}

// Memory exposes the instance's linear memory (nil if none).
func (in *Instance) Memory() []byte { return in.mem }

// call invokes function index fi taking its arguments from the top of
// the value stack and leaving its results there.
func (in *Instance) call(fi int) error {
	if fi < len(in.hosts) {
		return in.callHost(fi)
	}
	f, err := in.pushFrame(fi)
	if err != nil {
		return err
	}
	return in.run(&f)
}

func (in *Instance) callHost(fi int) error {
	h := in.hosts[fi]
	n := len(h.Type.Params)
	if len(in.stack) < n {
		return trapf("host call underflow")
	}
	args := in.stack[len(in.stack)-n:]
	res, err := h.Fn(append([]uint64(nil), args...))
	if err != nil {
		return err
	}
	in.stack = in.stack[:len(in.stack)-n]
	in.stack = append(in.stack, res...)
	return nil
}

// pushFrame moves the callee's arguments from the value stack into fresh
// locals, followed by its zeroed declared locals.
func (in *Instance) pushFrame(fi int) (frame, error) {
	if in.frames >= maxFrames {
		return frame{}, trapf("call stack exhausted")
	}
	in.frames++
	body := &in.bodies[fi-len(in.hosts)]
	sig := in.m.Types[body.typeIdx]
	n := len(sig.Params)
	if len(in.stack) < n {
		return frame{}, trapf("call underflow")
	}
	f := frame{fi: fi, base: len(in.stack) - n, lbase: len(in.locals), cbase: len(in.ctrl)}
	in.locals = append(in.locals, in.stack[f.base:]...)
	for range body.nLocals {
		in.locals = append(in.locals, 0)
	}
	in.stack = in.stack[:f.base]
	return f, nil
}

// popFrame leaves f's arity results where its arguments were and drops
// its locals and control entries.
func (in *Instance) popFrame(f *frame, arity int) {
	in.frames--
	copy(in.stack[f.base:], in.stack[len(in.stack)-arity:])
	in.stack = in.stack[:f.base+arity]
	in.locals = in.locals[:f.lbase]
	in.ctrl = in.ctrl[:f.cbase]
}

func (in *Instance) push(v uint64) { in.stack = append(in.stack, v) }

func (in *Instance) pop() uint64 {
	v := in.stack[len(in.stack)-1]
	in.stack = in.stack[:len(in.stack)-1]
	return v
}

// branch transfers control to label depth d within frame f.
func (in *Instance) branch(f *frame, d int) {
	e := in.ctrl[len(in.ctrl)-1-d]
	h := f.base + int(e.height)
	if e.isLoop {
		in.stack = in.stack[:h]
		in.ctrl = in.ctrl[:len(in.ctrl)-d]
		f.pc = int(e.start)
		return
	}
	ar := int(e.arity)
	copy(in.stack[h:], in.stack[len(in.stack)-ar:])
	in.stack = in.stack[:h+ar]
	in.ctrl = in.ctrl[:len(in.ctrl)-1-d]
	f.pc = int(e.cont)
}

// run executes frame f to completion.
func (in *Instance) run(f *frame) error {
	body := &in.bodies[f.fi-len(in.hosts)]
	code := body.code
	resultArity := len(in.m.Types[body.typeIdx].Results)
	locals := in.locals[f.lbase:]
	for {
		if f.pc >= len(code) {
			in.popFrame(f, resultArity)
			return nil
		}
		if in.Fuel <= 0 {
			return ErrFuel
		}
		in.Fuel--
		ins := &code[f.pc]
		f.pc++
		switch ins.op {
		case OpUnreachable:
			return trapf("unreachable executed")
		case OpNop:
		case OpBlock, OpLoop, OpIf:
			if ins.op == OpIf && uint32(in.pop()) == 0 {
				if ins.y < 0 { // no else arm: skip past the end
					f.pc = int(ins.x) + 1
					break
				}
				f.pc = int(ins.y) + 1
			}
			in.ctrl = append(in.ctrl, rtCtrl{
				isLoop: ins.op == OpLoop, start: int32(f.pc), cont: ins.x + 1,
				arity: int8(ins.imm), height: int32(len(in.stack) - f.base),
			})
		case OpElse:
			// True arm finished: jump to the matching end, which pops.
			f.pc = int(ins.x)
		case OpEnd:
			if len(in.ctrl) == f.cbase {
				in.popFrame(f, resultArity)
				return nil
			}
			in.ctrl = in.ctrl[:len(in.ctrl)-1]
		case OpBr, OpBrIf:
			if ins.op == OpBrIf && uint32(in.pop()) == 0 {
				break
			}
			if int(ins.imm) >= len(in.ctrl)-f.cbase {
				in.popFrame(f, resultArity)
				return nil
			}
			in.branch(f, int(ins.imm))
		case OpReturn:
			in.popFrame(f, resultArity)
			return nil
		case OpCall:
			if err := in.call(int(ins.imm)); err != nil {
				return err
			}
			locals = in.locals[f.lbase:] // the callee may have moved them
		case OpCallIndirect:
			idx := uint32(in.pop())
			if int(idx) >= len(in.table) {
				return trapf("undefined element")
			}
			target := in.table[idx]
			if target < 0 {
				return trapf("uninitialized element")
			}
			want := in.m.Types[ins.imm]
			got, err := in.m.TypeOfFunc(int(target))
			if err != nil {
				return err
			}
			if !got.Equal(want) {
				return trapf("indirect call type mismatch")
			}
			if err := in.call(int(target)); err != nil {
				return err
			}
			locals = in.locals[f.lbase:]
		case OpDrop:
			in.pop()
		case OpSelect:
			c := uint32(in.pop())
			v2 := in.pop()
			v1 := in.pop()
			if c != 0 {
				in.push(v1)
			} else {
				in.push(v2)
			}
		case OpLocalGet:
			in.push(locals[ins.imm])
		case OpLocalSet:
			locals[ins.imm] = in.pop()
		case OpLocalTee:
			locals[ins.imm] = in.stack[len(in.stack)-1]
		case OpGlobalGet:
			in.push(in.globals[ins.imm])
		case OpGlobalSet:
			in.globals[ins.imm] = in.pop()
		case OpI32Load:
			a, err := in.effAddr(ins, 4)
			if err != nil {
				return err
			}
			in.push(uint64(binary.LittleEndian.Uint32(in.mem[a:])))
		case OpI64Load, OpF64Load:
			a, err := in.effAddr(ins, 8)
			if err != nil {
				return err
			}
			in.push(binary.LittleEndian.Uint64(in.mem[a:]))
		case OpI32Store:
			v := in.pop()
			a, err := in.effAddr(ins, 4)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(in.mem[a:], uint32(v))
		case OpI64Store, OpF64Store:
			v := in.pop()
			a, err := in.effAddr(ins, 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(in.mem[a:], v)
		case OpMemSize:
			in.push(uint64(len(in.mem) / PageSize))
		case OpMemGrow:
			delta := uint32(in.pop())
			cur := len(in.mem) / PageSize
			limit := 1 << 16
			if in.m.MemMax > 0 {
				limit = in.m.MemMax
			}
			if int(delta) > limit-cur {
				in.push(uint64(uint32(0xFFFFFFFF)))
			} else {
				in.mem = append(in.mem, make([]byte, int(delta)*PageSize)...)
				in.push(uint64(uint32(cur)))
			}
		case OpI32Const:
			in.push(uint64(uint32(ins.imm)))
		case OpI64Const:
			in.push(uint64(ins.imm))
		case OpF64Const:
			in.push(uint64(ins.imm))
		default:
			if err := in.simple(ins.op); err != nil {
				return err
			}
		}
	}
}

func (in *Instance) effAddr(ins *instr, size uint64) (uint64, error) {
	base := uint32(in.pop())
	a := uint64(base) + uint64(ins.imm)
	if a+size > uint64(len(in.mem)) {
		return 0, trapf("out of bounds memory access")
	}
	return a, nil
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// simple executes a context-free value instruction.
func (in *Instance) simple(op byte) error {
	switch op {
	case OpI32Eqz:
		in.push(b2i(uint32(in.pop()) == 0))
	case OpI32Eq:
		c, b := uint32(in.pop()), uint32(in.pop())
		in.push(b2i(b == c))
	case OpI32Ne:
		c, b := uint32(in.pop()), uint32(in.pop())
		in.push(b2i(b != c))
	case OpI32Add:
		c, b := uint32(in.pop()), uint32(in.pop())
		in.push(uint64(b + c))
	case OpI32Sub:
		c, b := uint32(in.pop()), uint32(in.pop())
		in.push(uint64(b - c))
	case OpI32And:
		c, b := uint32(in.pop()), uint32(in.pop())
		in.push(uint64(b & c))
	case OpI32Or:
		c, b := uint32(in.pop()), uint32(in.pop())
		in.push(uint64(b | c))
	case OpI64Eqz:
		in.push(b2i(in.pop() == 0))
	case OpI64Eq:
		c, b := in.pop(), in.pop()
		in.push(b2i(b == c))
	case OpI64Ne:
		c, b := in.pop(), in.pop()
		in.push(b2i(b != c))
	case OpI64LtS:
		c, b := int64(in.pop()), int64(in.pop())
		in.push(b2i(b < c))
	case OpI64LtU:
		c, b := in.pop(), in.pop()
		in.push(b2i(b < c))
	case OpI64GtS:
		c, b := int64(in.pop()), int64(in.pop())
		in.push(b2i(b > c))
	case OpI64GtU:
		c, b := in.pop(), in.pop()
		in.push(b2i(b > c))
	case OpI64LeS:
		c, b := int64(in.pop()), int64(in.pop())
		in.push(b2i(b <= c))
	case OpI64LeU:
		c, b := in.pop(), in.pop()
		in.push(b2i(b <= c))
	case OpI64GeS:
		c, b := int64(in.pop()), int64(in.pop())
		in.push(b2i(b >= c))
	case OpI64GeU:
		c, b := in.pop(), in.pop()
		in.push(b2i(b >= c))
	case OpF64Eq, OpF64Ne, OpF64Lt, OpF64Gt, OpF64Le, OpF64Ge:
		c := math.Float64frombits(in.pop())
		b := math.Float64frombits(in.pop())
		var r bool
		switch op {
		case OpF64Eq:
			r = b == c
		case OpF64Ne:
			r = b != c
		case OpF64Lt:
			r = b < c
		case OpF64Gt:
			r = b > c
		case OpF64Le:
			r = b <= c
		case OpF64Ge:
			r = b >= c
		}
		in.push(b2i(r))
	case OpI64Add:
		c, b := in.pop(), in.pop()
		in.push(b + c)
	case OpI64Sub:
		c, b := in.pop(), in.pop()
		in.push(b - c)
	case OpI64Mul:
		c, b := in.pop(), in.pop()
		in.push(b * c)
	case OpI64DivS:
		c, b := int64(in.pop()), int64(in.pop())
		if c == 0 {
			return trapf("integer divide by zero")
		}
		if b == math.MinInt64 && c == -1 {
			return trapf("integer overflow")
		}
		in.push(uint64(b / c))
	case OpI64DivU:
		c, b := in.pop(), in.pop()
		if c == 0 {
			return trapf("integer divide by zero")
		}
		in.push(b / c)
	case OpI64RemS:
		c, b := int64(in.pop()), int64(in.pop())
		if c == 0 {
			return trapf("integer divide by zero")
		}
		if c == -1 {
			in.push(0)
		} else {
			in.push(uint64(b % c))
		}
	case OpI64RemU:
		c, b := in.pop(), in.pop()
		if c == 0 {
			return trapf("integer divide by zero")
		}
		in.push(b % c)
	case OpI64And:
		c, b := in.pop(), in.pop()
		in.push(b & c)
	case OpI64Or:
		c, b := in.pop(), in.pop()
		in.push(b | c)
	case OpI64Xor:
		c, b := in.pop(), in.pop()
		in.push(b ^ c)
	case OpI64Shl:
		c, b := in.pop(), in.pop()
		in.push(b << (c & 63))
	case OpI64ShrS:
		c, b := in.pop(), in.pop()
		in.push(uint64(int64(b) >> (c & 63)))
	case OpI64ShrU:
		c, b := in.pop(), in.pop()
		in.push(b >> (c & 63))
	case OpF64Abs:
		in.push(math.Float64bits(math.Abs(math.Float64frombits(in.pop()))))
	case OpF64Neg:
		in.push(in.pop() ^ (1 << 63))
	case OpF64Sqrt:
		in.push(math.Float64bits(math.Sqrt(math.Float64frombits(in.pop()))))
	case OpF64Add, OpF64Sub, OpF64Mul, OpF64Div:
		c := math.Float64frombits(in.pop())
		b := math.Float64frombits(in.pop())
		var r float64
		switch op {
		case OpF64Add:
			r = b + c
		case OpF64Sub:
			r = b - c
		case OpF64Mul:
			r = b * c
		case OpF64Div:
			r = b / c
		}
		in.push(math.Float64bits(r))
	case OpI32WrapI64:
		in.push(uint64(uint32(in.pop())))
	case OpI64ExtendI32S:
		in.push(uint64(int64(int32(uint32(in.pop())))))
	case OpI64ExtendI32U:
		in.push(uint64(uint32(in.pop())))
	case OpF32DemoteF64:
		in.push(uint64(math.Float32bits(float32(math.Float64frombits(in.pop())))))
	case OpF64ConvertI64S:
		in.push(math.Float64bits(float64(int64(in.pop()))))
	case OpF64ConvertI64U:
		in.push(math.Float64bits(float64(in.pop())))
	case OpF64PromoteF32:
		in.push(math.Float64bits(float64(math.Float32frombits(uint32(in.pop())))))
	case OpI64ReinterpretF64, OpF64ReinterpretI64:
		// Bit pattern is the representation: no-op.
	default:
		return trapf("unimplemented opcode 0x%02x", op)
	}
	return nil
}
