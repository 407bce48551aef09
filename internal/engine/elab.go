package engine

import (
	"fmt"

	"llhd/internal/ir"
	"llhd/internal/val"
)

// Instance describes one elaborated occurrence of a unit: its hierarchical
// name, the binding of signal-typed IR values to elaborated nets, and the
// constants the elaborator could evaluate ahead of time.
//
// Both tables are dense, indexed by the unit's ir.Numbering, so execution
// engines can seed flat frames with a copy instead of hashing interface
// keys.
type Instance struct {
	Unit *ir.Unit
	Name string

	num *ir.Numbering
	// binds[id] is the elaborated signal reference of the value numbered id
	// (arguments, sig results, signal projections); valid iff bound[id].
	// Nil for function instances, which bind nothing.
	binds []SigRef
	bound []bool
	// consts[id] is the elaboration-time value of the pure instruction
	// numbered id; valid iff isConst[id]. Nil unless the unit is an entity:
	// the elaborator folds constants nowhere else.
	consts  []val.Value
	isConst []bool
}

// NewInstance creates an empty instance of the unit with its tables sized
// for the unit's numbering, so the read paths are one bounds check and the
// write paths never allocate.
func NewInstance(u *ir.Unit, name string) *Instance {
	inst := &Instance{Unit: u, Name: name, num: u.Numbering()}
	n := inst.num.Len()
	if u.Kind != ir.UnitFunc {
		inst.binds = make([]SigRef, n)
		inst.bound = make([]bool, n)
	}
	if u.Kind == ir.UnitEntity {
		inst.consts = make([]val.Value, n)
		inst.isConst = make([]bool, n)
	}
	return inst
}

// Numbering returns the value numbering the instance tables are indexed by.
func (inst *Instance) Numbering() *ir.Numbering { return inst.num }

// SetBind records the elaborated signal reference of v. Values that are not
// numbered in the unit are ignored.
func (inst *Instance) SetBind(v ir.Value, r SigRef) {
	if id := ir.ValueID(v); id >= 0 && id < len(inst.binds) {
		inst.binds[id] = r
		inst.bound[id] = true
	}
}

// BindOf resolves v to its elaborated signal reference.
func (inst *Instance) BindOf(v ir.Value) (SigRef, bool) {
	if id := ir.ValueID(v); id >= 0 && id < len(inst.binds) && inst.bound[id] {
		return inst.binds[id], true
	}
	return SigRef{}, false
}

// ConstOf resolves v to its elaboration-time constant value.
func (inst *Instance) ConstOf(v ir.Value) (val.Value, bool) {
	if id := ir.ValueID(v); id >= 0 && id < len(inst.consts) && inst.isConst[id] {
		return inst.consts[id], true
	}
	return val.Value{}, false
}

// BindTable exposes the dense bind table (indexed by value ID) for engines
// that seed flat frames; nil for a function instance. Callers must treat
// them as read-only.
func (inst *Instance) BindTable() (refs []SigRef, bound []bool) {
	return inst.binds, inst.bound
}

// ConstTable exposes the dense constant table (indexed by value ID) for
// engines that seed flat frames; nil unless the unit is an entity. Callers
// must treat them as read-only.
func (inst *Instance) ConstTable() (vals []val.Value, set []bool) {
	return inst.consts, inst.isConst
}

// ProcFactory builds a simulation actor for a unit instance. The reference
// interpreter returns an interpreting process; the compiled simulator
// returns one running lowered bytecode. Entities are passed here too: the
// factory runs their reactive body (everything not evaluated into Consts).
type ProcFactory func(inst *Instance) (Process, error)

// Elaborate instantiates the design hierarchy rooted at the named top
// entity (or process), creating signals and processes on the engine. It
// starts with ir.CheckShape: every engine is built through here, so the
// elaborator, the interpreter and the bytecode lowering index operands,
// assume kind legality, take operand types as the opcode's and follow
// callees and branch targets only behind that check, and a malformed or
// ill-typed module is the same input error from all of them. Blaze relies
// on the types for what it does not test at run time (two compared
// integers have one width); the interpreter, the reference, keeps its own
// run-time checks.
func Elaborate(e *Engine, m *ir.Module, top string, factory ProcFactory) error {
	if err := ir.CheckShape(m); err != nil {
		return err
	}
	u := m.Unit(top)
	if u == nil {
		return fmt.Errorf("engine: top unit @%s not found", top)
	}
	el := &elaborator{e: e, m: m, factory: factory}
	// The top unit's ports become free signals initialized to defaults.
	var ins, outs []SigRef
	for _, a := range u.Inputs {
		s := e.NewSignal(top+"."+a.ValueName(), a.Type().Elem, val.Default(a.Type().Elem))
		ins = append(ins, SigRef{Sig: s})
	}
	for _, a := range u.Outputs {
		s := e.NewSignal(top+"."+a.ValueName(), a.Type().Elem, val.Default(a.Type().Elem))
		outs = append(outs, SigRef{Sig: s})
	}
	return el.instantiate(u, top, ins, outs)
}

type elaborator struct {
	e       *Engine
	m       *ir.Module
	factory ProcFactory
	nInst   int
}

// instantiate elaborates one instance of u on ins and outs, one signal per
// port: ir.CheckShape held each inst to its callee's ports, and the top
// unit's are made one by one.
func (el *elaborator) instantiate(u *ir.Unit, name string, ins, outs []SigRef) error {
	inst := NewInstance(u, name)
	for i, a := range u.Inputs {
		inst.SetBind(a, ins[i])
	}
	for i, a := range u.Outputs {
		inst.SetBind(a, outs[i])
	}

	switch u.Kind {
	case ir.UnitProc:
		p, err := el.factory(inst)
		if err != nil {
			return err
		}
		el.e.AddProcess(p, true)
		return nil
	case ir.UnitEntity:
		return el.entity(inst)
	default:
		return fmt.Errorf("engine: cannot instantiate function @%s", u.Name)
	}
}

// entity elaborates an entity instance: evaluates constants, creates local
// signals, recurses into sub-instances, wires con forwarding, and hands
// the residual reactive body to the factory.
func (el *elaborator) entity(inst *Instance) error {
	u := inst.Unit
	reactive := 0
	for _, in := range u.Body().Insts {
		switch in.Op {
		case ir.OpSig:
			init, ok := inst.ConstOf(in.Args[0])
			if !ok {
				return fmt.Errorf("engine: %s: sig initializer %s is not elaboration-time constant",
					inst.Name, in.Args[0])
			}
			sigName := inst.Name + "." + in.ValueName()
			if in.ValueName() == "" {
				sigName = fmt.Sprintf("%s.sig%d", inst.Name, len(el.e.signals))
			}
			s := el.e.NewSignal(sigName, in.Type().Elem, init)
			inst.SetBind(in, SigRef{Sig: s})

		case ir.OpInst:
			var ins, outs []SigRef
			for _, a := range in.Args[:in.NumIns] {
				r, ok := inst.BindOf(a)
				if !ok {
					return fmt.Errorf("engine: %s: inst @%s input %s is not a bound signal", inst.Name, in.Callee, a)
				}
				ins = append(ins, r)
			}
			for _, a := range in.Args[in.NumIns:] {
				r, ok := inst.BindOf(a)
				if !ok {
					return fmt.Errorf("engine: %s: inst @%s output %s is not a bound signal", inst.Name, in.Callee, a)
				}
				outs = append(outs, r)
			}
			el.nInst++
			childName := fmt.Sprintf("%s.%s_%d", inst.Name, in.Callee, el.nInst)
			if err := el.instantiate(el.m.Unit(in.Callee), childName, ins, outs); err != nil {
				return err
			}

		case ir.OpExtF:
			if r, ok := inst.BindOf(in.Args[0]); ok {
				inst.SetBind(in, r.Extend(Proj{Kind: ProjField, A: in.Imm0}))
				continue
			}
			if el.tryConst(inst, in) {
				continue
			}
			reactive++

		case ir.OpExtS:
			if r, ok := inst.BindOf(in.Args[0]); ok {
				inst.SetBind(in, r.Extend(Proj{Kind: ProjSlice, A: in.Imm0, B: in.Imm1}))
				continue
			}
			if el.tryConst(inst, in) {
				continue
			}
			reactive++

		case ir.OpCon:
			a, aok := inst.BindOf(in.Args[0])
			b, bok := inst.BindOf(in.Args[1])
			if !aok || !bok {
				return fmt.Errorf("engine: %s: con needs two bound signals", inst.Name)
			}
			cp := &conProcess{name: inst.Name + ".con", a: a, b: b}
			el.e.AddProcess(cp, false)

		default:
			if in.Op.IsPure() && el.tryConst(inst, in) {
				continue
			}
			reactive++
		}
	}
	if reactive > 0 {
		p, err := el.factory(inst)
		if err != nil {
			return err
		}
		el.e.AddProcess(p, false)
	}
	return nil
}

// tryConst evaluates a pure instruction whose operands are all known
// constants into the instance's constant table. A failed evaluation leaves
// the table as it was.
func (el *elaborator) tryConst(inst *Instance, in *ir.Inst) bool {
	for _, a := range in.Args {
		if _, ok := inst.ConstOf(a); !ok {
			return false
		}
	}
	if EvalPure(in, inst.consts) != nil {
		return false
	}
	inst.isConst[ir.ValueID(in)] = true
	return true
}

// EvalPure evaluates a constant or pure data-flow instruction on a register
// file indexed by value ID (the unit's ir.Numbering): it reads its operands
// at regs[ir.ValueID(arg)] and writes its result at regs[ir.ValueID(in)].
// It is the one evaluator of pure instructions outside blaze's dispatch
// loop: the interpreter runs it on its frame, the elaborator on an
// instance's constant table, blaze's lowering on its constant registers,
// constant-fold and the oracle on tables of their own. The caller makes
// sure every operand register holds its value.
//
// Two-state integer results are written in place — Kind, Width and Bits,
// nothing else — under val.Value's Kind-first rule; every other result
// replaces the register. It reports an error if the instruction is not
// pure or its operands are out of its domain (division by zero, an index
// out of range), and then leaves the destination register as it was.
func EvalPure(in *ir.Inst, regs []val.Value) error {
	dst := &regs[ir.ValueID(in)]
	arg := func(i int) *val.Value { return &regs[ir.ValueID(in.Args[i])] }
	var v val.Value
	var err error
	switch op := in.Op; op {
	case ir.OpConstInt:
		setInt(dst, widthOf(in.Ty), in.IVal)
		return nil
	case ir.OpConstTime:
		v = val.TimeVal(in.TVal)
	case ir.OpConstLogic:
		v = val.LogicVal(in.LVal)
	case ir.OpArray, ir.OpStruct:
		elems := make([]val.Value, len(in.Args))
		for i := range elems {
			elems[i] = *arg(i)
		}
		v = val.Agg(elems)
	case ir.OpNot, ir.OpNeg:
		a := arg(0)
		if a.Kind == val.KindInt {
			bits := -a.Bits
			if op == ir.OpNot {
				bits = ^a.Bits
			}
			setInt(dst, int(a.Width), bits)
			return nil
		}
		v, err = val.Unary(op, in.Ty, *a)
	case ir.OpMux:
		v, err = val.Mux(*arg(0), *arg(1))
	case ir.OpInsF:
		if len(in.Args) == 3 {
			v, err = val.InsFDyn(*arg(0), *arg(1), arg(2).Bits)
		} else {
			v, err = val.InsF(*arg(0), *arg(1), in.Imm0)
		}
	case ir.OpInsS:
		a, off, n := arg(0), in.Imm0, in.Imm1
		if a.Kind == val.KindInt && off >= 0 && off+n <= int(a.Width) {
			setInt(dst, int(a.Width), val.InsBits(a.Bits, arg(1).Bits, off, n))
			return nil
		}
		v, err = val.InsS(*a, *arg(1), off, n)
	case ir.OpExtF:
		if len(in.Args) == 2 {
			v, err = val.ExtFDyn(*arg(0), arg(1).Bits)
		} else {
			v, err = val.ExtF(*arg(0), in.Imm0)
		}
	case ir.OpExtS:
		a, off, n := arg(0), in.Imm0, in.Imm1
		if a.Kind == val.KindInt && off >= 0 && off+n <= int(a.Width) {
			setInt(dst, n, a.Bits>>uint(off))
			return nil
		}
		v, err = val.ExtS(*a, off, n)
	default:
		if !op.IsBinary() && !op.IsCompare() {
			return fmt.Errorf("engine: %s is not elaboration-time evaluable", op)
		}
		a, b := arg(0), arg(1)
		if a.Kind == val.KindInt && b.Kind == val.KindInt && intBinary(dst, op, a, b) {
			return nil
		}
		v, err = val.Binary(op, *a, *b)
	}
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// intBinary writes the two-state integer binary op or comparison of a and
// b to dst in place. It reports false for division and modulo, which
// val.Binary evaluates because they can fail.
func intBinary(dst *val.Value, op ir.Opcode, a, b *val.Value) bool {
	x, y, w := a.Bits, b.Bits, int(a.Width)
	var r uint64
	switch op {
	case ir.OpAnd:
		r = x & y
	case ir.OpOr:
		r = x | y
	case ir.OpXor:
		r = x ^ y
	case ir.OpAdd:
		r = x + y
	case ir.OpSub:
		r = x - y
	case ir.OpMul:
		r = x * y
	case ir.OpShl:
		r = val.Shl(x, y)
	case ir.OpShr:
		r = val.Shr(x, y)
	case ir.OpAshr:
		r = val.Ashr(x, y, w)
	case ir.OpEq:
		r, w = truth(a.Width == b.Width && x == y), 1
	case ir.OpNeq:
		r, w = truth(a.Width != b.Width || x != y), 1
	case ir.OpUlt:
		r, w = truth(x < y), 1
	case ir.OpUgt:
		r, w = truth(x > y), 1
	case ir.OpUle:
		r, w = truth(x <= y), 1
	case ir.OpUge:
		r, w = truth(x >= y), 1
	case ir.OpSlt:
		r, w = truth(val.Slt(x, y, w)), 1
	case ir.OpSgt:
		r, w = truth(val.Sgt(x, y, w)), 1
	case ir.OpSle:
		r, w = truth(val.Sle(x, y, w)), 1
	case ir.OpSge:
		r, w = truth(val.Sge(x, y, w)), 1
	default:
		return false
	}
	setInt(dst, w, r)
	return true
}

// truth is an i1's bits.
func truth(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// setInt overwrites *p with a width-w integer in place: Kind, Width and the
// masked Bits. A payload pointer left behind is inert (the Kind-first
// rule), and rewriting the three words beats copying a value struct on the
// interpreter's hot rows.
func setInt(p *val.Value, w int, bits uint64) {
	p.Kind = val.KindInt
	p.Width = int32(w)
	p.Bits = ir.MaskWidth(bits, w)
}

// widthOf is the width of an integer constant of type ty: an enum's is its
// bit width, and a malformed type's is 1. The integer case stays small
// enough to inline.
func widthOf(ty *ir.Type) int {
	switch ty.Kind {
	case ir.IntKind:
		return ty.Width
	case ir.EnumKind:
		return ty.BitWidth()
	}
	return 1
}

// conProcess implements the con instruction: a bidirectional zero-delay
// connection. A change on either side is forwarded to the other; equal
// values produce no change, so forwarding terminates.
type conProcess struct {
	ProcHandle
	name         string
	a, b         SigRef
	prevA, prevB val.Value
}

func (c *conProcess) Name() string { return c.name }

func (c *conProcess) Init(e *Engine) {
	e.Subscribe(c.ProcID(), []SigRef{c.a, c.b})
	c.prevA, c.prevB = e.Probe(c.a), e.Probe(c.b)
	// Propagate the first operand's initial value to the second.
	e.Drive(c.b, c.prevA, ir.Time{})
}

func (c *conProcess) Wake(e *Engine) {
	av, bv := e.Probe(c.a), e.Probe(c.b)
	switch {
	case !av.Eq(c.prevA) && !av.Eq(bv):
		e.Drive(c.b, av, ir.Time{})
	case !bv.Eq(c.prevB) && !bv.Eq(av):
		e.Drive(c.a, bv, ir.Time{})
	}
	c.prevA, c.prevB = av, bv
}
