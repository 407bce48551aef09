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

// SetConst records the elaboration-time value of v.
func (inst *Instance) SetConst(v ir.Value, c val.Value) {
	if id := ir.ValueID(v); id >= 0 && id < len(inst.consts) {
		inst.consts[id] = c
		inst.isConst[id] = true
	}
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
// elaborator, the interpreter and the bytecode lowering index operands and
// assume kind legality only behind that check, and a malformed module is
// the same input error from all of them.
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

func (el *elaborator) instantiate(u *ir.Unit, name string, ins, outs []SigRef) error {
	if len(ins) != len(u.Inputs) || len(outs) != len(u.Outputs) {
		return fmt.Errorf("engine: @%s instantiated with %d->%d signals, want %d->%d",
			u.Name, len(ins), len(outs), len(u.Inputs), len(u.Outputs))
	}
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
			callee := el.m.Unit(in.Callee)
			if callee == nil {
				return fmt.Errorf("engine: %s: inst of undefined @%s", inst.Name, in.Callee)
			}
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
			if err := el.instantiate(callee, childName, ins, outs); err != nil {
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
// constants, recording the result in the instance's constant table.
func (el *elaborator) tryConst(inst *Instance, in *ir.Inst) bool {
	v, err := EvalPure(in, inst.ConstOf)
	if err != nil {
		return false
	}
	inst.SetConst(in, v)
	return true
}

// EvalPure evaluates a constant or pure data-flow instruction given a
// lookup for its operand values. It reports an error if the instruction is
// not pure or an operand is unavailable.
func EvalPure(in *ir.Inst, lookup func(ir.Value) (val.Value, bool)) (val.Value, error) {
	get := func(x ir.Value) (val.Value, error) {
		v, ok := lookup(x)
		if !ok {
			return val.Value{}, fmt.Errorf("engine: operand %s unavailable", x)
		}
		return v, nil
	}
	switch in.Op {
	case ir.OpConstInt:
		return val.Int(widthOf(in.Ty), in.IVal), nil
	case ir.OpConstTime:
		return val.TimeVal(in.TVal), nil
	case ir.OpConstLogic:
		return val.LogicVal(in.LVal), nil
	case ir.OpArray, ir.OpStruct:
		elems := make([]val.Value, len(in.Args))
		for i, a := range in.Args {
			v, err := get(a)
			if err != nil {
				return val.Value{}, err
			}
			elems[i] = v
		}
		return val.Agg(elems), nil
	case ir.OpNot, ir.OpNeg:
		a, err := get(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		return val.Unary(in.Op, in.Ty, a)
	case ir.OpMux:
		arr, err := get(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		sel, err := get(in.Args[1])
		if err != nil {
			return val.Value{}, err
		}
		return val.Mux(arr, sel)
	case ir.OpInsF:
		a, err := get(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		v, err := get(in.Args[1])
		if err != nil {
			return val.Value{}, err
		}
		if len(in.Args) == 3 {
			iv, err := get(in.Args[2])
			if err != nil {
				return val.Value{}, err
			}
			return val.InsFDyn(a, v, iv.Bits)
		}
		return val.InsF(a, v, in.Imm0)
	case ir.OpInsS:
		a, err := get(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		v, err := get(in.Args[1])
		if err != nil {
			return val.Value{}, err
		}
		return val.InsS(a, v, in.Imm0, in.Imm1)
	case ir.OpExtF:
		a, err := get(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		if len(in.Args) == 2 {
			iv, err := get(in.Args[1])
			if err != nil {
				return val.Value{}, err
			}
			return val.ExtFDyn(a, iv.Bits)
		}
		return val.ExtF(a, in.Imm0)
	case ir.OpExtS:
		a, err := get(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		return val.ExtS(a, in.Imm0, in.Imm1)
	}
	if in.Op.IsBinary() || in.Op.IsCompare() {
		a, err := get(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		b, err := get(in.Args[1])
		if err != nil {
			return val.Value{}, err
		}
		return val.Binary(in.Op, a, b)
	}
	return val.Value{}, fmt.Errorf("engine: %s is not elaboration-time evaluable", in.Op)
}

func widthOf(ty *ir.Type) int {
	if ty.IsInt() || ty.IsEnum() {
		if ty.IsEnum() {
			return ty.BitWidth()
		}
		return ty.Width
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
