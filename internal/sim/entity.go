package sim

import (
	"fmt"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// entityInterp interprets the reactive body of an entity instance: the
// instructions that the elaborator could not fold into constants (prb,
// drv, reg, del, and data flow downstream of probes). Per §2.4.3 the body
// executes once at initialization and again whenever an input changes.
//
// The frame's constant prefix is seeded from the instance's dense constant
// table exactly once at construction; each wake invalidates the runtime
// slots with a single stamp bump instead of rebuilding the environment.
type entityInterp struct {
	engine.ProcHandle
	sim  *Simulator
	inst *engine.Instance

	frame *frame // per-wake values; consts survive reset
	sigTable

	// Previous-sample histories for reg and del, indexed by value ID and
	// materialized on first use (most entities have neither).
	regPrev    [][]val.Value // value ID -> previous trigger samples per reg
	regScratch []val.Value   // reusable per-wake sample buffer
	delPrev    []val.Value   // value ID -> previous input value per del
	delKnown   []bool
}

func newEntityInterp(s *Simulator, inst *engine.Instance) *entityInterp {
	n := inst.Numbering().Len()
	en := &entityInterp{
		sim:   s,
		inst:  inst,
		frame: newFrame(n),
	}
	en.seedSigs(inst, n)
	// Seed the constant prefix once; reset never touches it.
	consts, isConst := inst.ConstTable()
	for id, ok := range isConst {
		if ok {
			en.frame.seedConst(id, consts[id])
		}
	}
	return en
}

func (en *entityInterp) Name() string { return en.inst.Name }

// value resolves an operand to its runtime value.
func (en *entityInterp) value(v ir.Value) (val.Value, error) {
	if id := ir.ValueID(v); id >= 0 {
		if rv, ok := en.frame.get(id); ok {
			return rv, nil
		}
	}
	return val.Value{}, fmt.Errorf("operand %s not computed", v)
}

// Init subscribes the entity permanently to every signal it probes and
// runs the body once.
func (en *entityInterp) Init(e *engine.Engine) {
	var refs []engine.SigRef
	seen := map[*engine.Signal]bool{}
	for _, in := range en.inst.Unit.Body().Insts {
		watch := func(v ir.Value) {
			if r, ok := en.sigOf(v); ok && !seen[r.Sig] {
				seen[r.Sig] = true
				refs = append(refs, r)
			}
		}
		switch in.Op {
		case ir.OpPrb:
			watch(in.Args[0])
		case ir.OpDel:
			watch(in.Args[1])
		}
	}
	e.Subscribe(en.ProcID(), refs)
	en.eval(e, true)
}

func (en *entityInterp) Wake(e *engine.Engine) {
	en.eval(e, false)
}

// eval executes the reactive body in order. On the first pass (init=true)
// reg and del record baseline samples without firing edge triggers.
func (en *entityInterp) eval(e *engine.Engine, init bool) {
	// Invalidate the previous wake's runtime values; the elaboration-time
	// constant prefix stays valid across the stamp bump.
	en.frame.reset()
	for _, in := range en.inst.Unit.Body().Insts {
		if err := en.evalInst(e, in, init); err != nil {
			e.SetError(fmt.Errorf("sim: %s: %w", en.inst.Name, err))
			return
		}
	}
}

func (en *entityInterp) evalInst(e *engine.Engine, in *ir.Inst, init bool) error {
	switch in.Op {
	case ir.OpSig, ir.OpInst, ir.OpCon:
		return nil // handled at elaboration

	case ir.OpPrb:
		r, ok := en.sigOf(in.Args[0])
		if !ok {
			return fmt.Errorf("prb of unbound signal %s", in.Args[0])
		}
		en.frame.set(ir.ValueID(in), e.Probe(r))
		return nil

	case ir.OpExtF:
		if r, ok := en.sigOf(in.Args[0]); ok {
			en.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjField, A: in.Imm0}))
			return nil
		}
	case ir.OpExtS:
		if r, ok := en.sigOf(in.Args[0]); ok {
			en.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjSlice, A: in.Imm0, B: in.Imm1}))
			return nil
		}

	case ir.OpDrv:
		r, ok := en.sigOf(in.Args[0])
		if !ok {
			return fmt.Errorf("drv of unbound signal %s", in.Args[0])
		}
		v, err := en.value(in.Args[1])
		if err != nil {
			return fmt.Errorf("drv value %s not computed", in.Args[1])
		}
		d, err := en.value(in.Args[2])
		if err != nil {
			return fmt.Errorf("drv delay %s not computed", in.Args[2])
		}
		if len(in.Args) == 4 {
			cond, err := en.value(in.Args[3])
			if err != nil {
				return fmt.Errorf("drv condition %s not computed", in.Args[3])
			}
			if !cond.IsTrue() {
				return nil
			}
		}
		e.Drive(r, v, d.Time())
		return nil

	case ir.OpReg:
		return en.evalReg(e, in, init)

	case ir.OpDel:
		r, ok := en.sigOf(in.Args[0])
		if !ok {
			return fmt.Errorf("del of unbound signal %s", in.Args[0])
		}
		src, ok := en.sigOf(in.Args[1])
		if !ok {
			return fmt.Errorf("del source %s not a signal", in.Args[1])
		}
		d, err := en.value(in.Args[2])
		if err != nil {
			return fmt.Errorf("del delay %s not computed", in.Args[2])
		}
		cur := e.Probe(src)
		id := ir.ValueID(in)
		if en.delPrev == nil {
			n := len(en.sigs)
			en.delPrev = make([]val.Value, n)
			en.delKnown = make([]bool, n)
		}
		if init {
			en.delPrev[id] = cur
			en.delKnown[id] = true
			return nil
		}
		if !en.delKnown[id] || !cur.Eq(en.delPrev[id]) {
			en.delPrev[id] = cur
			en.delKnown[id] = true
			e.Drive(r, cur, d.Time())
		}
		return nil

	case ir.OpCall:
		rv, err := interpretCall(en.sim, e, in, en.value)
		if err != nil {
			return err
		}
		if !in.Ty.IsVoid() {
			en.frame.set(ir.ValueID(in), rv)
		}
		return nil
	}

	// Pure data flow (includes extf/exts on plain values falling through).
	// Scalar-integer ops run in place on the frame.
	if en.frame.evalFast(in) {
		return nil
	}
	v, err := engine.EvalPure(in, en.frame.lookup)
	if err != nil {
		return err
	}
	en.frame.set(ir.ValueID(in), v)
	return nil
}

// evalReg implements the reg storage element (§2.5.3): on each wake,
// sample every trigger; fire the matching edge/level clauses and drive the
// stored value onto the register's signal. Trigger samples are kept in a
// dense per-reg history written in place, so the steady-state wake path
// does not allocate.
func (en *entityInterp) evalReg(e *engine.Engine, in *ir.Inst, init bool) error {
	r, ok := en.sigOf(in.Args[0])
	if !ok {
		return fmt.Errorf("reg of unbound signal %s", in.Args[0])
	}
	id := ir.ValueID(in)
	if en.regPrev == nil {
		en.regPrev = make([][]val.Value, len(en.sigs))
	}
	prev := en.regPrev[id]
	cur := en.regScratch[:0]
	for _, tr := range in.Triggers {
		c, err := en.value(tr.Trigger)
		if err != nil {
			return fmt.Errorf("reg trigger %s not computed", tr.Trigger)
		}
		cur = append(cur, c)
	}
	en.regScratch = cur
	// Persist the samples on every exit, like the former deferred map store.
	store := func() {
		if prev == nil {
			en.regPrev[id] = append([]val.Value(nil), cur...)
		} else {
			copy(prev, cur)
		}
	}
	if init || prev == nil {
		store()
		return nil
	}

	delay := ir.Time{}
	if in.Delay != nil {
		d, err := en.value(in.Delay)
		if err != nil {
			store()
			return fmt.Errorf("reg delay %s not computed", in.Delay)
		}
		delay = d.Time()
	}

	for i, tr := range in.Triggers {
		was, now := prev[i].IsTrue(), cur[i].IsTrue()
		fired := false
		switch tr.Mode {
		case ir.RegRise:
			fired = !was && now
		case ir.RegFall:
			fired = was && !now
		case ir.RegBoth:
			fired = was != now
		case ir.RegHigh:
			fired = now
		case ir.RegLow:
			fired = !now
		}
		if !fired {
			continue
		}
		if tr.Gate != nil {
			g, err := en.value(tr.Gate)
			if err != nil {
				store()
				return fmt.Errorf("reg gate %s not computed", tr.Gate)
			}
			if !g.IsTrue() {
				continue
			}
		}
		v, err := en.value(tr.Value)
		if err != nil {
			store()
			return fmt.Errorf("reg stored value %s not computed", tr.Value)
		}
		e.Drive(r, v, delay)
		break // first firing trigger wins
	}
	store()
	return nil
}
