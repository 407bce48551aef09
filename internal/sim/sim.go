// Package sim implements the LLHD reference simulator (the paper's
// LLHD-Sim, §6.1): a deliberately simple tree-walking interpreter over the
// IR, running on the shared discrete-event kernel in internal/engine. It
// favours clarity over speed; internal/blaze is the fast counterpart.
//
// Since the slot-indexed frame rework the interpreter no longer keys its
// environments by IR node: every value access indexes a flat frame by the
// unit's ir.Numbering (see frame.go), the same value-ID scheme the blaze
// compiler assigns register slots with. Frames, wait sets and call-argument
// buffers are pooled, so the per-wake hot path is allocation-free in steady
// state (pinned by TestInterpWakeHotPathAllocFree).
package sim

import (
	"fmt"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// Simulator couples an elaborated design with the event engine.
type Simulator struct {
	Engine *engine.Engine
	Module *ir.Module
	Top    string

	// fstates caches per-function numberings and pooled frames; argPool
	// recycles call-argument buffers. Both keep the call path off the
	// allocator at steady state.
	fstates map[*ir.Unit]*funcState
	argPool [][]val.Value
}

// New elaborates the design hierarchy under the named top unit with the
// interpreting process factory.
func New(m *ir.Module, top string) (*Simulator, error) {
	e := engine.New()
	s := &Simulator{Engine: e, Module: m, Top: top, fstates: map[*ir.Unit]*funcState{}}
	factory := func(inst *engine.Instance) (engine.Process, error) {
		switch inst.Unit.Kind {
		case ir.UnitProc:
			return newProcInterp(s, inst), nil
		case ir.UnitEntity:
			return newEntityInterp(s, inst), nil
		}
		return nil, fmt.Errorf("sim: cannot interpret %s @%s", inst.Unit.Kind, inst.Unit.Name)
	}
	if err := engine.Elaborate(e, m, top, factory); err != nil {
		return nil, err
	}
	return s, nil
}

// Run initializes the design and simulates until the event queue drains or
// physical time exceeds limit (zero limit: unbounded). It returns the
// first runtime error, if any.
func (s *Simulator) Run(limit ir.Time) error {
	s.Engine.Init()
	s.Engine.Run(limit)
	return s.Engine.Err()
}

// procInterp interprets one process instance. Its frame persists across
// wakes (a process resumes mid-execution, so values computed before a wait
// stay live) and is never reset.
type procInterp struct {
	engine.ProcHandle
	sim  *Simulator
	inst *engine.Instance

	frame *frame
	sigTable
	waitRefs []engine.SigRef // reusable wait sensitivity scratch

	block  *ir.Block // current block
	index  int       // next instruction index in block
	prev   *ir.Block // predecessor, for phi resolution
	halted bool
}

func newProcInterp(s *Simulator, inst *engine.Instance) *procInterp {
	n := inst.Numbering().Len()
	p := &procInterp{
		sim:   s,
		inst:  inst,
		frame: newFrame(n),
	}
	// Copy the elaborated signal bindings; runtime extf/exts projections
	// extend the process-local table.
	p.seedSigs(inst, n)
	return p
}

func (p *procInterp) Name() string { return p.inst.Name }

func (p *procInterp) Init(e *engine.Engine) {
	p.block = p.inst.Unit.Entry()
	p.index = 0
	p.run(e)
}

func (p *procInterp) Wake(e *engine.Engine) {
	if p.halted {
		return
	}
	p.run(e)
}

// run executes instructions until the process suspends (wait/halt) or the
// engine records an error.
func (p *procInterp) run(e *engine.Engine) {
	const maxSteps = 100_000_000 // guards against runaway zero-time loops
	for steps := 0; steps < maxSteps; steps++ {
		if p.block == nil || p.index >= len(p.block.Insts) {
			e.Halt(p.ProcID())
			p.halted = true
			return
		}
		in := p.block.Insts[p.index]
		p.index++
		done, err := p.exec(e, in)
		if err != nil {
			e.SetError(fmt.Errorf("sim: %s: %w", p.inst.Name, err))
			return
		}
		if done {
			return
		}
	}
	e.SetError(fmt.Errorf("sim: %s: step budget exhausted (livelock?): %w", p.inst.Name, engine.ErrStepLimit))
}

// value resolves an operand to its runtime value.
func (p *procInterp) value(v ir.Value) (val.Value, error) {
	if id := ir.ValueID(v); id >= 0 {
		if rv, ok := p.frame.get(id); ok {
			return rv, nil
		}
	}
	return val.Value{}, fmt.Errorf("value %s not computed", v)
}

// sigRef resolves an operand to a signal reference or errors.
func (p *procInterp) sigRef(v ir.Value) (engine.SigRef, error) {
	if r, ok := p.sigOf(v); ok {
		return r, nil
	}
	return engine.SigRef{}, fmt.Errorf("%s is not a signal reference", v)
}

// jump transfers control to dest, resolving its phi nodes against the
// current block. The phi scratch on the frame is reused across jumps.
func (p *procInterp) jump(dest *ir.Block) error {
	p.prev = p.block
	p.block = dest
	p.index = 0
	// Evaluate all phis of dest simultaneously against the edge taken.
	vals := p.frame.phiVals[:0]
	ids := p.frame.phiIDs[:0]
	defer func() { p.frame.phiVals, p.frame.phiIDs = vals, ids }()
	for _, in := range dest.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		found := false
		for i, bb := range in.Dests {
			if bb == p.prev {
				v, err := p.value(in.Args[i])
				if err != nil {
					return err
				}
				vals = append(vals, v)
				ids = append(ids, ir.ValueID(in))
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("phi in %s has no incoming edge from %s", dest, p.prev)
		}
	}
	for i, id := range ids {
		p.frame.set(id, vals[i])
	}
	return nil
}

// exec runs one instruction; it reports done=true when the process
// suspended and control must return to the engine.
func (p *procInterp) exec(e *engine.Engine, in *ir.Inst) (bool, error) {
	switch in.Op {
	case ir.OpPhi:
		// Already resolved by jump.
		return false, nil

	case ir.OpExtF:
		if r, ok := p.sigOf(in.Args[0]); ok && len(in.Args) == 1 {
			p.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjField, A: in.Imm0}))
			return false, nil
		}
		if in.Args[0].Type().IsPointer() {
			return false, fmt.Errorf("extf on pointers is not supported by the interpreter yet")
		}
		// Plain-value extraction (including dynamic index) falls through
		// to the pure evaluator below.

	case ir.OpExtS:
		if r, ok := p.sigOf(in.Args[0]); ok {
			p.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjSlice, A: in.Imm0, B: in.Imm1}))
			return false, nil
		}

	case ir.OpPrb:
		r, err := p.sigRef(in.Args[0])
		if err != nil {
			return false, err
		}
		p.frame.set(ir.ValueID(in), e.Probe(r))
		return false, nil

	case ir.OpDrv:
		r, err := p.sigRef(in.Args[0])
		if err != nil {
			return false, err
		}
		v, err := p.value(in.Args[1])
		if err != nil {
			return false, err
		}
		d, err := p.value(in.Args[2])
		if err != nil {
			return false, err
		}
		if len(in.Args) == 4 {
			cond, err := p.value(in.Args[3])
			if err != nil {
				return false, err
			}
			if !cond.IsTrue() {
				return false, nil
			}
		}
		e.Drive(r, v, d.Time())
		return false, nil

	case ir.OpVar, ir.OpAlloc:
		var init val.Value
		if in.Op == ir.OpVar {
			v, err := p.value(in.Args[0])
			if err != nil {
				return false, err
			}
			init = v
		} else {
			init = val.Default(in.Ty.Elem)
		}
		// Re-executing a var (loop) rebinds the same slot with the init
		// value, matching stack-slot semantics.
		p.frame.defineMem(ir.ValueID(in), init)
		return false, nil

	case ir.OpLd:
		s, err := p.frame.memOf(in.Args[0])
		if err != nil {
			return false, err
		}
		p.frame.set(ir.ValueID(in), s.v)
		return false, nil

	case ir.OpSt:
		s, err := p.frame.memOf(in.Args[0])
		if err != nil {
			return false, err
		}
		v, err := p.value(in.Args[1])
		if err != nil {
			return false, err
		}
		s.v = v
		return false, nil

	case ir.OpFree:
		s, err := p.frame.memOf(in.Args[0])
		if err != nil {
			return false, err
		}
		s.freed = true
		return false, nil

	case ir.OpCall:
		rv, err := interpretCall(p.sim, e, in, p.value)
		if err != nil {
			return false, err
		}
		if !in.Ty.IsVoid() {
			p.frame.set(ir.ValueID(in), rv)
		}
		return false, nil

	case ir.OpBr:
		if len(in.Args) == 1 {
			c, ok := p.frame.boolAt(in.Args[0])
			if !ok {
				cv, err := p.value(in.Args[0])
				if err != nil {
					return false, err
				}
				c = cv.IsTrue()
			}
			if c {
				return false, p.jump(in.Dests[1])
			}
			return false, p.jump(in.Dests[0])
		}
		return false, p.jump(in.Dests[0])

	case ir.OpWait:
		refs := p.waitRefs[:0]
		for _, a := range in.Args {
			r, err := p.sigRef(a)
			if err != nil {
				p.waitRefs = refs
				return false, err
			}
			refs = append(refs, r)
		}
		p.waitRefs = refs
		e.Subscribe(p.ProcID(), refs)
		if in.TimeArg != nil {
			t, err := p.value(in.TimeArg)
			if err != nil {
				return false, err
			}
			e.ScheduleWake(p.ProcID(), t.Time())
		}
		if err := p.jump(in.Dests[0]); err != nil {
			return false, err
		}
		return true, nil

	case ir.OpHalt:
		e.Halt(p.ProcID())
		p.halted = true
		return true, nil

	case ir.OpUnreachable:
		return false, fmt.Errorf("reached unreachable")

	case ir.OpRet:
		return false, fmt.Errorf("ret in a process")
	}

	// Pure data flow: scalar-integer ops run in place on the frame; logic
	// vectors, aggregates and times take the generic evaluator.
	if p.frame.evalFast(in) {
		return false, nil
	}
	v, err := engine.EvalPure(in, p.frame.lookup)
	if err != nil {
		return false, err
	}
	p.frame.set(ir.ValueID(in), v)
	return false, nil
}
