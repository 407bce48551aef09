package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// activation is one running unit: a process or entity instance, or one
// live function call. It is the interpreter's only execution state, and
// run below is its only instruction loop.
type activation struct {
	sim   *Simulator
	unit  *ir.Unit
	frame *frame
	sigTable

	block *ir.Block // current block
	index int       // next instruction index in block
	prev  *ir.Block // predecessor, for phi resolution

	ret      val.Value       // function: the returned value
	waitRefs []engine.SigRef // process: reusable wait sensitivity scratch
	// Entity: previous-sample histories for reg and del, indexed by value
	// ID and materialized on first use (most entities have neither).
	regPrev  [][]bool    // per reg, the last sample of each trigger
	delPrev  []val.Value // per del, the last value of its source
	delKnown []bool
}

// status is how one run of an activation ended.
type status uint8

const (
	suspended status = iota // a process armed its wait and yields
	finished                // halt, ret, or the end of an entity body
)

// maxSteps bounds the instructions of one activation run; it guards
// against zero-time loops that never reach a wait, halt or ret.
const maxSteps = 100_000_000

// enter positions the activation at the start of its unit.
func (a *activation) enter() {
	a.block, a.index, a.prev = a.unit.Entry(), 0, nil
}

// run is the interpreter's instruction loop: it executes from the current
// position until the activation suspends or finishes. Operand counts and
// which ops a unit kind may hold were checked when the design was
// elaborated (ir.CheckShape); the switch relies on both. Errors leave here
// bare: proc.Wake names the instance, invoke the function.
func (a *activation) run(e *engine.Engine, self engine.ProcID) (status, error) {
	f := a.frame
	kind := a.unit.Kind
	for steps := 0; steps < maxSteps; steps++ {
		if a.block == nil || a.index >= len(a.block.Insts) {
			if kind == ir.UnitFunc {
				return finished, fmt.Errorf("fell off the end of %s", a.block)
			}
			return finished, nil // an entity body is done, a process halts
		}
		in := a.block.Insts[a.index]
		a.index++
		switch in.Op {
		case ir.OpPhi:
			continue // assigned by jump

		case ir.OpSig, ir.OpInst, ir.OpCon:
			continue // entity only; handled at elaboration

		case ir.OpExtF:
			if r, ok := a.sigOf(in.Args[0]); ok && len(in.Args) == 1 {
				a.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjField, A: in.Imm0}))
				continue
			}
			if in.Args[0].Type().IsPointer() {
				return finished, fmt.Errorf("extf on pointers is not supported by the interpreter yet")
			}
			// Plain-value extraction (including a dynamic index) is pure
			// data flow, below.

		case ir.OpExtS:
			if r, ok := a.sigOf(in.Args[0]); ok {
				a.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjSlice, A: in.Imm0, B: in.Imm1}))
				continue
			}

		case ir.OpPrb:
			r, err := a.sigRef(in.Args[0])
			if err != nil {
				return finished, err
			}
			f.set(ir.ValueID(in), e.Probe(r))
			continue

		case ir.OpDrv:
			r, err := a.sigRef(in.Args[0])
			if err != nil {
				return finished, err
			}
			v, err := a.value(in.Args[1])
			if err != nil {
				return finished, err
			}
			d, err := a.value(in.Args[2])
			if err != nil {
				return finished, err
			}
			if len(in.Args) == 4 {
				cond, err := a.value(in.Args[3])
				if err != nil {
					return finished, err
				}
				if !cond.IsTrue() {
					continue
				}
			}
			e.Drive(r, v, d.Time())
			continue

		case ir.OpReg:
			if err := a.reg(e, in); err != nil {
				return finished, err
			}
			continue

		case ir.OpDel:
			if err := a.del(e, in); err != nil {
				return finished, err
			}
			continue

		case ir.OpVar, ir.OpAlloc:
			var init val.Value
			if in.Op == ir.OpVar {
				v, err := a.value(in.Args[0])
				if err != nil {
					return finished, err
				}
				init = v
			} else {
				init = val.Default(in.Ty.Elem)
			}
			// Re-executing a var (loop) rebinds the same slot with the init
			// value, matching stack-slot semantics.
			f.defineMem(ir.ValueID(in), init)
			continue

		case ir.OpLd:
			s, err := f.memOf(in.Args[0])
			if err != nil {
				return finished, err
			}
			f.set(ir.ValueID(in), s.v)
			continue

		case ir.OpSt:
			s, err := f.memOf(in.Args[0])
			if err != nil {
				return finished, err
			}
			v, err := a.value(in.Args[1])
			if err != nil {
				return finished, err
			}
			s.v = v
			continue

		case ir.OpFree:
			s, err := f.memOf(in.Args[0])
			if err != nil {
				return finished, err
			}
			s.freed = true
			continue

		case ir.OpCall:
			if err := a.call(e, in); err != nil {
				return finished, err
			}
			continue

		case ir.OpBr:
			dest := in.Dests[0]
			if len(in.Args) == 1 {
				c, ok := f.boolAt(in.Args[0])
				if !ok {
					cv, err := a.value(in.Args[0])
					if err != nil {
						return finished, err
					}
					c = cv.IsTrue()
				}
				if c {
					dest = in.Dests[1]
				}
			}
			if err := a.jump(dest); err != nil {
				return finished, err
			}
			continue

		case ir.OpWait:
			refs := a.waitRefs[:0]
			for _, x := range in.Args {
				r, err := a.sigRef(x)
				if err != nil {
					return finished, err
				}
				refs = append(refs, r)
			}
			a.waitRefs = refs
			e.Subscribe(self, refs)
			if in.TimeArg != nil {
				t, err := a.value(in.TimeArg)
				if err != nil {
					return finished, err
				}
				e.ScheduleWake(self, t.Time())
			}
			return suspended, a.jump(in.Dests[0])

		case ir.OpHalt:
			return finished, nil

		case ir.OpRet:
			if len(in.Args) == 1 {
				v, err := a.value(in.Args[0])
				if err != nil {
					return finished, err
				}
				a.ret = v
			}
			return finished, nil

		case ir.OpUnreachable:
			return finished, fmt.Errorf("reached unreachable")
		}

		// Pure data flow: scalar-integer ops run in place on the frame;
		// logic vectors, aggregates and times take the generic evaluator.
		if f.evalFast(in) {
			continue
		}
		v, err := engine.EvalPure(in, f.lookup)
		if err != nil {
			return finished, err
		}
		f.set(ir.ValueID(in), v)
	}
	return finished, fmt.Errorf("step budget exhausted (livelock?): %w", engine.ErrStepLimit)
}

// value resolves an operand to its runtime value.
func (a *activation) value(v ir.Value) (val.Value, error) {
	if id := ir.ValueID(v); id >= 0 {
		if rv, ok := a.frame.get(id); ok {
			return rv, nil
		}
	}
	return val.Value{}, fmt.Errorf("value %s not computed", v)
}

// sigRef resolves an operand to a signal reference or errors.
func (a *activation) sigRef(v ir.Value) (engine.SigRef, error) {
	if r, ok := a.sigOf(v); ok {
		return r, nil
	}
	return engine.SigRef{}, fmt.Errorf("%s is not a signal reference", v)
}

// jump transfers control to dest, assigning its phi nodes simultaneously
// against the edge taken. The phi scratch on the frame is reused.
func (a *activation) jump(dest *ir.Block) error {
	f := a.frame
	a.prev, a.block, a.index = a.block, dest, 0
	vals, ids := f.phiVals[:0], f.phiIDs[:0]
	var err error
	for _, in := range dest.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		edge := slices.Index(in.Dests, a.prev)
		if edge < 0 {
			err = fmt.Errorf("phi in %s has no incoming edge from %s", dest, a.prev)
			break
		}
		var v val.Value
		if v, err = a.value(in.Args[edge]); err != nil {
			break
		}
		vals, ids = append(vals, v), append(ids, ir.ValueID(in))
	}
	f.phiVals, f.phiIDs = vals, ids
	if err != nil {
		return err
	}
	for i, id := range ids {
		f.set(id, vals[i])
	}
	return nil
}

// call executes a call instruction: llhd.* intrinsics go to the engine
// hooks, any other callee runs as a function activation.
func (a *activation) call(e *engine.Engine, in *ir.Inst) error {
	s := a.sim
	args := s.acquireArgs(len(in.Args))
	defer s.releaseArgs(args)
	for i, x := range in.Args {
		v, err := a.value(x)
		if err != nil {
			return err
		}
		args[i] = v
	}
	var (
		rv  val.Value
		err error
	)
	if strings.HasPrefix(in.Callee, "llhd.") {
		rv, err = intrinsic(e, in.Callee, args)
	} else {
		rv, err = s.invoke(e, in.Callee, args)
	}
	if err == nil && !in.Ty.IsVoid() {
		a.frame.set(ir.ValueID(in), rv)
	}
	return err
}

// invoke runs the named function to completion (functions execute
// immediately, §2.4.1) on a pooled activation and returns its result.
// Recursion pops deeper activations, so steady-state call chains allocate
// nothing.
func (s *Simulator) invoke(e *engine.Engine, callee string, args []val.Value) (val.Value, error) {
	fn := s.Module.Unit(callee)
	switch {
	case fn == nil:
		return val.Value{}, fmt.Errorf("call to undefined @%s", callee)
	case fn.Kind != ir.UnitFunc:
		return val.Value{}, fmt.Errorf("call target @%s is a %s", callee, fn.Kind)
	case len(args) != len(fn.Inputs):
		return val.Value{}, fmt.Errorf("@%s called with %d args, want %d", callee, len(args), len(fn.Inputs))
	case s.depth >= engine.MaxCallDepth:
		return val.Value{}, callError{fmt.Errorf("@%s: call depth %d exceeded: %w", callee, engine.MaxCallDepth, engine.ErrStepLimit)}
	}
	pool := s.funcs[fn]
	if pool == nil {
		pool = &funcPool{}
		s.funcs[fn] = pool
	}
	var c *activation
	if n := len(pool.free); n > 0 {
		c = pool.free[n-1]
		pool.free = pool.free[:n-1]
		c.frame.reset()
		c.ret = val.Value{}
	} else {
		c = &activation{sim: s, unit: fn, frame: newFrame(fn.Numbering().Len())}
	}
	c.enter()
	for i, p := range fn.Inputs {
		c.frame.set(ir.ValueID(p), args[i])
	}
	s.depth++
	_, err := c.run(e, 0)
	s.depth--
	pool.free = append(pool.free, c)
	if err != nil && !errors.As(err, new(callError)) {
		err = callError{fmt.Errorf("@%s: %w", callee, err)}
	}
	return c.ret, err
}

// callError is a failure that already names the function it happened in.
// The callers it unwinds through pass it on as it is, so an error deep in
// a call chain reports its innermost function, not one prefix per frame.
type callError struct{ error }

func (c callError) Unwrap() error { return c.error }

// funcPool holds the idle activations of one function unit.
type funcPool struct{ free []*activation }

// acquireArgs pops a call-argument buffer of length n from the pool.
func (s *Simulator) acquireArgs(n int) []val.Value {
	if k := len(s.argPool); k > 0 {
		buf := s.argPool[k-1]
		s.argPool = s.argPool[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]val.Value, n)
}

// releaseArgs returns a buffer to the pool.
func (s *Simulator) releaseArgs(buf []val.Value) {
	s.argPool = append(s.argPool, buf[:0])
}

// intrinsic implements the llhd.* intrinsics (§2.5.9).
func intrinsic(e *engine.Engine, name string, args []val.Value) (val.Value, error) {
	switch name {
	case "llhd.assert":
		if len(args) != 1 {
			return val.Value{}, fmt.Errorf("llhd.assert needs one i1 argument")
		}
		if !args[0].IsTrue() {
			e.OnAssert(name, e.Now)
		}
		return val.Value{}, nil
	case "llhd.display":
		if e.Display != nil {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.String()
			}
			e.Display(strings.Join(parts, " "))
		}
		return val.Value{}, nil
	case "llhd.time":
		return val.TimeVal(e.Now), nil
	}
	return val.Value{}, fmt.Errorf("unknown intrinsic @%s", name)
}

// reg implements the reg storage element (§2.5.3): every activation
// samples each trigger; the first one samples only, later ones drive the
// stored value of the first trigger whose mode fires and whose gate is
// open. The sample history is written in place, so the steady-state wake
// path does not allocate.
func (a *activation) reg(e *engine.Engine, in *ir.Inst) error {
	r, err := a.sigRef(in.Args[0])
	if err != nil {
		return err
	}
	if a.regPrev == nil {
		a.regPrev = make([][]bool, len(a.sigs))
	}
	id := ir.ValueID(in)
	prev := a.regPrev[id]
	first := prev == nil
	if first {
		prev = make([]bool, len(in.Triggers))
		a.regPrev[id] = prev
	}
	fired := -1
	for i := range in.Triggers {
		tr := &in.Triggers[i]
		c, err := a.value(tr.Trigger)
		if err != nil {
			return err
		}
		was, now := prev[i], c.IsTrue()
		prev[i] = now
		if first || fired >= 0 || !tr.Mode.Fires(was, now) {
			continue
		}
		if tr.Gate != nil {
			g, err := a.value(tr.Gate)
			if err != nil {
				return err
			}
			if !g.IsTrue() {
				continue
			}
		}
		fired = i
	}
	if fired < 0 {
		return nil
	}
	var delay ir.Time
	if in.Delay != nil {
		d, err := a.value(in.Delay)
		if err != nil {
			return err
		}
		delay = d.Time()
	}
	v, err := a.value(in.Triggers[fired].Value)
	if err != nil {
		return err
	}
	e.Drive(r, v, delay)
	return nil
}

// del implements the transport delay (§2.5.3): the first activation
// samples the source, later ones re-drive the target whenever the source
// changed.
func (a *activation) del(e *engine.Engine, in *ir.Inst) error {
	r, err := a.sigRef(in.Args[0])
	if err != nil {
		return err
	}
	src, err := a.sigRef(in.Args[1])
	if err != nil {
		return err
	}
	d, err := a.value(in.Args[2])
	if err != nil {
		return err
	}
	if a.delPrev == nil {
		a.delPrev = make([]val.Value, len(a.sigs))
		a.delKnown = make([]bool, len(a.sigs))
	}
	id := ir.ValueID(in)
	cur := e.Probe(src)
	known := a.delKnown[id]
	if known && cur.Eq(a.delPrev[id]) {
		return nil
	}
	a.delKnown[id], a.delPrev[id] = true, cur
	if known {
		e.Drive(r, cur, d.Time())
	}
	return nil
}
