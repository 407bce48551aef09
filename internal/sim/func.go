package sim

import (
	"fmt"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// funcState is the per-function interpreter cache: the unit's value
// numbering plus a pool of frames reused across calls, so steady-state
// call chains (including recursion, which simply pops deeper frames)
// allocate nothing.
type funcState struct {
	num  *ir.Numbering
	free []*frame
}

// funcState returns (creating on first use) the cached state for fn.
func (s *Simulator) funcState(fn *ir.Unit) *funcState {
	if st, ok := s.fstates[fn]; ok {
		return st
	}
	st := &funcState{num: fn.Numbering()}
	s.fstates[fn] = st
	return st
}

// acquire returns a reset frame sized for the function.
func (st *funcState) acquire() *frame {
	if n := len(st.free); n > 0 {
		f := st.free[n-1]
		st.free = st.free[:n-1]
		f.reset()
		return f
	}
	return newFrame(st.num.Len())
}

// release returns the frame to the pool.
func (st *funcState) release(f *frame) { st.free = append(st.free, f) }

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

// interpretCall dispatches a call instruction: llhd.* intrinsics are
// handled by the engine hooks, other callees are interpreted as functions.
func interpretCall(s *Simulator, e *engine.Engine, in *ir.Inst,
	arg func(ir.Value) (val.Value, error)) (val.Value, error) {

	args := s.acquireArgs(len(in.Args))
	defer s.releaseArgs(args)
	for i, a := range in.Args {
		v, err := arg(a)
		if err != nil {
			return val.Value{}, err
		}
		args[i] = v
	}
	if strings.HasPrefix(in.Callee, "llhd.") {
		return intrinsic(e, in.Callee, args)
	}
	fn := s.Module.Unit(in.Callee)
	if fn == nil {
		return val.Value{}, fmt.Errorf("call to undefined @%s", in.Callee)
	}
	if fn.Kind != ir.UnitFunc {
		return val.Value{}, fmt.Errorf("call target @%s is a %s", in.Callee, fn.Kind)
	}
	return interpretFunc(s, e, fn, args, 0)
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

const maxCallDepth = 1000

// interpretFunc runs a function unit to completion (functions execute
// immediately, §2.4.1) and returns its return value. The frame — values,
// stack memory, and phi scratch — comes from the per-function pool and is
// invalidated for reuse by a single stamp bump.
func interpretFunc(s *Simulator, e *engine.Engine, fn *ir.Unit, args []val.Value, depth int) (val.Value, error) {
	if depth > maxCallDepth {
		return val.Value{}, fmt.Errorf("call depth exceeded in @%s", fn.Name)
	}
	if len(args) != len(fn.Inputs) {
		return val.Value{}, fmt.Errorf("@%s called with %d args, want %d", fn.Name, len(args), len(fn.Inputs))
	}
	st := s.funcState(fn)
	f := st.acquire()
	defer st.release(f)
	for i, a := range fn.Inputs {
		f.set(ir.ValueID(a), args[i])
	}

	get := func(v ir.Value) (val.Value, bool) {
		if id := ir.ValueID(v); id >= 0 {
			return f.get(id)
		}
		return val.Value{}, false
	}

	block := fn.Entry()
	var prev *ir.Block
	index := 0
	const maxSteps = 100_000_000
	for steps := 0; steps < maxSteps; steps++ {
		if block == nil || index >= len(block.Insts) {
			return val.Value{}, fmt.Errorf("@%s: fell off the end of %s", fn.Name, block)
		}
		in := block.Insts[index]
		index++

		switch in.Op {
		case ir.OpRet:
			if len(in.Args) == 1 {
				v, ok := get(in.Args[0])
				if !ok {
					return val.Value{}, fmt.Errorf("@%s: return value not computed", fn.Name)
				}
				return v, nil
			}
			return val.Value{}, nil

		case ir.OpBr:
			var dest *ir.Block
			if len(in.Args) == 1 {
				c, ok := f.boolAt(in.Args[0])
				if !ok {
					cv, ok := get(in.Args[0])
					if !ok {
						return val.Value{}, fmt.Errorf("@%s: branch condition not computed", fn.Name)
					}
					c = cv.IsTrue()
				}
				if c {
					dest = in.Dests[1]
				} else {
					dest = in.Dests[0]
				}
			} else {
				dest = in.Dests[0]
			}
			prev = block
			block = dest
			index = 0
			// Resolve phis simultaneously via the frame's reusable scratch.
			vals := f.phiVals[:0]
			ids := f.phiIDs[:0]
			for _, pin := range dest.Insts {
				if pin.Op != ir.OpPhi {
					break
				}
				found := false
				for i, bb := range pin.Dests {
					if bb == prev {
						v, ok := get(pin.Args[i])
						if !ok {
							f.phiVals, f.phiIDs = vals, ids
							return val.Value{}, fmt.Errorf("@%s: phi operand not computed", fn.Name)
						}
						vals = append(vals, v)
						ids = append(ids, ir.ValueID(pin))
						found = true
						break
					}
				}
				if !found {
					f.phiVals, f.phiIDs = vals, ids
					return val.Value{}, fmt.Errorf("@%s: phi without edge from %s", fn.Name, prev)
				}
			}
			for i, id := range ids {
				f.set(id, vals[i])
			}
			f.phiVals, f.phiIDs = vals, ids

		case ir.OpPhi:
			// handled at branch time

		case ir.OpVar, ir.OpAlloc:
			var init val.Value
			if in.Op == ir.OpVar {
				v, ok := get(in.Args[0])
				if !ok {
					return val.Value{}, fmt.Errorf("@%s: var initializer not computed", fn.Name)
				}
				init = v
			} else {
				init = val.Default(in.Ty.Elem)
			}
			f.defineMem(ir.ValueID(in), init)

		case ir.OpLd:
			sl, err := f.memOf(in.Args[0])
			if err != nil {
				return val.Value{}, fmt.Errorf("@%s: %w", fn.Name, err)
			}
			f.set(ir.ValueID(in), sl.v)

		case ir.OpSt:
			sl, err := f.memOf(in.Args[0])
			if err != nil {
				return val.Value{}, fmt.Errorf("@%s: %w", fn.Name, err)
			}
			v, ok := get(in.Args[1])
			if !ok {
				return val.Value{}, fmt.Errorf("@%s: store value not computed", fn.Name)
			}
			sl.v = v

		case ir.OpFree:
			sl, err := f.memOf(in.Args[0])
			if err != nil {
				return val.Value{}, fmt.Errorf("@%s: %w", fn.Name, err)
			}
			sl.freed = true

		case ir.OpCall:
			cargs := s.acquireArgs(len(in.Args))
			argsOK := true
			for i, a := range in.Args {
				v, ok := get(a)
				if !ok {
					argsOK = false
					break
				}
				cargs[i] = v
			}
			if !argsOK {
				s.releaseArgs(cargs)
				return val.Value{}, fmt.Errorf("@%s: call argument not computed", fn.Name)
			}
			var rv val.Value
			var err error
			if strings.HasPrefix(in.Callee, "llhd.") {
				rv, err = intrinsic(e, in.Callee, cargs)
			} else {
				callee := s.Module.Unit(in.Callee)
				if callee == nil {
					s.releaseArgs(cargs)
					return val.Value{}, fmt.Errorf("@%s: call to undefined @%s", fn.Name, in.Callee)
				}
				rv, err = interpretFunc(s, e, callee, cargs, depth+1)
			}
			s.releaseArgs(cargs)
			if err != nil {
				return val.Value{}, err
			}
			if !in.Ty.IsVoid() {
				f.set(ir.ValueID(in), rv)
			}

		case ir.OpUnreachable:
			return val.Value{}, fmt.Errorf("@%s: reached unreachable", fn.Name)

		default:
			// Scalar-integer ops run in place on the frame.
			if f.evalFast(in) {
				break
			}
			v, err := engine.EvalPure(in, f.lookup)
			if err != nil {
				return val.Value{}, fmt.Errorf("@%s: %w", fn.Name, err)
			}
			f.set(ir.ValueID(in), v)
		}
	}
	return val.Value{}, fmt.Errorf("@%s: step budget exhausted: %w", fn.Name, engine.ErrStepLimit)
}
