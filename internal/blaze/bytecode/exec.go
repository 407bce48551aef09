package bytecode

import (
	"errors"
	"fmt"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// Status is the outcome of one activation.
type Status int

const (
	// StatusSuspend: the unit armed its wake-up and yielded; Frame.PC
	// holds the resume point.
	StatusSuspend Status = iota
	// StatusHalt: the unit halted (or a function returned).
	StatusHalt
)

// errStepBudget is the internal runaway-loop sentinel; the entry points
// wrap engine.ErrStepLimit around it and name the process or function.
var errStepBudget = errors.New("bytecode: step budget exhausted")

// maxJumps bounds control-flow transfers per activation: straight-line
// code stays check-free and only jumps, branches and calls pay the
// counter.
const maxJumps = 100_000_000

// Runtime is the per-session execution state over one shared Program:
// the pooled function call frames. Sharing a Runtime across concurrently
// running sessions would race on the wake path; sharing the Program is
// the point.
type Runtime struct {
	prog  *Program
	pools [][]*Frame // by Unit.FuncIdx
	depth int        // live invoke chain, bounded by engine.MaxCallDepth
}

// NewRuntime builds a session-private runtime over a shared program.
func NewRuntime(p *Program) *Runtime { return &Runtime{prog: p} }

// Exec runs one activation of a process or entity frame: from Frame.PC
// to the next suspension point or halt. Errors are returned unwrapped;
// the caller attaches the instance name.
func (rt *Runtime) Exec(e *engine.Engine, u *Unit, fr *Frame, self engine.ProcID) (Status, error) {
	st, err := rt.run(e, u, fr, self)
	if err == errStepBudget {
		err = fmt.Errorf("step budget exhausted: %w", engine.ErrStepLimit)
	}
	return st, err
}

// invoke runs a compiled function on a pooled call frame, seeding its
// arguments from the caller's registers.
func (rt *Runtime) invoke(e *engine.Engine, fu *Unit, caller []val.Value, argRegs []int32) (val.Value, error) {
	if rt.depth >= engine.MaxCallDepth {
		return val.Value{}, fmt.Errorf("@%s: call depth %d exceeded: %w", fu.Name, engine.MaxCallDepth, engine.ErrStepLimit)
	}
	fr := rt.acquire(fu)
	defer rt.release(fu, fr)
	for i, as := range fu.Args {
		fr.Regs[as] = caller[argRegs[i]]
	}
	// Not deferred: a panic poisons the session, nothing reads depth again.
	rt.depth++
	st, err := rt.run(e, fu, fr, 0)
	rt.depth--
	switch {
	case err == errStepBudget:
		return val.Value{}, fmt.Errorf("@%s: step budget exhausted: %w", fu.Name, engine.ErrStepLimit)
	case err != nil:
		return val.Value{}, err
	case st == StatusSuspend:
		return val.Value{}, fmt.Errorf("@%s: function suspended", fu.Name)
	}
	return fr.Ret, nil
}

// acquire returns a pooled call frame with its register file reset from
// the constant template (non-constant slots read as zero values, exactly
// like a freshly allocated file).
func (rt *Runtime) acquire(fu *Unit) *Frame {
	for len(rt.pools) <= fu.FuncIdx {
		rt.pools = append(rt.pools, nil)
	}
	if pool := rt.pools[fu.FuncIdx]; len(pool) > 0 {
		fr := pool[len(pool)-1]
		rt.pools[fu.FuncIdx] = pool[:len(pool)-1]
		copy(fr.Regs, fu.ConstRegs)
		fr.PC = 0
		fr.Ret = val.Value{}
		return fr
	}
	return fu.newFuncFrame()
}

// release returns a call frame to its pool; recursion pops deeper
// frames, so release order is naturally LIFO.
func (rt *Runtime) release(fu *Unit, fr *Frame) {
	rt.pools[fu.FuncIdx] = append(rt.pools[fu.FuncIdx], fr)
}

// storeInt writes a two-state scalar in place: only Kind/Width/Bits are
// touched, leaving any stale payload pointer behind. Every consumer of a
// val.Value switches on Kind first, so the stale pointer is inert — this
// is what lets the integer fast path run without a pointer store (and its
// write barrier) per op.
func storeInt(r *val.Value, w int, bits uint64) {
	if w <= 0 {
		w = 1 // mirror val.Int's width clamp
	}
	r.Kind = val.KindInt
	r.Width = int32(w)
	r.Bits = ir.MaskWidth(bits, w)
}

func storeBool(r *val.Value, b bool) {
	r.Kind = val.KindInt
	r.Width = 1
	if b {
		r.Bits = 1
	} else {
		r.Bits = 0
	}
}

// run is the threaded dispatch loop. It executes from fr.PC until the
// activation suspends, halts, or fails. All mutable state is reached
// through fr; u is shared read-only across sessions.
func (rt *Runtime) run(e *engine.Engine, u *Unit, fr *Frame, self engine.ProcID) (Status, error) {
	var (
		code  = u.Code
		aux   = u.Aux
		regs  = fr.Regs
		pc    = fr.PC
		jumps = 0
	)
	for {
		i := &code[pc]
		pc++
		switch i.Op {
		case opMove, opClone:
			regs[i.Dst] = regs[i.A]
		case opCloneP:
			regs[i.Dst] = u.Pool[i.A]

		case opAdd:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits+regs[i.B].Bits)
		case opSub:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits-regs[i.B].Bits)
		case opMul:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits*regs[i.B].Bits)
		case opAnd:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits&regs[i.B].Bits)
		case opOr:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits|regs[i.B].Bits)
		case opXor:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits^regs[i.B].Bits)
		case opShl:
			storeInt(&regs[i.Dst], int(i.C), val.Shl(regs[i.A].Bits, regs[i.B].Bits))
		case opShr:
			storeInt(&regs[i.Dst], int(i.C), val.Shr(regs[i.A].Bits, regs[i.B].Bits))
		case opAshr:
			storeInt(&regs[i.Dst], int(i.C), val.Ashr(regs[i.A].Bits, regs[i.B].Bits, int(i.C)))
		case opNot:
			storeInt(&regs[i.Dst], int(i.C), ^regs[i.A].Bits)
		case opNeg:
			storeInt(&regs[i.Dst], int(i.C), -regs[i.A].Bits)

		case opEq:
			a, b := &regs[i.A], &regs[i.B]
			if a.Kind == val.KindInt && b.Kind == val.KindInt {
				storeBool(&regs[i.Dst], a.Width == b.Width && a.Bits == b.Bits)
			} else {
				storeBool(&regs[i.Dst], a.Eq(*b))
			}
		case opNeq:
			a, b := &regs[i.A], &regs[i.B]
			if a.Kind == val.KindInt && b.Kind == val.KindInt {
				storeBool(&regs[i.Dst], a.Width != b.Width || a.Bits != b.Bits)
			} else {
				storeBool(&regs[i.Dst], !a.Eq(*b))
			}
		case opUlt:
			storeBool(&regs[i.Dst], regs[i.A].Bits < regs[i.B].Bits)
		case opUgt:
			storeBool(&regs[i.Dst], regs[i.A].Bits > regs[i.B].Bits)
		case opUle:
			storeBool(&regs[i.Dst], regs[i.A].Bits <= regs[i.B].Bits)
		case opUge:
			storeBool(&regs[i.Dst], regs[i.A].Bits >= regs[i.B].Bits)
		case opSlt:
			storeBool(&regs[i.Dst], val.Slt(regs[i.A].Bits, regs[i.B].Bits, int(i.C)))
		case opSgt:
			storeBool(&regs[i.Dst], val.Sgt(regs[i.A].Bits, regs[i.B].Bits, int(i.C)))
		case opSle:
			storeBool(&regs[i.Dst], val.Sle(regs[i.A].Bits, regs[i.B].Bits, int(i.C)))
		case opSge:
			storeBool(&regs[i.Dst], val.Sge(regs[i.A].Bits, regs[i.B].Bits, int(i.C)))

		case opExtSInt:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits>>uint(i.B))
		case opInsSInt:
			off, n, w := int(aux[i.C]), int(aux[i.C+1]), int(aux[i.C+2])
			storeInt(&regs[i.Dst], w, val.InsBits(regs[i.A].Bits, regs[i.B].Bits, off, n))
		case opInsSCat:
			// The links of the chain wrote words of one width, so masking
			// once at the end equals masking after every splice.
			bits := regs[i.A].Bits
			pieces := aux[i.C+1 : i.C+1+3*i.B]
			for k := 0; k+2 < len(pieces); k += 3 {
				bits = val.InsBits(bits, regs[pieces[k]].Bits, int(pieces[k+1]), int(pieces[k+2]))
			}
			storeInt(&regs[i.Dst], int(aux[i.C]), bits)

		case opEvalBin:
			out, err := val.Binary(ir.Opcode(i.C), regs[i.A], regs[i.B])
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opEvalUn:
			out, err := val.Unary(ir.Opcode(i.C), nil, regs[i.A])
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out

		case opMux:
			out, err := val.Mux(regs[i.A], regs[i.B])
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opExtF:
			out, err := val.ExtF(regs[i.A], int(i.B))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opExtFDyn:
			out, err := val.ExtFDyn(regs[i.A], regs[i.B].Bits)
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opExtS:
			out, err := val.ExtS(regs[i.A], int(i.B), int(i.C))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opInsF:
			out, err := val.InsF(regs[i.A], regs[i.B], int(i.C))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opInsFDyn:
			out, err := val.InsFDyn(regs[i.A], regs[i.B], regs[i.C].Bits)
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opInsS:
			out, err := val.InsS(regs[i.A], regs[i.B], int(aux[i.C]), int(aux[i.C+1]))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opAgg:
			elems := make([]val.Value, i.B)
			for k := range elems {
				elems[k] = regs[aux[int(i.A)+k]]
			}
			regs[i.Dst] = val.Agg(elems)

		case opPrb:
			regs[i.Dst] = e.Probe(fr.Sigs[i.A])
		case opDrv:
			e.Drive(fr.Sigs[i.A], regs[i.B], regs[i.C].Time())
		case opDrvCond:
			if regs[i.Dst].Bits != 0 {
				e.Drive(fr.Sigs[i.A], regs[i.B], regs[i.C].Time())
			}
		case opDel:
			cur := e.Probe(fr.Sigs[i.B])
			d := &fr.Dels[i.Dst]
			if !d.Seen {
				d.Seen = true
				d.Prev = cur
			} else if !cur.Eq(d.Prev) {
				d.Prev = cur
				e.Drive(fr.Sigs[i.A], cur, regs[i.C].Time())
			}
		case opReg:
			rt.regSite(e, u, fr, regs, int(i.A))

		case opCall:
			if jumps++; jumps >= maxJumps {
				return 0, errStepBudget
			}
			rv, err := rt.invoke(e, rt.prog.FuncList[i.A], regs, aux[i.B:i.B+i.C])
			if err != nil {
				return 0, err
			}
			if i.Dst >= 0 {
				regs[i.Dst] = rv
			}
		case opAssert:
			if regs[i.A].Bits == 0 {
				e.OnAssert("llhd.assert", e.Now)
			}
		case opDisplay:
			if e.Display != nil {
				display(e, regs, aux[i.A:i.A+i.B])
			}
		case opTimeNow:
			if i.Dst >= 0 {
				regs[i.Dst] = val.TimeVal(e.Now)
			}
		case opBadCall:
			return 0, fmt.Errorf("unknown intrinsic @%s", u.Strs[i.A])

		case opJump:
			if jumps++; jumps >= maxJumps {
				return 0, errStepBudget
			}
			pc = int(i.A)
		case opBranch:
			if jumps++; jumps >= maxJumps {
				return 0, errStepBudget
			}
			if regs[i.A].Bits != 0 {
				pc = int(i.C)
			} else {
				pc = int(i.B)
			}
		case opPhi:
			// Simultaneous assignment over the preallocated scratch:
			// gather then scatter, no per-edge allocation.
			n := int(i.B)
			moves := aux[i.A : int(i.A)+2*n]
			tmp := fr.Phi[:n]
			for k := 0; k < n; k++ {
				tmp[k] = regs[moves[2*k]]
			}
			for k := 0; k < n; k++ {
				regs[moves[2*k+1]] = tmp[k]
			}
		case opWaitArm:
			e.Subscribe(self, fr.Waits[i.A])
			if i.B >= 0 {
				e.ScheduleWake(self, regs[i.B].Time())
			}
		case opSuspend:
			fr.PC = int(i.A)
			return StatusSuspend, nil
		case opHalt, opRet:
			return StatusHalt, nil
		case opRetV:
			fr.Ret = regs[i.A]
			return StatusHalt, nil
		case opUnreach:
			return 0, fmt.Errorf("reached unreachable")
		case opNop:
			// nothing
		default:
			return 0, fmt.Errorf("bytecode: invalid opcode %d at pc %d in @%s", i.Op, pc-1, u.Name)
		}
	}
}

// display renders an llhd.display call. It is the dispatch loop's one
// formatting arm and lives out here so that run carries neither its frame
// nor an inlined val.Value.String (the inliner leaves it alone: it is
// over budget).
func display(e *engine.Engine, regs []val.Value, args []int32) {
	parts := make([]string, len(args))
	for k, r := range args {
		parts[k] = regs[r].String()
	}
	e.Display(strings.Join(parts, " "))
}

// regSite executes one reg storage site: every activation samples every
// trigger; the first one samples only, later ones drive the value of the
// first edge-matched, gate-open trigger. A trigger behind the winner is
// still sampled, or its next edge would be judged against a stale level.
func (rt *Runtime) regSite(e *engine.Engine, u *Unit, fr *Frame, regs []val.Value, ri int) {
	site := &u.RegSites[ri]
	st := &fr.Regst[ri]
	first := !st.Seen
	st.Seen = true
	fired := false
	for k := range site.Trigs {
		t := &site.Trigs[k]
		now := regs[t.Trigger].Bits != 0
		was := st.Prev[k]
		st.Prev[k] = now
		if first || fired || !t.Mode.Fires(was, now) {
			continue
		}
		if t.Gate >= 0 && regs[t.Gate].Bits == 0 {
			continue
		}
		var d ir.Time
		if site.Delay >= 0 {
			d = regs[site.Delay].Time()
		}
		e.Drive(fr.Sigs[site.Sig], regs[t.Value], d)
		fired = true
	}
}
