package svsim

import (
	"fmt"

	"llhd/internal/engine"
	"llhd/internal/ir"
)

// cval is an interpreted expression value: its bits, and the width and
// signedness they carry, which a ternary picks at run time. fill marks a
// '0 / '1 literal, whose width adapts to its context.
type cval struct {
	bits   uint64
	width  int
	signed bool
	fill   bool
}

func mask(v uint64, w int) uint64 { return ir.MaskWidth(v, w) }

func (c cval) adapt(w int) uint64 {
	if c.fill {
		if c.bits != 0 {
			return mask(^uint64(0), w)
		}
		return 0
	}
	b := c.bits
	if c.signed && c.width < w {
		b = uint64(ir.SignExtend(b, c.width))
	}
	return mask(b, w)
}

// loopBudget bounds the backward jumps of one activation, nested calls
// included: a loop that never ends is a step-limit quota failure, as on
// the LLHD engines.
const loopBudget = 100_000_000

// run executes the code from p.pc on. It reports true when the process
// suspended — the op armed its wake and left p.pc at the op to resume
// at — and false when it ended: the end of an initial block, $finish, a
// runtime error, or the return of a function entered when the call stack
// held base frames (a call from eval).
func (p *astProc) run(base int) bool {
	for p.err == nil {
		s := &p.code[p.pc]
		p.pc++
		switch s.op {
		case sDecl:
			var v uint64
			if s.x != nil {
				v = p.eval(s.x).adapt(s.w)
			}
			p.fr[s.slot] = v

		case sAssign:
			p.assign(s, p.eval(s.x))

		case sStore:
			if v := p.eval(s.x).bits; p.err == nil {
				p.fr[s.slot] = mask(v, s.w)
			}

		case sExpr:
			p.eval(s.x)

		case sJump:
			p.pc = s.target

		case sBranch:
			if c := p.eval(s.x); p.err == nil && c.bits == 0 {
				p.pc = s.target
			}

		case sLoop:
			if p.jumps++; p.jumps >= loopBudget {
				p.fail(fmt.Errorf("%s loop exceeded iteration budget: %w", s.name, engine.ErrStepLimit))
				break
			}
			p.pc = s.target

		case sCase:
			p.pc = p.caseTarget(s)

		case sRepeat:
			if p.fr[s.slot] == 0 {
				p.pc = s.target
			} else {
				p.fr[s.slot]--
			}

		case sCall:
			p.enter(s)

		case sReturn:
			if len(p.stack) == base {
				return false
			}
			p.leave()

		case sDelay:
			t, ok := p.evalTime(s.x)
			if p.err != nil {
				break
			}
			if !ok {
				p.fail(fmt.Errorf("delay is not a time"))
				break
			}
			p.flush()
			p.e.Subscribe(p.ProcID(), nil)
			p.e.ScheduleWake(p.ProcID(), t)
			return true

		case sWait:
			l := &p.waits[s.slot]
			l.sample(p.e)
			p.flush()
			p.e.Subscribe(p.ProcID(), l.refs)
			return true

		case sFired:
			if !p.waits[s.slot].fired(p.e) {
				p.pc = s.target
			}

		case sPass:
			p.reads.reset()

		case sArm:
			// A combinational block waits on the nets its pass read, those
			// it wrote itself excepted, taken before the flush.
			p.arm = p.arm[:0]
			for _, slot := range p.reads.list {
				if !p.pending.has[slot] {
					p.arm = append(p.arm, p.refs[slot])
				}
			}
			p.flush()
			p.e.Subscribe(p.ProcID(), p.arm)
			p.pc = 0
			return true

		case sHalt:
			return false

		case sAssert:
			if c := p.eval(s.x); p.err == nil && c.bits == 0 {
				p.e.OnAssert("assert", p.e.Now)
			}

		case sFail:
			p.e.OnAssert(s.name, p.e.Now)

		default:
			panic(fmt.Sprintf("svsim: statement opcode %d", s.op))
		}
	}
	return false
}

// caseTarget is where a case statement goes: the first arm with a label
// equal to the subject, else the default.
func (p *astProc) caseTarget(s *stmt) int {
	subj := p.eval(s.x)
	for _, arm := range s.arms {
		for _, l := range arm.labels {
			if lv := p.eval(l); p.err != nil || lv.adapt(subj.width) == subj.bits {
				return arm.pc
			}
		}
	}
	return s.target
}

// assign stores rhs to the target of an assignment or of a call op,
// unless evaluating the delay failed.
func (p *astProc) assign(s *stmt, rhs cval) {
	var delay ir.Time
	if s.y != nil {
		delay, _ = p.evalTime(s.y)
	}
	if p.err == nil {
		p.store(s.lv, rhs, s.blocking, delay)
	}
}

// store writes rhs to an assignment target.
func (p *astProc) store(lv *lvalue, rhs cval, blocking bool, delay ir.Time) {
	switch lv.kind {
	case lvWhole:
		p.writeBack(lv.base, rhs.adapt(lv.base.w), blocking, delay)

	case lvArray:
		i := int(p.eval(lv.idx).bits)
		elems := p.arrays[lv.slot]
		if i < 0 || i >= len(elems) {
			p.fail(fmt.Errorf("array index %d out of range on %q", i, lv.name))
			return
		}
		elems[i] = rhs.adapt(lv.w)

	case lvBit: // read-modify-write
		idx := p.eval(lv.idx).bits
		cur := p.eval(lv.base).bits
		p.writeBack(lv.base, cur&^(1<<idx)|rhs.adapt(1)<<idx, blocking, delay)

	case lvPart: // x[base +: w] = rhs: clear the field, or the value in
		cur := p.eval(lv.base).bits
		idx := p.eval(lv.idx).bits
		m := mask(^uint64(0), lv.w) << idx
		p.writeBack(lv.base, cur&^m|rhs.adapt(lv.w)<<idx, blocking, delay)

	case lvSlice:
		cur := p.eval(lv.base).bits
		m := mask(^uint64(0), lv.w) << lv.lsb
		p.writeBack(lv.base, cur&^m|rhs.adapt(lv.w)<<lv.lsb, blocking, delay)

	case lvConcat:
		whole := rhs.adapt(lv.w)
		off := lv.w
		for _, part := range lv.parts {
			off -= part.w
			p.writeBack(part, mask(whole>>off, part.w), blocking, delay)
		}
	}
}

// writeBack writes a whole local or net.
func (p *astProc) writeBack(base *expr, bits uint64, blocking bool, delay ir.Time) {
	if base.op == opLocal {
		p.fr[base.slot] = mask(bits, base.w)
		return
	}
	p.writeNet(base.slot, base.w, bits, blocking, delay)
}
