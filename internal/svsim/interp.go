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

// errCtrl is ctrlErr when a runtime error is pending, else ctrlNone.
func (p *astProc) errCtrl() ctrl {
	if p.err != nil {
		return ctrlErr
	}
	return ctrlNone
}

// exec interprets one statement.
func (p *astProc) exec(s *stmt) ctrl {
	switch s.op {
	case sNop:
		return ctrlNone

	case sBlock:
		for _, x := range s.list {
			if c := p.exec(x); c != ctrlNone {
				return c
			}
		}
		return ctrlNone

	case sDecl:
		var v uint64
		if s.x != nil {
			v = p.eval(s.x).adapt(s.w)
		}
		p.fr[s.slot] = v
		return p.errCtrl()

	case sAssign:
		rhs := p.eval(s.x)
		var delay ir.Time
		if s.y != nil {
			delay, _ = p.evalTime(s.y)
		}
		if p.err != nil {
			return ctrlErr
		}
		p.store(s.lv, rhs, s.blocking, delay)
		return p.errCtrl()

	case sIf:
		cond := p.eval(s.x)
		if p.err != nil {
			return ctrlErr
		}
		if cond.bits != 0 {
			return p.exec(s.a)
		}
		return p.exec(s.b)

	case sCase:
		subj := p.eval(s.x)
		for _, arm := range s.arms {
			for _, l := range arm.labels {
				lv := p.eval(l)
				if p.err != nil {
					return ctrlErr
				}
				if lv.adapt(subj.width) == subj.bits {
					return p.exec(arm.body)
				}
			}
		}
		if p.err != nil {
			return ctrlErr
		}
		return p.exec(s.b)

	case sFor:
		if c := p.exec(s.a); c != ctrlNone {
			return c
		}
		for iter := 0; iter < 100_000_000; iter++ {
			if s.x != nil && !p.holds(s.x) {
				return p.errCtrl()
			}
			if c := p.exec(s.body); c != ctrlNone {
				return c
			}
			if c := p.exec(s.b); c != ctrlNone {
				return c
			}
		}
		p.fail(fmt.Errorf("for loop exceeded iteration budget: %w", engine.ErrStepLimit))
		return ctrlErr

	case sWhile:
		first := s.doWhile
		for iter := 0; iter < 100_000_000; iter++ {
			if !first && !p.holds(s.x) {
				return p.errCtrl()
			}
			first = false
			if c := p.exec(s.body); c != ctrlNone {
				return c
			}
			if s.doWhile && !p.holds(s.x) {
				return p.errCtrl()
			}
		}
		p.fail(fmt.Errorf("while loop exceeded iteration budget: %w", engine.ErrStepLimit))
		return ctrlErr

	case sRepeat:
		n := p.eval(s.x)
		if p.err != nil {
			return ctrlErr
		}
		for i := uint64(0); i < n.bits; i++ {
			if c := p.exec(s.body); c != ctrlNone {
				return c
			}
		}
		return ctrlNone

	case sDelay:
		t, ok := p.evalTime(s.x)
		if p.err != nil {
			return ctrlErr
		}
		if !ok {
			p.fail(fmt.Errorf("delay is not a time"))
			return ctrlErr
		}
		if !p.suspend(yieldMsg{timeout: t, timed: true}) {
			return ctrlStop
		}
		return p.exec(s.a)

	case sWait:
		l := &p.waits[s.slot]
		for { // suspend until one of the list's edges fires
			l.sample(p.e)
			if !p.suspend(yieldMsg{refs: l.refs}) {
				return ctrlStop
			}
			if l.fired(p.e) {
				return ctrlNone
			}
		}

	case sExpr:
		p.eval(s.x)
		return p.errCtrl()

	case sAssert:
		cond := p.eval(s.x)
		if p.err != nil {
			return ctrlErr
		}
		if cond.bits == 0 {
			p.e.OnAssert("assert", p.e.Now)
		}
		return ctrlNone

	case sFinish:
		return ctrlFinish

	case sStore:
		v := p.eval(s.x).bits
		if p.err != nil {
			return ctrlErr
		}
		p.fr[s.slot] = mask(v, s.w)
		return ctrlNone

	case sReturn:
		return ctrlReturn

	case sFail:
		p.e.OnAssert(s.name, p.e.Now)
		return ctrlNone
	}
	panic(fmt.Sprintf("svsim: statement opcode %d", s.op))
}

// holds evaluates a loop condition; a runtime error reads as false.
func (p *astProc) holds(x *expr) bool {
	return p.eval(x).bits != 0 && p.err == nil
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
