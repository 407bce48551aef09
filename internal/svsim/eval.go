package svsim

import (
	"fmt"
	"math/bits"

	"llhd/internal/engine"
	"llhd/internal/ir"
)

// eval interprets an expression. A runtime error is recorded by fail and
// reads as zero.
func (p *astProc) eval(x *expr) cval {
	switch x.op {
	case opConst:
		return cval{bits: x.k, width: x.w, fill: x.fill}

	case opLocal:
		return cval{bits: p.fr[x.slot], width: x.w, signed: x.signed}

	case opNet:
		return p.readNet(x)

	case opTime, opNow:
		return cval{}

	case opArray:
		i := int(p.eval(x.x).bits)
		elems := p.arrays[x.slot]
		if i < 0 || i >= len(elems) {
			return p.fail(fmt.Errorf("array index %d out of range on %q", i, x.name))
		}
		return cval{bits: elems[i], width: x.w}

	case opBit:
		base := p.eval(x.x)
		idx := p.eval(x.y)
		return cval{bits: base.bits >> idx.bits & 1, width: 1}

	case opSlice:
		base := p.eval(x.x)
		return cval{bits: mask(base.bits>>x.k, x.w), width: x.w}

	case opPart:
		// x[base +: w]: bits past the top read as zero (Go shifts by >= 64
		// yield 0).
		base := p.eval(x.x)
		if x.w <= 0 || x.w > base.width {
			return p.fail(fmt.Errorf("indexed part select width %d out of range", x.w))
		}
		idx := p.eval(x.y)
		return cval{bits: mask(base.bits>>idx.bits, x.w), width: x.w}

	case opConcat:
		var acc uint64
		total := 0
		for _, part := range x.args {
			v := p.eval(part)
			acc = acc<<v.width | mask(v.bits, v.width)
			total += v.width
		}
		return cval{bits: mask(acc, total), width: total}

	case opRepl:
		inner := p.eval(x.x)
		n := int(x.k)
		var acc uint64
		for i := 0; i < n; i++ {
			acc |= mask(inner.bits, inner.width) << (i * inner.width)
		}
		return cval{bits: mask(acc, n*inner.width), width: n * inner.width}

	case opTernary:
		if p.eval(x.x).bits != 0 {
			return p.eval(x.y)
		}
		return p.eval(x.z)

	case opSign:
		v := p.eval(x.x)
		v.signed = x.signed
		return v

	case opCall:
		return p.call(x)

	case opIncDec:
		old := p.fr[x.slot]
		next := old + 1
		if x.dec {
			next = old - 1
		}
		next = mask(next, x.w)
		p.fr[x.slot] = next
		if x.post {
			return cval{bits: old, width: x.w, signed: x.signed}
		}
		return cval{bits: next, width: x.w, signed: x.signed}

	case opNot:
		v := p.eval(x.x)
		return cval{bits: mask(^v.bits, v.width), width: v.width}
	case opNeg:
		v := p.eval(x.x)
		return cval{bits: mask(-v.bits, v.width), width: v.width, signed: v.signed}
	case opLNot:
		return cval{bits: b2b(p.eval(x.x).bits == 0), width: 1}
	case opRedAnd:
		v := p.eval(x.x)
		return cval{bits: b2b(v.bits == mask(^uint64(0), v.width)), width: 1}
	case opRedOr:
		return cval{bits: b2b(p.eval(x.x).bits != 0), width: 1}
	case opRedXor:
		return cval{bits: uint64(bits.OnesCount64(p.eval(x.x).bits) & 1), width: 1}

	case opLAnd:
		if p.eval(x.x).bits == 0 {
			return cval{width: 1}
		}
		return cval{bits: b2b(p.eval(x.y).bits != 0), width: 1}
	case opLOr:
		if p.eval(x.x).bits != 0 {
			return cval{bits: 1, width: 1}
		}
		return cval{bits: b2b(p.eval(x.y).bits != 0), width: 1}
	}
	return p.binary(x)
}

// readNet reads a net with commercial-style immediate visibility of the
// process's own blocking writes.
func (p *astProc) readNet(x *expr) cval {
	if p.pending.has[x.slot] {
		return cval{bits: p.pendVal[x.slot], width: x.w, signed: x.signed}
	}
	p.reads.add(x.slot)
	return cval{bits: p.e.Probe(p.refs[x.slot]).Bits, width: x.w, signed: x.signed}
}

// evalTime evaluates a delay: a time literal or $time, through ternaries
// and $signed/$unsigned. Anything else is evaluated and is no time.
func (p *astProc) evalTime(x *expr) (ir.Time, bool) {
	switch x.op {
	case opTime:
		return x.t, true
	case opNow:
		return p.e.Now, true
	case opTernary:
		if p.eval(x.x).bits != 0 {
			return p.evalTime(x.y)
		}
		return p.evalTime(x.z)
	case opSign:
		return p.evalTime(x.x)
	}
	p.eval(x)
	return ir.Time{}, false
}

func b2b(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// binary evaluates an operator of two operands, both adapted to the wider
// width (a '0 / '1 fill to the other's) and signed when both are.
func (p *astProc) binary(x *expr) cval {
	a := p.eval(x.x)
	b := p.eval(x.y)
	w := max(a.width, b.width)
	if a.fill != b.fill {
		if a.fill {
			w = b.width
		} else {
			w = a.width
		}
	}
	signed := a.signed && b.signed
	av, bv := a.adapt(w), b.adapt(w)

	switch x.op {
	case opAdd:
		return cval{bits: mask(av+bv, w), width: w, signed: signed}
	case opSub:
		return cval{bits: mask(av-bv, w), width: w, signed: signed}
	case opMul:
		return cval{bits: mask(av*bv, w), width: w, signed: signed}
	case opDiv:
		if bv == 0 {
			return p.fail(fmt.Errorf("division by zero"))
		}
		if signed {
			return cval{bits: mask(uint64(ir.SignExtend(av, w)/ir.SignExtend(bv, w)), w), width: w, signed: true}
		}
		return cval{bits: av / bv, width: w}
	case opMod:
		if bv == 0 {
			return p.fail(fmt.Errorf("modulo by zero"))
		}
		if signed {
			return cval{bits: mask(uint64(ir.SignExtend(av, w)%ir.SignExtend(bv, w)), w), width: w, signed: true}
		}
		return cval{bits: av % bv, width: w}
	case opAnd:
		return cval{bits: av & bv, width: w}
	case opOr:
		return cval{bits: av | bv, width: w}
	case opXor:
		return cval{bits: av ^ bv, width: w}
	case opShl:
		return cval{bits: mask(av<<bv, w), width: w}
	case opShr:
		return cval{bits: av >> bv, width: w}
	case opAShr:
		sh := bv
		if sh >= uint64(w) {
			sh = uint64(w - 1)
		}
		return cval{bits: mask(uint64(ir.SignExtend(av, w)>>sh), w), width: w, signed: signed}
	case opEq:
		return cval{bits: b2b(av == bv), width: 1}
	case opNe:
		return cval{bits: b2b(av != bv), width: 1}
	}
	if signed {
		sa, sb := ir.SignExtend(av, w), ir.SignExtend(bv, w)
		switch x.op {
		case opLt:
			return cval{bits: b2b(sa < sb), width: 1}
		case opLe:
			return cval{bits: b2b(sa <= sb), width: 1}
		case opGt:
			return cval{bits: b2b(sa > sb), width: 1}
		}
		return cval{bits: b2b(sa >= sb), width: 1}
	}
	switch x.op {
	case opLt:
		return cval{bits: b2b(av < bv), width: 1}
	case opLe:
		return cval{bits: b2b(av <= bv), width: 1}
	case opGt:
		return cval{bits: b2b(av > bv), width: 1}
	}
	return cval{bits: b2b(av >= bv), width: 1}
}

// call runs a function that cannot wait, from its first op to its
// return, in a run loop one Go call deeper; a function that may wait runs
// under a call op instead (enter).
func (p *astProc) call(x *expr) cval {
	frame := p.frame(x)
	if frame == nil {
		return cval{}
	}
	code, pc, caller := p.code, p.pc, p.fr
	p.code, p.pc, p.fr = x.fn.code, 0, frame
	p.run(len(p.stack))
	p.code, p.pc, p.fr, p.depth = code, pc, caller, p.depth-1
	if p.err != nil {
		return cval{}
	}
	return cval{bits: frame[x.fn.retSlot], width: x.fn.retW}
}

// frame opens the frame of a call one level deeper, the one pooled for
// that depth, and fills in the arguments, evaluated in the caller's frame;
// a call inside one runs a level deeper still, so it cannot clobber the
// frame being filled. It returns nil, the depth unchanged, on an error.
func (p *astProc) frame(x *expr) []uint64 {
	if p.err != nil {
		return nil
	}
	fn := x.fn
	// A call chain without end is a step-limit quota failure, as on the
	// LLHD engines, not a Go stack overflow that nothing can contain.
	if p.depth >= engine.MaxCallDepth {
		p.fail(fmt.Errorf("%s: call depth %d exceeded: %w", fn.name, engine.MaxCallDepth, engine.ErrStepLimit))
		return nil
	}
	p.depth++
	if p.depth == len(p.frames) {
		p.frames = append(p.frames, make([]uint64, p.mod.maxFrame))
	}
	frame := p.frames[p.depth]
	for i, w := range fn.argW {
		frame[i] = p.eval(x.args[i]).adapt(w)
	}
	if p.err != nil {
		p.depth--
		return nil
	}
	frame[fn.retInit] = 0
	return frame
}

// enter runs the call op s: it pushes the caller's place and jumps to the
// start of the function, which may wait.
func (p *astProc) enter(s *stmt) {
	frame := p.frame(s.x)
	if frame == nil {
		return
	}
	p.stack = append(p.stack, callFrame{code: p.code, pc: p.pc, fr: p.fr, call: s})
	p.code, p.pc, p.fr = s.x.fn.code, 0, frame
}

// leave returns from the function a call op entered: it pops the caller's
// place and stores the result to the op's target, if it has one.
func (p *astProc) leave() {
	top := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	fn := top.call.x.fn
	res := cval{bits: p.fr[fn.retSlot], width: fn.retW}
	p.code, p.pc, p.fr, p.depth = top.code, top.pc, top.fr, p.depth-1
	if top.call.lv != nil {
		p.assign(top.call, res)
	}
}
