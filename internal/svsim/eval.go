package svsim

import (
	"fmt"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/val"
)

// eval interprets an expression.
func (p *astProc) eval(e moore.Expr) (cval, error) {
	switch x := e.(type) {
	case *moore.Number:
		if x.Fill {
			return cval{fill: true, bits: x.Value, width: 1}, nil
		}
		w := x.Width
		if w == 0 {
			w = 32
		}
		return cval{bits: mask(x.Value, w), width: w}, nil

	case *moore.TimeLit:
		t, err := ir.ParseTime(x.Text)
		if err != nil {
			return cval{}, err
		}
		return cval{isTime: true, t: t}, nil

	case *moore.StringLit:
		return cval{width: 1}, nil

	case *moore.Ident:
		return p.readName(x.Name)

	case *moore.Unary:
		v, err := p.eval(x.X)
		if err != nil {
			return cval{}, err
		}
		switch x.Op {
		case "~":
			return cval{bits: mask(^v.bits, v.width), width: v.width}, nil
		case "-":
			return cval{bits: mask(-v.bits, v.width), width: v.width, signed: v.signed}, nil
		case "!":
			return cval{bits: b2b(v.bits == 0), width: 1}, nil
		case "&":
			return cval{bits: b2b(v.bits == mask(^uint64(0), v.width)), width: 1}, nil
		case "|":
			return cval{bits: b2b(v.bits != 0), width: 1}, nil
		case "^":
			n := uint64(0)
			for b := v.bits; b != 0; b >>= 1 {
				n ^= b & 1
			}
			return cval{bits: n, width: 1}, nil
		}
		return cval{}, fmt.Errorf("unsupported unary %q", x.Op)

	case *moore.Binary:
		return p.binary(x)

	case *moore.Ternary:
		c, err := p.eval(x.Cond)
		if err != nil {
			return cval{}, err
		}
		if c.bits != 0 {
			return p.eval(x.Then)
		}
		return p.eval(x.Else)

	case *moore.Index:
		if id, ok := x.X.(*moore.Ident); ok {
			if arr, isArr := p.sc.arrays[id.Name]; isArr {
				idx, err := p.eval(x.Idx)
				if err != nil {
					return cval{}, err
				}
				i := int(idx.bits)
				if i < 0 || i >= len(arr.elems) {
					return cval{}, fmt.Errorf("array index %d out of range on %q", i, id.Name)
				}
				return cval{bits: arr.elems[i], width: arr.width}, nil
			}
		}
		base, err := p.eval(x.X)
		if err != nil {
			return cval{}, err
		}
		idx, err := p.eval(x.Idx)
		if err != nil {
			return cval{}, err
		}
		return cval{bits: base.bits >> idx.bits & 1, width: 1}, nil

	case *moore.Slice:
		base, err := p.eval(x.X)
		if err != nil {
			return cval{}, err
		}
		if x.Up {
			// x[base +: w]: dynamic base, constant width; bits past the
			// top read as zero (Go shifts by >= 64 yield 0).
			wamt, err := p.sc.constEval(x.Lsb)
			if err != nil {
				return cval{}, fmt.Errorf("indexed part select width must be constant: %v", err)
			}
			w := int(wamt)
			if w <= 0 || w > base.width {
				return cval{}, fmt.Errorf("indexed part select width %d out of range", w)
			}
			idx, err := p.eval(x.Msb)
			if err != nil {
				return cval{}, err
			}
			return cval{bits: mask(base.bits>>idx.bits, w), width: w}, nil
		}
		msb, err := p.sc.constEval(x.Msb)
		if err != nil {
			return cval{}, err
		}
		lsb, err := p.sc.constEval(x.Lsb)
		if err != nil {
			return cval{}, err
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		w := int(msb-lsb) + 1
		return cval{bits: mask(base.bits>>lsb, w), width: w}, nil

	case *moore.Concat:
		total := 0
		var parts []cval
		for _, part := range x.Parts {
			v, err := p.eval(part)
			if err != nil {
				return cval{}, err
			}
			parts = append(parts, v)
			total += v.width
		}
		var acc uint64
		off := total
		for _, v := range parts {
			off -= v.width
			acc |= mask(v.bits, v.width) << off
		}
		return cval{bits: mask(acc, total), width: total}, nil

	case *moore.Repl:
		n, err := p.sc.constEval(x.Count)
		if err != nil {
			return cval{}, err
		}
		inner, err := p.eval(x.X)
		if err != nil {
			return cval{}, err
		}
		total := int(n) * inner.width
		var acc uint64
		for i := 0; i < int(n); i++ {
			acc |= mask(inner.bits, inner.width) << (i * inner.width)
		}
		return cval{bits: mask(acc, total), width: total}, nil

	case *moore.CallExpr:
		return p.callExpr(x)

	case *moore.IncDec:
		id, ok := x.X.(*moore.Ident)
		if !ok {
			return cval{}, fmt.Errorf("++/-- target must be a variable")
		}
		lv, ok := p.locals[id.Name]
		if !ok {
			return cval{}, fmt.Errorf("++/-- target %q must be local", id.Name)
		}
		old := lv.Bits
		var next uint64
		if x.Op == "++" {
			next = old + 1
		} else {
			next = old - 1
		}
		p.locals[id.Name] = val.Int(int(lv.Width), next)
		if x.Post {
			return cval{bits: old, width: int(lv.Width)}, nil
		}
		return cval{bits: mask(next, int(lv.Width)), width: int(lv.Width)}, nil
	}
	return cval{}, fmt.Errorf("unsupported expression %T", e)
}

func b2b(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (p *astProc) binary(x *moore.Binary) (cval, error) {
	if x.Op == "&&" || x.Op == "||" {
		a, err := p.eval(x.X)
		if err != nil {
			return cval{}, err
		}
		if x.Op == "&&" && a.bits == 0 {
			return cval{width: 1}, nil
		}
		if x.Op == "||" && a.bits != 0 {
			return cval{bits: 1, width: 1}, nil
		}
		b, err := p.eval(x.Y)
		if err != nil {
			return cval{}, err
		}
		return cval{bits: b2b(b.bits != 0), width: 1}, nil
	}

	a, err := p.eval(x.X)
	if err != nil {
		return cval{}, err
	}
	b, err := p.eval(x.Y)
	if err != nil {
		return cval{}, err
	}
	w := a.width
	if b.width > w {
		w = b.width
	}
	if a.fill || b.fill {
		if a.fill && !b.fill {
			w = b.width
		}
		if b.fill && !a.fill {
			w = a.width
		}
	}
	signed := a.signed && b.signed
	av, bv := a.adapt(w), b.adapt(w)
	sa, sb := ir.SignExtend(av, w), ir.SignExtend(bv, w)

	switch x.Op {
	case "+":
		return cval{bits: mask(av+bv, w), width: w, signed: signed}, nil
	case "-":
		return cval{bits: mask(av-bv, w), width: w, signed: signed}, nil
	case "*":
		return cval{bits: mask(av*bv, w), width: w, signed: signed}, nil
	case "/":
		if bv == 0 {
			return cval{}, fmt.Errorf("division by zero")
		}
		if signed {
			return cval{bits: mask(uint64(sa/sb), w), width: w, signed: true}, nil
		}
		return cval{bits: av / bv, width: w}, nil
	case "%":
		if bv == 0 {
			return cval{}, fmt.Errorf("modulo by zero")
		}
		if signed {
			return cval{bits: mask(uint64(sa%sb), w), width: w, signed: true}, nil
		}
		return cval{bits: av % bv, width: w}, nil
	case "&":
		return cval{bits: av & bv, width: w}, nil
	case "|":
		return cval{bits: av | bv, width: w}, nil
	case "^":
		return cval{bits: av ^ bv, width: w}, nil
	case "<<", "<<<":
		if bv >= 64 {
			return cval{width: w}, nil
		}
		return cval{bits: mask(av<<bv, w), width: w}, nil
	case ">>":
		if bv >= 64 {
			return cval{width: w}, nil
		}
		return cval{bits: av >> bv, width: w}, nil
	case ">>>":
		sh := bv
		if sh >= uint64(w) {
			sh = uint64(w - 1)
		}
		return cval{bits: mask(uint64(sa>>sh), w), width: w, signed: signed}, nil
	case "==", "===":
		return cval{bits: b2b(av == bv), width: 1}, nil
	case "!=", "!==":
		return cval{bits: b2b(av != bv), width: 1}, nil
	case "<":
		if signed {
			return cval{bits: b2b(sa < sb), width: 1}, nil
		}
		return cval{bits: b2b(av < bv), width: 1}, nil
	case "<=":
		if signed {
			return cval{bits: b2b(sa <= sb), width: 1}, nil
		}
		return cval{bits: b2b(av <= bv), width: 1}, nil
	case ">":
		if signed {
			return cval{bits: b2b(sa > sb), width: 1}, nil
		}
		return cval{bits: b2b(av > bv), width: 1}, nil
	case ">=":
		if signed {
			return cval{bits: b2b(sa >= sb), width: 1}, nil
		}
		return cval{bits: b2b(av >= bv), width: 1}, nil
	}
	return cval{}, fmt.Errorf("unsupported binary %q", x.Op)
}

// callExpr dispatches system functions and user function calls.
func (p *astProc) callExpr(x *moore.CallExpr) (cval, error) {
	switch x.Name {
	case "$signed", "$unsigned":
		v, err := p.eval(x.Args[0])
		if err != nil {
			return cval{}, err
		}
		v.signed = x.Name == "$signed"
		return v, nil
	case "$time":
		return cval{isTime: true, t: p.e.Now}, nil
	case "$clog2":
		v, err := p.sc.constEval(x.Args[0])
		if err != nil {
			return cval{}, err
		}
		n := uint64(0)
		for (uint64(1) << n) < v {
			n++
		}
		return cval{bits: n, width: 32}, nil
	case "$display", "$write", "$info", "$warning":
		return cval{width: 1}, nil
	}

	fn, ok := p.sc.funcs[x.Name]
	if !ok {
		return cval{}, fmt.Errorf("unknown function %q", x.Name)
	}
	// A call chain without end is a step-limit quota failure, as on the
	// LLHD engines, not a Go stack overflow that nothing can contain.
	if p.depth >= engine.MaxCallDepth {
		return cval{}, fmt.Errorf("%s: call depth %d exceeded: %w", x.Name, engine.MaxCallDepth, engine.ErrStepLimit)
	}
	// Fresh frame: save the caller's locals.
	saved := p.locals
	p.locals = map[string]val.Value{}
	p.depth++
	defer func() { p.locals, p.depth = saved, p.depth-1 }()

	for i, arg := range fn.Args {
		if i >= len(x.Args) {
			return cval{}, fmt.Errorf("%s called with too few arguments", x.Name)
		}
		v, err := p.evalIn(saved, x.Args[i])
		if err != nil {
			return cval{}, err
		}
		w, err := p.sc.typeWidth(arg.Type)
		if err != nil {
			return cval{}, err
		}
		p.locals[arg.Name] = val.Int(w, v.adapt(w))
	}
	retW := 1
	if fn.Ret != nil {
		w, err := p.sc.typeWidth(fn.Ret)
		if err != nil {
			return cval{}, err
		}
		retW = w
	}
	p.locals[fn.Name] = val.Int(retW, 0)

	for _, d := range fn.Locals {
		if err := p.declLocals(d); err != nil {
			return cval{}, err
		}
	}
	for _, st := range fn.Body {
		c, err := p.exec(st)
		if err != nil {
			return cval{}, err
		}
		if c == ctrlReturn {
			if rv, ok := p.locals["$ret"]; ok {
				return cval{bits: mask(rv.Bits, retW), width: retW}, nil
			}
			break
		}
		if c != ctrlNone {
			return cval{}, fmt.Errorf("illegal control flow inside function %s", x.Name)
		}
	}
	rv := p.locals[fn.Name]
	return cval{bits: rv.Bits, width: retW}, nil
}

// evalIn evaluates an expression against a specific locals frame (used for
// call arguments, which belong to the caller).
func (p *astProc) evalIn(frame map[string]val.Value, e moore.Expr) (cval, error) {
	cur := p.locals
	p.locals = frame
	v, err := p.eval(e)
	p.locals = cur
	return v, err
}
