package moore

import (
	"strings"

	"llhd/internal/ir"
)

// readNet reads a net's current value: through the shadow for
// blocking-assigned nets, else a probe.
func (g *procGen) readNet(name string) ir.Value {
	if sh, ok := g.shadows[name]; ok {
		return g.b.Ld(sh)
	}
	return g.b.Prb(g.args[name])
}

// coerce adapts a value to the given width: truncating, zero- or
// sign-extending, and materializing '0/'1 fills.
func (g *procGen) coerce(v cv, w int) ir.Value {
	if v.fill {
		bits := uint64(0)
		if v.bit != 0 {
			bits = ^uint64(0)
		}
		return g.b.ConstInt(ir.IntType(w), bits)
	}
	if v.width == w {
		return v.v
	}
	if v.width > w {
		tr := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(w), Args: []ir.Value{v.v}, Imm0: 0, Imm1: w}
		g.append(tr)
		return tr
	}
	// Extension. Constants extend in place.
	if k, ok := v.v.(*ir.Inst); ok && k.Op == ir.OpConstInt {
		bits := k.IVal
		if v.signed {
			bits = uint64(ir.SignExtend(bits, v.width))
		}
		return g.b.ConstInt(ir.IntType(w), bits)
	}
	zero := g.b.ConstInt(ir.IntType(w), 0)
	ext := g.b.InsS(zero, v.v, 0, v.width)
	if v.signed {
		sh := g.b.ConstInt(ir.IntType(w), uint64(w-v.width))
		ext = g.b.Binary(ir.OpAshr, g.b.Shl(ext, sh), sh)
	}
	return ext
}

// exprBool evaluates e and reduces it to an i1 (nonzero test).
func (g *procGen) exprBool(e Expr) (ir.Value, error) {
	v, err := g.expr(e)
	if err != nil {
		return nil, err
	}
	return g.toBool(v), nil
}

func (g *procGen) toBool(v cv) ir.Value {
	if v.fill {
		return g.b.ConstInt(ir.IntType(1), v.bit)
	}
	if v.width == 1 {
		return v.v
	}
	zero := g.b.ConstInt(ir.IntType(v.width), 0)
	return g.b.Neq(v.v, zero)
}

// expr generates code for an expression.
func (g *procGen) expr(e Expr) (cv, error) {
	switch x := e.(type) {
	case *Number:
		if x.Fill {
			return cv{fill: true, bit: x.Value}, nil
		}
		w := x.Width
		if w == 0 {
			w = 32
		}
		k := g.b.ConstInt(ir.IntType(w), x.Value)
		return cv{v: k, width: w}, nil

	case *TimeLit:
		t, err := ir.ParseTime(x.Text)
		if err != nil {
			return cv{}, g.errf("%v", err)
		}
		return cv{v: g.b.ConstTime(t), isTime: true}, nil

	case *StringLit:
		// Strings only appear as $display formats; a zero stands in.
		return cv{v: g.b.ConstInt(ir.IntType(1), 0), width: 1}, nil

	case *Ident:
		return g.readName(x.Name)

	case *Unary:
		return g.unary(x)

	case *Binary:
		return g.binary(x)

	case *Ternary:
		cond, err := g.exprBool(x.Cond)
		if err != nil {
			return cv{}, err
		}
		tv, err := g.expr(x.Then)
		if err != nil {
			return cv{}, err
		}
		ev, err := g.expr(x.Else)
		if err != nil {
			return cv{}, err
		}
		w := maxWidth(tv, ev)
		tvv := g.coerce(tv, w)
		evv := g.coerce(ev, w)
		arr := g.b.Array(ir.IntType(w), evv, tvv)
		mux := g.b.Mux(arr, cond)
		return cv{v: mux, width: w, signed: tv.signed && ev.signed}, nil

	case *Index:
		return g.index(x)

	case *Slice:
		base, err := g.expr(x.X)
		if err != nil {
			return cv{}, err
		}
		if x.Up {
			// Indexed part select x[base +: w]: constant width, dynamic
			// base. Shift the vector down and truncate; bits selected
			// past the top read as zero.
			wamt, err := g.c.constEval(x.Lsb, g.sc)
			if err != nil {
				return cv{}, g.errf("indexed part select width must be constant: %v", err)
			}
			w := int(wamt)
			if w <= 0 || w > base.width {
				return cv{}, g.errf("indexed part select width %d out of range", w)
			}
			idx, err := g.expr(x.Msb)
			if err != nil {
				return cv{}, err
			}
			sh := g.b.Shr(base.v, g.coerce(idx, base.width))
			sl := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(w), Args: []ir.Value{sh}, Imm0: 0, Imm1: w}
			g.append(sl)
			return cv{v: sl, width: w}, nil
		}
		msb, err := g.c.constEval(x.Msb, g.sc)
		if err != nil {
			return cv{}, g.errf("part select bounds must be constant: %v", err)
		}
		lsb, err := g.c.constEval(x.Lsb, g.sc)
		if err != nil {
			return cv{}, g.errf("part select bounds must be constant: %v", err)
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		w := int(msb-lsb) + 1
		sl := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(w), Args: []ir.Value{base.v}, Imm0: int(lsb), Imm1: w}
		g.append(sl)
		return cv{v: sl, width: w}, nil

	case *Concat:
		total := 0
		var parts []cv
		for _, p := range x.Parts {
			v, err := g.expr(p)
			if err != nil {
				return cv{}, err
			}
			if v.fill {
				return cv{}, g.errf("'0/'1 not allowed inside concatenation")
			}
			parts = append(parts, v)
			total += v.width
		}
		acc := ir.Value(g.b.ConstInt(ir.IntType(total), 0))
		off := total
		for _, p := range parts {
			off -= p.width
			acc = g.b.InsS(acc, p.v, off, p.width)
		}
		return cv{v: acc, width: total}, nil

	case *Repl:
		n, err := g.c.constEval(x.Count, g.sc)
		if err != nil {
			return cv{}, g.errf("replication count must be constant: %v", err)
		}
		inner, err := g.expr(x.X)
		if err != nil {
			return cv{}, err
		}
		total := int(n) * inner.width
		acc := ir.Value(g.b.ConstInt(ir.IntType(total), 0))
		for i := 0; i < int(n); i++ {
			acc = g.b.InsS(acc, inner.v, i*inner.width, inner.width)
		}
		return cv{v: acc, width: total}, nil

	case *CallExpr:
		return g.call(x, false)

	case *IncDec:
		return g.incdec(x)
	}
	return cv{}, g.errf("unsupported expression %T", e)
}

// readName resolves an identifier read.
func (g *procGen) readName(name string) (cv, error) {
	if lv, ok := g.locals[name]; ok {
		if lv.isArray {
			return cv{}, g.errf("array %q used without an index", name)
		}
		return cv{v: g.b.Ld(lv.slot), width: lv.width, signed: lv.signed}, nil
	}
	if v, ok := g.sc.consts[name]; ok {
		return cv{v: g.b.ConstInt(ir.IntType(32), v), width: 32}, nil
	}
	if g.arrays[name] != nil {
		return cv{}, g.errf("array %q used without an index", name)
	}
	ni := g.sc.nets[name]
	if ni == nil || !ni.isNet {
		return cv{}, g.errf("unknown identifier %q", name)
	}
	if _, visible := g.args[name]; !visible {
		return cv{}, g.errf("net %q is not part of this process signature", name)
	}
	return cv{v: g.readNet(name), width: ni.width, signed: ni.signed}, nil
}

func (g *procGen) index(x *Index) (cv, error) {
	id, ok := x.X.(*Ident)
	if !ok {
		// Index of a computed expression: shift and mask.
		base, err := g.expr(x.X)
		if err != nil {
			return cv{}, err
		}
		idx, err := g.expr(x.Idx)
		if err != nil {
			return cv{}, err
		}
		sh := g.b.Shr(base.v, g.coerce(idx, base.width))
		bit := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(1), Args: []ir.Value{sh}, Imm0: 0, Imm1: 1}
		g.append(bit)
		return cv{v: bit, width: 1}, nil
	}
	idx, err := g.expr(x.Idx)
	if err != nil {
		return cv{}, err
	}
	if slot, w, ok := g.arrayOf(id.Name); ok {
		cur := g.b.Ld(slot)
		elem := &ir.Inst{Op: ir.OpExtF, Ty: ir.IntType(w), Args: []ir.Value{cur, g.coerce(idx, 32)}}
		g.append(elem)
		return cv{v: elem, width: w}, nil
	}
	// Bit select on a vector.
	base, err := g.readName(id.Name)
	if err != nil {
		return cv{}, err
	}
	// Constant index extracts directly; dynamic index shifts.
	if k, isConst := constNumber(x.Idx); isConst {
		bit := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(1), Args: []ir.Value{base.v}, Imm0: int(k), Imm1: 1}
		g.append(bit)
		return cv{v: bit, width: 1}, nil
	}
	sh := g.b.Shr(base.v, g.coerce(idx, base.width))
	bit := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(1), Args: []ir.Value{sh}, Imm0: 0, Imm1: 1}
	g.append(bit)
	return cv{v: bit, width: 1}, nil
}

func constNumber(e Expr) (uint64, bool) {
	if n, ok := e.(*Number); ok && !n.Fill {
		return n.Value, true
	}
	return 0, false
}

func (g *procGen) unary(x *Unary) (cv, error) {
	v, err := g.expr(x.X)
	if err != nil {
		return cv{}, err
	}
	switch x.Op {
	case "~":
		if v.fill {
			return cv{fill: true, bit: 1 - v.bit}, nil
		}
		return cv{v: g.b.Not(v.v), width: v.width, signed: v.signed}, nil
	case "-":
		return cv{v: g.b.Neg(v.v), width: v.width, signed: v.signed}, nil
	case "!":
		b := g.toBool(v)
		return cv{v: g.b.Not(b), width: 1}, nil
	case "&", "|", "^":
		// Reduction: fold over the bits.
		if v.width == 1 {
			return cv{v: v.v, width: 1}, nil
		}
		var acc ir.Value
		for i := 0; i < v.width; i++ {
			bit := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(1), Args: []ir.Value{v.v}, Imm0: i, Imm1: 1}
			g.append(bit)
			if acc == nil {
				acc = bit
				continue
			}
			switch x.Op {
			case "&":
				acc = g.b.And(acc, bit)
			case "|":
				acc = g.b.Or(acc, bit)
			case "^":
				acc = g.b.Xor(acc, bit)
			}
		}
		return cv{v: acc, width: 1}, nil
	}
	return cv{}, g.errf("unsupported unary operator %q", x.Op)
}

func maxWidth(a, b cv) int {
	switch {
	case a.fill && b.fill:
		return 1
	case a.fill:
		return b.width
	case b.fill:
		return a.width
	case a.width > b.width:
		return a.width
	default:
		return b.width
	}
}

// signlessOps are the binary operators whose opcode does not depend on
// the operands' signedness.
var signlessOps = map[string]ir.Opcode{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor,
	"<<": ir.OpShl, "<<<": ir.OpShl, ">>": ir.OpShr, ">>>": ir.OpAshr,
}

func (g *procGen) binary(x *Binary) (cv, error) {
	// Logical operators get boolean operands.
	if x.Op == "&&" || x.Op == "||" {
		a, err := g.exprBool(x.X)
		if err != nil {
			return cv{}, err
		}
		b, err := g.exprBool(x.Y)
		if err != nil {
			return cv{}, err
		}
		if x.Op == "&&" {
			return cv{v: g.b.And(a, b), width: 1}, nil
		}
		return cv{v: g.b.Or(a, b), width: 1}, nil
	}

	a, err := g.expr(x.X)
	if err != nil {
		return cv{}, err
	}
	b, err := g.expr(x.Y)
	if err != nil {
		return cv{}, err
	}
	w := maxWidth(a, b)
	signed := a.signed && b.signed
	av := g.coerce(a, w)
	bv := g.coerce(b, w)

	if op, ok := signlessOps[x.Op]; ok {
		return cv{v: g.b.Binary(op, av, bv), width: w, signed: signed}, nil
	}
	switch x.Op {
	case "/":
		op := ir.OpUdiv
		if signed {
			op = ir.OpSdiv
		}
		return cv{v: g.b.Binary(op, av, bv), width: w, signed: signed}, nil
	case "%":
		op := ir.OpUmod
		if signed {
			op = ir.OpSmod
		}
		return cv{v: g.b.Binary(op, av, bv), width: w, signed: signed}, nil
	case "==", "===":
		return cv{v: g.b.Eq(av, bv), width: 1}, nil
	case "!=", "!==":
		return cv{v: g.b.Neq(av, bv), width: 1}, nil
	case "<", "<=", ">", ">=":
		var op ir.Opcode
		switch x.Op {
		case "<":
			op = ir.OpUlt
			if signed {
				op = ir.OpSlt
			}
		case "<=":
			op = ir.OpUle
			if signed {
				op = ir.OpSle
			}
		case ">":
			op = ir.OpUgt
			if signed {
				op = ir.OpSgt
			}
		case ">=":
			op = ir.OpUge
			if signed {
				op = ir.OpSge
			}
		}
		return cv{v: g.b.Compare(op, av, bv), width: 1}, nil
	}
	return cv{}, g.errf("unsupported binary operator %q", x.Op)
}

// call handles function calls and value-producing system functions.
func (g *procGen) call(x *CallExpr, stmtPos bool) (cv, error) {
	switch x.Name {
	case "$signed", "$unsigned":
		if len(x.Args) != 1 {
			return cv{}, g.errf("%s takes one argument", x.Name)
		}
		v, err := g.expr(x.Args[0])
		if err != nil {
			return cv{}, err
		}
		v.signed = x.Name == "$signed"
		return v, nil
	case "$time":
		t := g.b.Call(ir.TimeType(), "llhd.time")
		return cv{v: t, isTime: true}, nil
	case "$clog2":
		if len(x.Args) != 1 {
			return cv{}, g.errf("%s takes one argument", x.Name)
		}
		n, err := g.c.constEval(x, g.sc)
		if err != nil {
			return cv{}, err
		}
		return cv{v: g.b.ConstInt(ir.IntType(32), n), width: 32}, nil
	}
	if strings.HasPrefix(x.Name, "$") {
		if stmtPos {
			return cv{}, g.sysCall(&SysCallStmt{Name: x.Name, Args: x.Args})
		}
		return cv{}, g.errf("unsupported system function %s", x.Name)
	}

	fname, ok := g.sc.funcs[x.Name]
	if !ok {
		return cv{}, g.errf("unknown function %q", x.Name)
	}
	fn := g.c.out.Unit(fname)
	if len(x.Args) != len(fn.Inputs) {
		return cv{}, g.errf("%s called with %d args, want %d", x.Name, len(x.Args), len(fn.Inputs))
	}
	var args []ir.Value
	for i, a := range x.Args {
		v, err := g.expr(a)
		if err != nil {
			return cv{}, err
		}
		args = append(args, g.coerce(v, fn.Inputs[i].Type().Width))
	}
	call := g.b.Call(fn.RetType, fname, args...)
	w := 0
	if fn.RetType.IsInt() {
		w = fn.RetType.Width
	}
	return cv{v: call, width: w}, nil
}

// incdec emits i++/i-- on a local variable and returns the pre (post=true)
// or post value.
func (g *procGen) incdec(x *IncDec) (cv, error) {
	id, ok := x.X.(*Ident)
	if !ok {
		return cv{}, g.errf("++/-- target must be a variable")
	}
	lv, ok := g.locals[id.Name]
	if !ok {
		return cv{}, g.errf("++/-- target %q must be a local variable", id.Name)
	}
	old := g.b.Ld(lv.slot)
	one := g.b.ConstInt(ir.IntType(lv.width), 1)
	var next *ir.Inst
	if x.Op == "++" {
		next = g.b.Add(old, one)
	} else {
		next = g.b.Sub(old, one)
	}
	g.b.St(lv.slot, next)
	if x.Post {
		return cv{v: old, width: lv.width, signed: lv.signed}, nil
	}
	return cv{v: next, width: lv.width, signed: lv.signed}, nil
}

// declareFunction adds the IR func unit of a function declaration to the
// module: its signature, inputs and return type, without a body.
func (c *compiler) declareFunction(fn *FuncDecl, fname string, sc *scope) error {
	u := ir.NewUnit(ir.UnitFunc, fname)
	if fn.Ret != nil {
		w, err := c.typeWidth(fn.Ret, sc)
		if err != nil {
			return err
		}
		u.RetType = ir.IntType(w)
	}
	for _, a := range fn.Args {
		w, err := c.typeWidth(a.Type, sc)
		if err != nil {
			return err
		}
		u.AddInput(a.Name, ir.IntType(w))
	}
	return c.out.Add(u)
}

// genFunction compiles the body of a function declaration into its unit.
func (c *compiler) genFunction(fn *FuncDecl, u *ir.Unit, sc *scope) error {
	g := &procGen{
		c: c, sc: sc, unit: u,
		locals: map[string]*localVar{},
		inFunc: true,
	}
	retW := 0
	if u.RetType.IsInt() {
		retW = u.RetType.Width
	}
	g.b = ir.NewBuilder(u)
	g.entry = u.AddBlock("entry")
	g.b.SetBlock(g.entry)
	for i, a := range fn.Args {
		w := u.Inputs[i].Type().Width
		slot := g.b.Var(u.Inputs[i])
		slot.SetName(a.Name)
		g.locals[a.Name] = &localVar{slot: slot, width: w, signed: a.Type.Signed}
	}
	if retW > 0 {
		zero := g.b.ConstInt(ir.IntType(retW), 0)
		g.retVar = g.b.Var(zero)
		g.retVar.SetName(fn.Name + "_ret")
		g.retW = retW
		// Assignments to the function name set the return value.
		g.locals[fn.Name] = &localVar{slot: g.retVar, width: retW, signed: fn.Ret.Signed}
	}
	g.exitB = u.AddBlock("exit")

	for _, d := range fn.Locals {
		if err := g.localDecl(d); err != nil {
			return err
		}
	}
	for _, s := range fn.Body {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	if !g.dead {
		g.b.Br(g.exitB)
	}
	g.b.SetBlock(g.exitB)
	if retW > 0 {
		rv := g.b.Ld(g.retVar)
		g.b.Ret(rv)
	} else {
		g.b.Ret(nil)
	}
	return nil
}
