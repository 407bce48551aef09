package assembly

import (
	"fmt"
	"strconv"
	"strings"

	"llhd/internal/ir"
	"llhd/internal/logic"
)

// Parse reads LLHD assembly text and returns the module it describes.
func Parse(name, src string) (*ir.Module, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, mod: ir.NewModule(name)}
	if err := p.module(); err != nil {
		return nil, err
	}
	return p.mod, nil
}

// MustParse parses src and panics on error; for tests and examples.
func MustParse(name, src string) *ir.Module {
	m, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	toks []token
	pos  int
	mod  *ir.Module

	// Per-unit parsing state.
	unit    *ir.Unit
	values  map[string]ir.Value
	blocks  map[string]*ir.Block
	refLine map[*ir.Block]int // line of the token that first named a block
	defined []*ir.Block       // blocks in label-definition order
	fixups  []fixup
}

// fixup records an operand slot that referenced a value by name before its
// definition was parsed (phi back-edges, forward branches).
type fixup struct {
	name string
	line int
	set  func(ir.Value)
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return t, p.errorf("expected %s, found %s", what, t)
	}
	return p.advance(), nil
}

func (p *parser) expectIdent(word string) error {
	t := p.peek()
	if t.kind != tokIdent || t.text != word {
		return p.errorf("expected %q, found %s", word, t)
	}
	p.advance()
	return nil
}

func (p *parser) module() error {
	for p.peek().kind != tokEOF {
		t := p.peek()
		if t.kind != tokIdent {
			return p.errorf("expected unit keyword, found %s", t)
		}
		var kind ir.UnitKind
		switch t.text {
		case "func":
			kind = ir.UnitFunc
		case "proc":
			kind = ir.UnitProc
		case "entity":
			kind = ir.UnitEntity
		default:
			return p.errorf("expected func/proc/entity, found %q", t.text)
		}
		p.advance()
		if err := p.unitDef(kind); err != nil {
			return err
		}
	}
	return nil
}

// parseType parses a type, including postfix * and $.
func (p *parser) parseType() (*ir.Type, error) {
	var base *ir.Type
	t := p.peek()
	switch {
	case t.kind == tokIdent && isTypeIdent(t.text):
		p.advance()
		switch t.text {
		case "void":
			base = ir.VoidType()
		case "time":
			base = ir.TimeType()
		default:
			n, err := strconv.Atoi(t.text[1:])
			if err != nil || n <= 0 {
				// Zero/negative widths would panic the ir type
				// constructors (crash found by FuzzAssemblyRoundTrip).
				return nil, p.errorf("bad type %q", t.text)
			}
			switch t.text[0] {
			case 'i':
				base = ir.IntType(n)
			case 'n':
				base = ir.EnumType(n)
			case 'l':
				base = ir.LogicType(n)
			}
		}
	case t.kind == tokLBrack:
		p.advance()
		num, err := p.expect(tokNumber, "array length")
		if err != nil {
			return nil, err
		}
		n, convErr := strconv.Atoi(num.text)
		if convErr != nil || n < 0 {
			return nil, p.errorf("bad array length %q", num.text)
		}
		if _, err := p.expect(tokX, `"x"`); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack, "]"); err != nil {
			return nil, err
		}
		base = ir.ArrayType(n, elem)
	case t.kind == tokLBrace:
		p.advance()
		var fields []*ir.Type
		for p.peek().kind != tokRBrace {
			if len(fields) > 0 {
				if _, err := p.expect(tokComma, ","); err != nil {
					return nil, err
				}
			}
			f, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, f)
		}
		p.advance()
		base = ir.StructType(fields...)
	default:
		return nil, p.errorf("expected type, found %s", t)
	}
	for {
		switch p.peek().kind {
		case tokStar:
			p.advance()
			base = ir.PointerType(base)
		case tokDollar:
			p.advance()
			base = ir.SignalType(base)
		default:
			return base, nil
		}
	}
}

func (p *parser) unitDef(kind ir.UnitKind) error {
	nameTok, err := p.expect(tokGlobal, "unit name")
	if err != nil {
		return err
	}
	u := &ir.Unit{Kind: kind, Name: nameTok.text, RetType: ir.VoidType()}
	p.unit = u
	p.values = map[string]ir.Value{}
	p.blocks = map[string]*ir.Block{}
	p.refLine = map[*ir.Block]int{}
	p.defined = nil
	p.fixups = nil

	// Inputs.
	if _, err := p.expect(tokLParen, "("); err != nil {
		return err
	}
	if err := p.argList(u, false); err != nil {
		return err
	}

	if kind == ir.UnitFunc {
		ret, err := p.parseType()
		if err != nil {
			return err
		}
		u.RetType = ret
	} else {
		if _, err := p.expect(tokArrow, "->"); err != nil {
			return err
		}
		if _, err := p.expect(tokLParen, "("); err != nil {
			return err
		}
		if err := p.argList(u, true); err != nil {
			return err
		}
	}

	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return err
	}
	if kind == ir.UnitEntity {
		body := u.AddBlock("body")
		for p.peek().kind != tokRBrace {
			if err := p.instruction(body); err != nil {
				return err
			}
		}
	} else {
		var cur *ir.Block
		for p.peek().kind != tokRBrace {
			// A label is "ident :" or "%name :".
			if p.isLabel() {
				lbl := p.advance()
				p.advance() // colon
				cur = p.getBlock(lbl)
				p.defined = append(p.defined, cur)
			}
			if cur == nil {
				return p.errorf("instruction before the first block label in @%s", u.Name)
			}
			if err := p.instruction(cur); err != nil {
				return err
			}
		}
		// Restore textual definition order: getBlock appends blocks on
		// first *reference*, which for a forward branch precedes the label,
		// so u.Blocks would otherwise depend on branch order and printing
		// a parsed module would reorder its blocks (a round-trip
		// instability found by FuzzAssemblyRoundTrip). A block referenced
		// but never labeled is an error: it would print as an empty label,
		// which does not parse (also found by FuzzAssemblyRoundTrip).
		ordered := make([]*ir.Block, 0, len(u.Blocks))
		seen := map[*ir.Block]bool{}
		for _, b := range p.defined {
			if !seen[b] {
				seen[b] = true
				ordered = append(ordered, b)
			}
		}
		for _, b := range u.Blocks {
			if !seen[b] {
				return fmt.Errorf("line %d: use of undefined block %s in @%s", p.refLine[b], b, u.Name)
			}
		}
		u.Blocks = ordered
	}
	p.advance() // }

	for _, f := range p.fixups {
		v, ok := p.values[f.name]
		if !ok {
			return fmt.Errorf("line %d: use of undefined value %%%s in @%s", f.line, f.name, u.Name)
		}
		f.set(v)
	}
	return p.mod.Add(u)
}

func (p *parser) isLabel() bool {
	t := p.peek()
	// tokX: a block named "x" lexes as the array-type separator token but
	// is a perfectly fine label (printers emit such names).
	if (t.kind == tokIdent && !isTypeIdent(t.text)) || t.kind == tokLocal ||
		t.kind == tokNumber || t.kind == tokX {
		return p.toks[p.pos+1].kind == tokColon
	}
	return false
}

func (p *parser) argList(u *ir.Unit, outputs bool) error {
	first := true
	for p.peek().kind != tokRParen {
		if !first {
			if _, err := p.expect(tokComma, ","); err != nil {
				return err
			}
		}
		first = false
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		nameTok, err := p.expect(tokLocal, "argument name")
		if err != nil {
			return err
		}
		var a *ir.Arg
		if outputs {
			a = u.AddOutput(nameTok.text, ty)
		} else {
			a = u.AddInput(nameTok.text, ty)
		}
		p.values[nameTok.text] = a
	}
	p.advance() // )
	return nil
}

// getBlock returns the block a label or a reference token names, creating
// it on first mention.
func (p *parser) getBlock(t token) *ir.Block {
	if b, ok := p.blocks[t.text]; ok {
		return b
	}
	b := p.unit.AddBlock(t.text)
	p.blocks[t.text] = b
	p.refLine[b] = t.line
	return b
}

// operand resolves a %name, registering a fixup when not yet defined.
func (p *parser) operand(set func(ir.Value)) error {
	t, err := p.expect(tokLocal, "value operand")
	if err != nil {
		return err
	}
	if v, ok := p.values[t.text]; ok {
		set(v)
		return nil
	}
	p.fixups = append(p.fixups, fixup{name: t.text, line: t.line, set: set})
	return nil
}

// typedOperand skips an optional leading type annotation and resolves the
// operand.
func (p *parser) typedOperand(set func(ir.Value)) error {
	if p.peekIsType() {
		if _, err := p.parseType(); err != nil {
			return err
		}
	}
	return p.operand(set)
}

func (p *parser) peekIsType() bool {
	t := p.peek()
	return (t.kind == tokIdent && isTypeIdent(t.text)) || t.kind == tokLBrack || t.kind == tokLBrace
}

func (p *parser) define(name string, in *ir.Inst) {
	in.SetName(name)
	p.values[name] = in
}

// instruction parses one statement into block b.
func (p *parser) instruction(b *ir.Block) error {
	resultName, resultLine := "", 0
	if p.peek().kind == tokLocal && p.toks[p.pos+1].kind == tokEquals {
		tok := p.advance()
		resultName, resultLine = tok.text, tok.line
		p.advance() // =
	}

	t := p.peek()
	// Array literal instruction: %x = [i32 %a, %b]
	if t.kind == tokLBrack && resultName != "" {
		return p.arrayLit(b, resultName)
	}
	if t.kind == tokLBrace && resultName != "" {
		return p.structLit(b, resultName)
	}
	if t.kind != tokIdent {
		return p.errorf("expected instruction mnemonic, found %s", t)
	}
	mnemonic := p.advance().text
	op, ok := ir.OpcodeByName(mnemonic)
	if !ok {
		return p.errorf("unknown instruction %q", mnemonic)
	}

	in := &ir.Inst{Op: op, Ty: ir.VoidType()}
	// emit appends in once its result type is known. A name on an
	// instruction without a result would print as an unnamed reference the
	// parser cannot read back, so it is an error.
	emit := func() error {
		if resultName != "" {
			if in.Ty.IsVoid() {
				return fmt.Errorf("line %d: %s has no result to name %%%s", resultLine, mnemonic, resultName)
			}
			p.define(resultName, in)
		}
		b.Append(in)
		return nil
	}
	argSlot := func(i int) func(ir.Value) {
		return func(v ir.Value) { in.Args[i] = v }
	}

	switch op {
	case ir.OpConstInt:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		if ty.IsTime() {
			in.Op = ir.OpConstTime
			in.Ty = ty
			tv, err := p.parseTimeLiteral()
			if err != nil {
				return err
			}
			in.TVal = tv
		} else if ty.IsLogic() {
			in.Op = ir.OpConstLogic
			in.Ty = ty
			lit, err := p.expect(tokString, `logic literal like "01XZ"`)
			if err != nil {
				return err
			}
			lv, err := logic.ParseVector(lit.text)
			if err != nil {
				return p.errorf("%v", err)
			}
			if len(lv) != ty.Width {
				return p.errorf("logic literal %q has %d positions, type %s wants %d",
					lit.text, len(lv), ty, ty.Width)
			}
			in.LVal = lv
		} else {
			in.Op = ir.OpConstInt
			in.Ty = ty
			num, err := p.expect(tokNumber, "integer literal")
			if err != nil {
				return err
			}
			v, err := strconv.ParseInt(num.text, 10, 64)
			if err != nil {
				uv, uerr := strconv.ParseUint(num.text, 10, 64)
				if uerr != nil {
					return p.errorf("bad integer literal %q", num.text)
				}
				in.IVal = uv
			} else {
				in.IVal = uint64(v)
			}
			if ty.IsInt() {
				in.IVal = ir.MaskWidth(in.IVal, ty.Width)
			}
		}
		return emit()

	case ir.OpDrv:
		if _, err := p.parseType(); err != nil {
			return err
		}
		in.Args = make([]ir.Value, 3)
		if err := emit(); err != nil {
			return err
		}
		if err := p.operand(argSlot(0)); err != nil {
			return err
		}
		if _, err := p.expect(tokComma, ","); err != nil {
			return err
		}
		if err := p.operand(argSlot(1)); err != nil {
			return err
		}
		if err := p.expectIdent("after"); err != nil {
			return err
		}
		if err := p.operand(argSlot(2)); err != nil {
			return err
		}
		if p.peek().kind == tokIdent && p.peek().text == "if" {
			p.advance()
			in.Args = append(in.Args, nil)
			return p.operand(argSlot(3))
		}
		return nil

	case ir.OpReg:
		if _, err := p.parseType(); err != nil {
			return err
		}
		in.Args = make([]ir.Value, 1)
		if err := emit(); err != nil {
			return err
		}
		if err := p.operand(argSlot(0)); err != nil {
			return err
		}
		for p.peek().kind == tokComma {
			p.advance()
			idx := len(in.Triggers)
			in.Triggers = append(in.Triggers, ir.RegTrigger{})
			if err := p.operand(func(v ir.Value) { in.Triggers[idx].Value = v }); err != nil {
				return err
			}
			modeTok, err := p.expect(tokIdent, "trigger mode")
			if err != nil {
				return err
			}
			mode, ok := ir.ParseRegMode(modeTok.text)
			if !ok {
				return p.errorf("unknown reg trigger mode %q", modeTok.text)
			}
			in.Triggers[idx].Mode = mode
			if err := p.operand(func(v ir.Value) { in.Triggers[idx].Trigger = v }); err != nil {
				return err
			}
			if p.peek().kind == tokIdent && p.peek().text == "if" {
				p.advance()
				if err := p.operand(func(v ir.Value) { in.Triggers[idx].Gate = v }); err != nil {
					return err
				}
			}
		}
		if p.peek().kind == tokIdent && p.peek().text == "after" {
			p.advance()
			return p.operand(func(v ir.Value) { in.Delay = v })
		}
		return nil

	case ir.OpInst:
		g, err := p.expect(tokGlobal, "unit name")
		if err != nil {
			return err
		}
		in.Callee = g.text
		if err := emit(); err != nil {
			return err
		}
		ins, err := p.instArgList()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokArrow, "->"); err != nil {
			return err
		}
		outs, err := p.instArgList()
		if err != nil {
			return err
		}
		in.NumIns = ins
		_ = outs
		return nil

	case ir.OpCall:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		g, err := p.expect(tokGlobal, "callee")
		if err != nil {
			return err
		}
		in.Callee = g.text
		if err := emit(); err != nil {
			return err
		}
		if _, err := p.expect(tokLParen, "("); err != nil {
			return err
		}
		first := true
		for p.peek().kind != tokRParen {
			if !first {
				if _, err := p.expect(tokComma, ","); err != nil {
					return err
				}
			}
			first = false
			idx := len(in.Args)
			in.Args = append(in.Args, nil)
			if err := p.typedOperand(argSlot(idx)); err != nil {
				return err
			}
		}
		p.advance()
		return nil

	case ir.OpRet:
		if err := emit(); err != nil {
			return err
		}
		if p.peekIsType() {
			if _, err := p.parseType(); err != nil {
				return err
			}
			in.Args = make([]ir.Value, 1)
			return p.operand(argSlot(0))
		}
		if p.peek().kind == tokLocal {
			in.Args = make([]ir.Value, 1)
			return p.operand(argSlot(0))
		}
		return nil

	case ir.OpBr:
		if err := emit(); err != nil {
			return err
		}
		// br %dest | br %cond, %bbFalse, %bbTrue. Look ahead for a comma.
		first, err := p.expect(tokLocal, "branch operand")
		if err != nil {
			return err
		}
		if p.peek().kind == tokComma {
			p.advance()
			in.Args = make([]ir.Value, 1)
			if v, ok := p.values[first.text]; ok {
				in.Args[0] = v
			} else {
				p.fixups = append(p.fixups, fixup{name: first.text, line: first.line, set: argSlot(0)})
			}
			f, err := p.expect(tokLocal, "false destination")
			if err != nil {
				return err
			}
			if _, err := p.expect(tokComma, ","); err != nil {
				return err
			}
			tr, err := p.expect(tokLocal, "true destination")
			if err != nil {
				return err
			}
			in.Dests = []*ir.Block{p.getBlock(f), p.getBlock(tr)}
			return nil
		}
		in.Dests = []*ir.Block{p.getBlock(first)}
		return nil

	case ir.OpPhi:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		if err := emit(); err != nil {
			return err
		}
		first := true
		for p.peek().kind == tokLBrack || p.peek().kind == tokComma {
			if !first {
				if _, err := p.expect(tokComma, ","); err != nil {
					return err
				}
			}
			first = false
			if _, err := p.expect(tokLBrack, "["); err != nil {
				return err
			}
			idx := len(in.Args)
			in.Args = append(in.Args, nil)
			if err := p.operand(argSlot(idx)); err != nil {
				return err
			}
			if _, err := p.expect(tokComma, ","); err != nil {
				return err
			}
			bb, err := p.expect(tokLocal, "incoming block")
			if err != nil {
				return err
			}
			in.Dests = append(in.Dests, p.getBlock(bb))
			if _, err := p.expect(tokRBrack, "]"); err != nil {
				return err
			}
		}
		return nil

	case ir.OpWait:
		if err := emit(); err != nil {
			return err
		}
		dest, err := p.expect(tokLocal, "resume block")
		if err != nil {
			return err
		}
		in.Dests = []*ir.Block{p.getBlock(dest)}
		if p.peek().kind == tokIdent && p.peek().text == "for" {
			p.advance()
			first := true
			for {
				if !first {
					if p.peek().kind != tokComma {
						break
					}
					p.advance()
				}
				first = false
				tk, err := p.expect(tokLocal, "wait operand")
				if err != nil {
					return err
				}
				name := tk.text
				set := func(v ir.Value) {
					if v.Type().IsTime() {
						in.TimeArg = v
					} else {
						in.Args = append(in.Args, v)
					}
				}
				if v, ok := p.values[name]; ok {
					set(v)
				} else {
					p.fixups = append(p.fixups, fixup{name: name, line: tk.line, set: set})
				}
			}
		}
		return nil

	}

	// Every other form is the table's: "name [T] %a, %b…[, imm…]".
	info := op.Info()
	if info.Result == ir.ResultIrregular {
		return p.errorf("unknown instruction %q", mnemonic) // array, struct: written as literals
	}
	if info.Type != ir.AsmNoType {
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		if in.Ty, err = info.ResultType(ty); err != nil {
			return p.errorf("%v", err)
		}
	}
	in.Args = make([]ir.Value, info.MinArgs)
	if err := emit(); err != nil {
		return err
	}
	for i := range in.Args {
		if i > 0 {
			if _, err := p.expect(tokComma, ","); err != nil {
				return err
			}
		}
		if err := p.operand(argSlot(i)); err != nil {
			return err
		}
	}
	imms := [...]struct {
		dst  *int
		what string
	}{{&in.Imm0, "index"}, {&in.Imm1, "length"}}
	for _, imm := range imms[:info.Imms] {
		if _, err := p.expect(tokComma, ","); err != nil {
			return err
		}
		if len(in.Args) < int(info.MaxArgs) && p.peek().kind == tokLocal {
			in.Args = append(in.Args, nil) // a dynamic index in the immediate's place
			if err := p.operand(argSlot(len(in.Args) - 1)); err != nil {
				return err
			}
			continue
		}
		num, err := p.expect(tokNumber, imm.what)
		if err != nil {
			return err
		}
		*imm.dst, _ = strconv.Atoi(num.text)
	}
	return nil
}

// instArgList parses "(T %a, T %b)" for inst, appending operands to the
// last-emitted instruction; it returns the operand count.
func (p *parser) instArgList() (int, error) {
	in := p.lastInst()
	if _, err := p.expect(tokLParen, "("); err != nil {
		return 0, err
	}
	n := 0
	first := true
	for p.peek().kind != tokRParen {
		if !first {
			if _, err := p.expect(tokComma, ","); err != nil {
				return 0, err
			}
		}
		first = false
		idx := len(in.Args)
		in.Args = append(in.Args, nil)
		if err := p.typedOperand(func(v ir.Value) { in.Args[idx] = v }); err != nil {
			return 0, err
		}
		n++
	}
	p.advance()
	return n, nil
}

func (p *parser) lastInst() *ir.Inst {
	for i := len(p.unit.Blocks) - 1; i >= 0; i-- {
		b := p.unit.Blocks[i]
		if len(b.Insts) > 0 {
			return b.Insts[len(b.Insts)-1]
		}
	}
	panic("assembly: no instruction emitted")
}

// arrayLit parses "%x = [i32 %a, %b]".
func (p *parser) arrayLit(b *ir.Block, resultName string) error {
	p.advance() // [
	elem, err := p.parseType()
	if err != nil {
		return err
	}
	in := &ir.Inst{Op: ir.OpArray}
	p.define(resultName, in)
	b.Append(in)
	first := true
	for p.peek().kind != tokRBrack {
		if !first {
			if _, err := p.expect(tokComma, ","); err != nil {
				return err
			}
		}
		first = false
		idx := len(in.Args)
		in.Args = append(in.Args, nil)
		if err := p.operand(func(v ir.Value) { in.Args[idx] = v }); err != nil {
			return err
		}
	}
	p.advance() // ]
	in.Ty = ir.ArrayType(len(in.Args), elem)
	return nil
}

// structLit parses "%x = {i32 %a, time %t}".
func (p *parser) structLit(b *ir.Block, resultName string) error {
	p.advance() // {
	in := &ir.Inst{Op: ir.OpStruct}
	p.define(resultName, in)
	b.Append(in)
	var fields []*ir.Type
	first := true
	for p.peek().kind != tokRBrace {
		if !first {
			if _, err := p.expect(tokComma, ","); err != nil {
				return err
			}
		}
		first = false
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		fields = append(fields, ty)
		idx := len(in.Args)
		in.Args = append(in.Args, nil)
		if err := p.operand(func(v ir.Value) { in.Args[idx] = v }); err != nil {
			return err
		}
	}
	p.advance() // }
	in.Ty = ir.StructType(fields...)
	return nil
}

// parseTimeLiteral parses "1ns", optionally followed by "2d" and "3e".
func (p *parser) parseTimeLiteral() (ir.Time, error) {
	var parts []string
	t, err := p.expect(tokTime, "time literal")
	if err != nil {
		return ir.Time{}, err
	}
	parts = append(parts, t.text)
	for p.peek().kind == tokTime {
		parts = append(parts, p.advance().text)
	}
	tv, err := ir.ParseTime(strings.Join(parts, " "))
	if err != nil {
		return ir.Time{}, p.errorf("%v", err)
	}
	return tv, nil
}
