package moore

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseFile parses SystemVerilog source text into an AST.
func ParseFile(src string) (*SourceFile, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &svparser{toks: toks}
	file := &SourceFile{}
	for !p.at(tEOF, "") {
		if p.at(tIdent, "module") {
			m, err := p.module()
			if err != nil {
				return nil, err
			}
			file.Modules = append(file.Modules, m)
		} else {
			return nil, p.errf("expected module, found %s", p.peek())
		}
	}
	return file, nil
}

type svparser struct {
	toks []token
	pos  int
}

func (p *svparser) peek() token { return p.toks[p.pos] }
func (p *svparser) next() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *svparser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *svparser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *svparser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		return p.peek(), p.errf("expected %q, found %s", text, p.peek())
	}
	return p.next(), nil
}

func (p *svparser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------- modules

func (p *svparser) module() (*Module, error) {
	line := p.peek().line
	p.next() // module
	nameTok, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	m := &Module{Name: nameTok.text, Line: line}

	// Parameter port list: #(parameter int N = 8, ...)
	if p.accept(tPunct, "#") {
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		for !p.at(tPunct, ")") {
			p.accept(tIdent, "parameter")
			p.skipDataTypeKeywords()
			nTok, err := p.expect(tIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "="); err != nil {
				return nil, err
			}
			def, err := p.expression()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, &Param{Name: nTok.text, Default: def})
			if !p.accept(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
	}

	// Port list.
	if p.accept(tPunct, "(") {
		var lastDir string
		var lastType *DataType
		for !p.at(tPunct, ")") {
			dir := lastDir
			if p.at(tIdent, "input") || p.at(tIdent, "output") {
				dir = p.next().text
				lastType = &DataType{Keyword: "logic"}
			}
			if dir == "" {
				return nil, p.errf("port without direction")
			}
			ty := lastType
			if p.atDataTypeStart() {
				t, err := p.dataType()
				if err != nil {
					return nil, err
				}
				ty = t
			}
			nTok, err := p.expect(tIdent, "")
			if err != nil {
				return nil, err
			}
			m.Ports = append(m.Ports, &Port{Name: nTok.text, Dir: dir, Type: ty, Line: nTok.line})
			lastDir, lastType = dir, ty
			if !p.accept(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}

	// Body items.
	for !p.at(tIdent, "endmodule") {
		item, err := p.item()
		if err != nil {
			return nil, err
		}
		if item != nil {
			m.Items = append(m.Items, item)
		}
	}
	p.next() // endmodule
	return m, nil
}

// skipDataTypeKeywords steps over the optional type of a parameter or
// localparam (its value alone matters here); a range the source ends
// inside of is left for the caller's next expect to report.
func (p *svparser) skipDataTypeKeywords() {
	for p.at(tIdent, "int") || p.at(tIdent, "integer") || p.at(tIdent, "bit") ||
		p.at(tIdent, "logic") || p.at(tIdent, "unsigned") || p.at(tIdent, "signed") {
		p.next()
	}
	if p.accept(tPunct, "[") {
		depth := 1
		for depth > 0 && !p.at(tEOF, "") {
			if p.at(tPunct, "[") {
				depth++
			}
			if p.at(tPunct, "]") {
				depth--
			}
			p.next()
		}
	}
}

func (p *svparser) atDataTypeStart() bool {
	t := p.peek()
	if t.kind != tIdent {
		return t.kind == tPunct && t.text == "["
	}
	switch t.text {
	case "bit", "logic", "wire", "reg", "int", "integer", "byte":
		return true
	}
	return false
}

func (p *svparser) dataType() (*DataType, error) {
	dt := &DataType{Keyword: "logic"}
	if p.peek().kind == tIdent {
		switch p.peek().text {
		case "bit", "logic", "wire", "reg":
			dt.Keyword = p.next().text
		case "int", "integer":
			p.next()
			dt.Keyword = "int"
			dt.Signed = true
		case "byte":
			p.next()
			dt.Keyword = "byte"
			dt.Signed = true
		}
	}
	if p.accept(tIdent, "signed") {
		dt.Signed = true
	}
	if p.accept(tIdent, "unsigned") {
		dt.Signed = false
	}
	if p.accept(tPunct, "[") {
		msb, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ":"); err != nil {
			return nil, err
		}
		lsb, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, "]"); err != nil {
			return nil, err
		}
		dt.Msb, dt.Lsb = msb, lsb
	}
	return dt, nil
}

// item parses one module body item.
func (p *svparser) item() (Item, error) {
	t := p.peek()
	if t.kind != tIdent {
		return nil, p.errf("expected module item, found %s", t)
	}
	switch t.text {
	case "localparam", "parameter":
		p.next()
		p.skipDataTypeKeywords()
		nTok, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, "="); err != nil {
			return nil, err
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return &LocalParam{Name: nTok.text, Value: v}, nil

	case "assign":
		line := t.line
		p.next()
		target, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, "="); err != nil {
			return nil, err
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return &AssignItem{Target: target, Value: v, Line: line}, nil

	case "always_ff", "always_comb", "always_latch", "always", "initial", "final":
		return p.alwaysBlock()

	case "function":
		return p.function()

	case "bit", "logic", "wire", "reg", "int", "integer", "byte":
		return p.netDecl()

	case "endmodule":
		return nil, nil

	default:
		// Module instantiation: ident [#(...)] ident ( conns ) ;
		return p.instantiation()
	}
}

func (p *svparser) netDecl() (*NetDecl, error) {
	line := p.peek().line
	dt, err := p.dataType()
	if err != nil {
		return nil, err
	}
	decl := &NetDecl{Type: dt, Line: line}
	for {
		nTok, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		decl.Names = append(decl.Names, nTok.text)
		// Unpacked dimension: name [lo:hi]
		if p.accept(tPunct, "[") {
			lo, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, ":"); err != nil {
				return nil, err
			}
			hi, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			dt.UnpackedLo, dt.UnpackedHi = lo, hi
		}
		var init Expr
		if p.accept(tPunct, "=") {
			init, err = p.expression()
			if err != nil {
				return nil, err
			}
		}
		decl.Inits = append(decl.Inits, init)
		if !p.accept(tPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	return decl, nil
}

func (p *svparser) alwaysBlock() (*AlwaysBlock, error) {
	t := p.next()
	blk := &AlwaysBlock{Kind: t.text, Line: t.line}
	if t.text == "final" {
		blk.Kind = "initial" // treated alike: run once
	}
	if p.accept(tPunct, "@") {
		events, err := p.eventList()
		if err != nil {
			return nil, err
		}
		blk.Events = events
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	blk.Body = body
	return blk, nil
}

func (p *svparser) eventList() ([]Event, error) {
	var events []Event
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	if p.accept(tPunct, "*") {
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		return []Event{{Edge: "*"}}, nil
	}
	for {
		var ev Event
		if p.at(tIdent, "posedge") || p.at(tIdent, "negedge") {
			ev.Edge = p.next().text
		}
		sig, err := p.expression()
		if err != nil {
			return nil, err
		}
		ev.Sig = sig
		events = append(events, ev)
		if p.accept(tIdent, "or") || p.accept(tPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	return events, nil
}

func (p *svparser) function() (*FuncDecl, error) {
	line := p.next().line // function
	p.accept(tIdent, "automatic")
	fn := &FuncDecl{Line: line}
	// Return type (optional; "void" or data type) followed by the name.
	if p.at(tIdent, "void") {
		p.next()
	} else if p.atDataTypeStart() {
		ret, err := p.dataType()
		if err != nil {
			return nil, err
		}
		fn.Ret = ret
	}
	nTok, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	fn.Name = nTok.text
	if p.accept(tPunct, "(") {
		for !p.at(tPunct, ")") {
			p.accept(tIdent, "input")
			ty := &DataType{Keyword: "logic"}
			if p.atDataTypeStart() {
				t, err := p.dataType()
				if err != nil {
					return nil, err
				}
				ty = t
			}
			aTok, err := p.expect(tIdent, "")
			if err != nil {
				return nil, err
			}
			fn.Args = append(fn.Args, &Port{Name: aTok.text, Dir: "input", Type: ty})
			if !p.accept(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	for !p.at(tIdent, "endfunction") {
		if p.atDataTypeStart() && p.peek().text != "[" {
			d, err := p.netDecl()
			if err != nil {
				return nil, err
			}
			fn.Locals = append(fn.Locals, d)
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		fn.Body = append(fn.Body, s)
	}
	p.next() // endfunction
	return fn, nil
}

func (p *svparser) instantiation() (*InstItem, error) {
	line := p.peek().line
	modTok, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	inst := &InstItem{ModName: modTok.text, Line: line}
	if p.accept(tPunct, "#") {
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		conns, err := p.connectionList()
		if err != nil {
			return nil, err
		}
		inst.Params = conns
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
	}
	nameTok, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	inst.InstName = nameTok.text
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	if p.accept(tPunct, ".*") {
		inst.Star = true
	} else {
		conns, err := p.connectionList()
		if err != nil {
			return nil, err
		}
		inst.Conns = conns
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	return inst, nil
}

func (p *svparser) connectionList() ([]Connection, error) {
	var conns []Connection
	for !p.at(tPunct, ")") {
		var c Connection
		if p.accept(tPunct, ".") {
			nTok, err := p.expect(tIdent, "")
			if err != nil {
				return nil, err
			}
			c.Name = nTok.text
			if p.accept(tPunct, "(") {
				if !p.at(tPunct, ")") {
					e, err := p.expression()
					if err != nil {
						return nil, err
					}
					c.Expr = e
				}
				if _, err := p.expect(tPunct, ")"); err != nil {
					return nil, err
				}
			} else {
				// .name shorthand for .name(name)
				c.Expr = &Ident{Name: nTok.text, Line: nTok.line}
			}
		} else {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			c.Expr = e
		}
		conns = append(conns, c)
		if !p.accept(tPunct, ",") {
			break
		}
	}
	return conns, nil
}

// ------------------------------------------------------------- statements

func (p *svparser) statement() (Stmt, error) {
	t := p.peek()
	switch {
	case t.kind == tPunct && t.text == ";":
		p.next()
		return &NullStmt{}, nil

	case t.kind == tIdent && t.text == "begin":
		p.next()
		// Optional label.
		if p.accept(tPunct, ":") {
			p.next()
		}
		blk := &BlockStmt{}
		for !p.at(tIdent, "end") {
			// Local variable declarations (optionally "automatic").
			save := p.pos
			if p.accept(tIdent, "automatic") || p.atLocalDecl() {
				p.pos = save
				p.accept(tIdent, "automatic")
				d, err := p.netDecl()
				if err != nil {
					return nil, err
				}
				blk.Decls = append(blk.Decls, d)
				continue
			}
			p.pos = save
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			blk.Stmts = append(blk.Stmts, s)
		}
		p.next() // end
		if p.accept(tPunct, ":") {
			p.next() // end label
		}
		return blk, nil

	case t.kind == tIdent && t.text == "if":
		p.next()
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.statement()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: then}
		if p.accept(tIdent, "else") {
			els, err := p.statement()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil

	case t.kind == tIdent && (t.text == "case" || t.text == "casez" || t.text == "unique"):
		if t.text == "unique" {
			p.next()
		}
		return p.caseStmt()

	case t.kind == tIdent && t.text == "for":
		p.next()
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.at(tPunct, ";") {
			s, err := p.simpleAssignOrDecl()
			if err != nil {
				return nil, err
			}
			init = s
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		var cond Expr
		if !p.at(tPunct, ";") {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			cond = e
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		var step Stmt
		if !p.at(tPunct, ")") {
			s, err := p.simpleAssign()
			if err != nil {
				return nil, err
			}
			step = s
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Init: init, Cond: cond, Step: step, Body: body}, nil

	case t.kind == tIdent && t.text == "while":
		p.next()
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil

	case t.kind == tIdent && t.text == "do":
		p.next()
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tIdent, "while"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, DoWhile: true}, nil

	case t.kind == tIdent && t.text == "repeat":
		p.next()
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		count, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &RepeatStmt{Count: count, Body: body}, nil

	case t.kind == tPunct && t.text == "#":
		p.next()
		d, err := p.primary()
		if err != nil {
			return nil, err
		}
		if p.accept(tPunct, ";") {
			return &DelayStmt{Delay: d}, nil
		}
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &DelayStmt{Delay: d, Inner: inner}, nil

	case t.kind == tPunct && t.text == "@":
		p.next()
		events, err := p.eventList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return &WaitEventStmt{Events: events}, nil

	case t.kind == tIdent && t.text == "assert":
		line := t.line
		p.next()
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		// Optional else clause (error reporting), skipped.
		if p.accept(tIdent, "else") {
			if _, err := p.statement(); err != nil {
				return nil, err
			}
		} else {
			p.accept(tPunct, ";")
		}
		return &AssertStmt{Cond: cond, Line: line}, nil

	case t.kind == tSystem:
		p.next()
		sc := &SysCallStmt{Name: t.text}
		if p.accept(tPunct, "(") {
			for !p.at(tPunct, ")") {
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				sc.Args = append(sc.Args, e)
				if !p.accept(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return sc, nil

	case t.kind == tIdent && t.text == "return":
		// Only inside functions; modeled as assignment to the function
		// name by the codegen. Parse as SysCall-like marker.
		p.next()
		var e Expr
		if !p.at(tPunct, ";") {
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			e = x
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return &SysCallStmt{Name: "$return", Args: []Expr{e}}, nil

	default:
		s, err := p.simpleAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// atLocalDecl sniffs whether the upcoming tokens are a local variable
// declaration ("bit [31:0] i = 0;").
func (p *svparser) atLocalDecl() bool {
	t := p.peek()
	if t.kind != tIdent {
		return false
	}
	switch t.text {
	case "bit", "logic", "int", "integer", "byte", "reg":
		return true
	}
	return false
}

// simpleAssignOrDecl parses a for-init: either a declaration with
// initializer or a plain assignment.
func (p *svparser) simpleAssignOrDecl() (Stmt, error) {
	if p.atLocalDecl() {
		save := p.pos
		dt, err := p.dataType()
		if err != nil {
			p.pos = save
			return p.simpleAssign()
		}
		nTok, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, "="); err != nil {
			return nil, err
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{
			Decls: []*NetDecl{{Type: dt, Names: []string{nTok.text}, Inits: []Expr{v}}},
		}, nil
	}
	return p.simpleAssign()
}

// simpleAssign parses "target = expr", "target <= [#d] expr", "x++" etc.
// without the trailing semicolon.
func (p *svparser) simpleAssign() (Stmt, error) {
	line := p.peek().line
	// The target is an lvalue (or a call/increment in statement position):
	// parse only a postfix expression so that "<=" is read as the
	// nonblocking assignment operator, not less-equal.
	target, err := p.postfix()
	if err != nil {
		return nil, err
	}
	// Post-increment parsed as part of the expression.
	if inc, ok := target.(*IncDec); ok {
		return &ExprStmt{X: inc}, nil
	}
	if call, ok := target.(*CallExpr); ok {
		return &ExprStmt{X: call}, nil
	}
	switch {
	case p.accept(tPunct, "="):
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Target: target, Value: v, Blocking: true, Line: line}, nil
	case p.accept(tPunct, "<="):
		var delay Expr
		if p.accept(tPunct, "#") {
			d, err := p.primary()
			if err != nil {
				return nil, err
			}
			delay = d
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Target: target, Value: v, Delay: delay, Line: line}, nil
	case p.accept(tPunct, "+="), p.accept(tPunct, "-="):
		op := p.toks[p.pos-1].text[:1]
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{
			Target:   target,
			Value:    &Binary{Op: op, X: target, Y: v, Line: line},
			Blocking: true,
			Line:     line,
		}, nil
	}
	return nil, p.errf("expected assignment operator after expression")
}

func (p *svparser) caseStmt() (Stmt, error) {
	p.next() // case/casez
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	subj, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	cs := &CaseStmt{Subject: subj}
	for !p.at(tIdent, "endcase") {
		if p.accept(tIdent, "default") {
			p.accept(tPunct, ":")
			body, err := p.statement()
			if err != nil {
				return nil, err
			}
			cs.Default = body
			continue
		}
		var item CaseItem
		for {
			lbl, err := p.expression()
			if err != nil {
				return nil, err
			}
			item.Labels = append(item.Labels, lbl)
			if !p.accept(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, ":"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		item.Body = body
		cs.Items = append(cs.Items, item)
	}
	p.next() // endcase
	return cs, nil
}

// ------------------------------------------------------------ expressions

// binary operator precedence (higher binds tighter).
var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8, ">>>": 8, "<<<": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *svparser) expression() (Expr, error) {
	return p.ternary()
}

func (p *svparser) ternary() (Expr, error) {
	cond, err := p.binaryExpr(1)
	if err != nil {
		return nil, err
	}
	if p.accept(tPunct, "?") {
		then, err := p.ternary()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ":"); err != nil {
			return nil, err
		}
		els, err := p.ternary()
		if err != nil {
			return nil, err
		}
		return &Ternary{Cond: cond, Then: then, Else: els}, nil
	}
	return cond, nil
}

func (p *svparser) binaryExpr(minPrec int) (Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tPunct {
			return lhs, nil
		}
		prec, isOp := precedence[t.text]
		if !isOp || prec < minPrec {
			return lhs, nil
		}
		// "<=" is ambiguous with nonblocking assignment; in expression
		// context it is less-equal, handled by the statement parser first.
		p.next()
		rhs, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: t.text, X: lhs, Y: rhs, Line: t.line}
	}
}

func (p *svparser) unaryExpr() (Expr, error) {
	t := p.peek()
	if t.kind == tPunct {
		switch t.text {
		case "~", "!", "-", "&", "|", "^", "+":
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			if t.text == "+" {
				return x, nil
			}
			return &Unary{Op: t.text, X: x}, nil
		case "++", "--":
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &IncDec{X: x, Op: t.text}, nil
		}
	}
	return p.postfix()
}

func (p *svparser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tPunct, "["):
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if p.accept(tPunct, ":") {
				lsb, err := p.expression()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tPunct, "]"); err != nil {
					return nil, err
				}
				x = &Slice{X: x, Msb: idx, Lsb: lsb}
			} else if p.accept(tPunct, "+:") {
				w, err := p.expression()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tPunct, "]"); err != nil {
					return nil, err
				}
				x = &Slice{X: x, Msb: idx, Lsb: w, Up: true}
			} else {
				if _, err := p.expect(tPunct, "]"); err != nil {
					return nil, err
				}
				x = &Index{X: x, Idx: idx}
			}
		case p.at(tPunct, "++"), p.at(tPunct, "--"):
			op := p.next().text
			x = &IncDec{X: x, Op: op, Post: true}
		default:
			return x, nil
		}
	}
}

func (p *svparser) primary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tNumber:
		p.next()
		return parseNumber(t.text)

	case t.kind == tTime:
		p.next()
		return &TimeLit{Text: t.text}, nil

	case t.kind == tString:
		p.next()
		return &StringLit{Text: t.text}, nil

	case t.kind == tSystem:
		p.next()
		call := &CallExpr{Name: t.text, Line: t.line}
		if p.accept(tPunct, "(") {
			for !p.at(tPunct, ")") {
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
		}
		return call, nil

	case t.kind == tIdent:
		p.next()
		if p.accept(tPunct, "(") {
			call := &CallExpr{Name: t.text, Line: t.line}
			for !p.at(tPunct, ")") {
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: t.text, Line: t.line}, nil

	case t.kind == tPunct && t.text == "(":
		p.next()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.kind == tPunct && t.text == "{":
		p.next()
		// Replication {n{x}} or concatenation {a, b}.
		first, err := p.expression()
		if err != nil {
			return nil, err
		}
		if p.at(tPunct, "{") {
			p.next()
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "}"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "}"); err != nil {
				return nil, err
			}
			return &Repl{Count: first, X: x}, nil
		}
		cat := &Concat{Parts: []Expr{first}}
		for p.accept(tPunct, ",") {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			cat.Parts = append(cat.Parts, e)
		}
		if _, err := p.expect(tPunct, "}"); err != nil {
			return nil, err
		}
		return cat, nil

	case t.kind == tPunct && t.text == "'{":
		p.next()
		lit := &ArrayLit{}
		for !p.at(tPunct, "}") {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			lit.Elems = append(lit.Elems, e)
			if !p.accept(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, "}"); err != nil {
			return nil, err
		}
		return lit, nil
	}
	return nil, p.errf("expected expression, found %s", t)
}

// parseNumber handles 42, 8'hFF, 4'b1010, 32'd7, '0, '1.
func parseNumber(text string) (Expr, error) {
	text = strings.ReplaceAll(text, "_", "")
	if text == "'0" {
		return &Number{Value: 0, Fill: true}, nil
	}
	if text == "'1" {
		return &Number{Value: 1, Fill: true}, nil
	}
	if i := strings.IndexByte(text, '\''); i >= 0 {
		width := 0
		if i > 0 {
			w, err := strconv.Atoi(text[:i])
			if err != nil {
				return nil, fmt.Errorf("moore: bad literal %q", text)
			}
			width = w
		}
		rest := text[i+1:]
		rest = strings.TrimPrefix(rest, "s")
		rest = strings.TrimPrefix(rest, "S")
		if rest == "" {
			return nil, fmt.Errorf("moore: bad literal %q", text)
		}
		base := 10
		switch rest[0] {
		case 'h', 'H':
			base = 16
		case 'b', 'B':
			base = 2
		case 'o', 'O':
			base = 8
		case 'd', 'D':
			base = 10
		}
		digits := rest[1:]
		// x/z digits collapse to 0 in the two-valued core.
		digits = strings.Map(func(r rune) rune {
			switch r {
			case 'x', 'X', 'z', 'Z', '?':
				return '0'
			}
			return r
		}, digits)
		v, err := strconv.ParseUint(digits, base, 64)
		if err != nil {
			return nil, fmt.Errorf("moore: bad literal %q: %v", text, err)
		}
		return &Number{Value: v, Width: width}, nil
	}
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("moore: bad literal %q: %v", text, err)
	}
	return &Number{Value: v}, nil
}
