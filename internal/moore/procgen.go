package moore

import (
	"fmt"
	"strconv"

	"llhd/internal/ir"
)

// cv is a typed expression value during codegen.
type cv struct {
	v      ir.Value
	width  int
	signed bool
	isTime bool
	// fill marks '0/'1 literals whose width adapts to context; v is nil
	// and bit holds the fill bit.
	fill bool
	bit  uint64
}

// procGen generates one LLHD process from an always block, initial block,
// or continuous assignment.
type procGen struct {
	c    *compiler
	sc   *scope
	unit *ir.Unit
	b    *ir.Builder

	args     map[string]*ir.Arg  // net name -> process argument
	shadows  map[string]*ir.Inst // blocking-assigned net -> shadow var
	arrays   map[string]*ir.Inst // array name -> var holding [N x iW]
	locals   map[string]*localVar
	blocking []string // blocking-assigned nets, sorted

	entry *ir.Block // var declarations live here
	dead  bool

	inFunc bool
	retVar *ir.Inst
	retW   int
	exitB  *ir.Block

	nblock int
}

type localVar struct {
	slot   *ir.Inst
	width  int
	signed bool
	// array locals
	isArray  bool
	arrayLen int
	outer    *localVar // the local of the same name this one hides, see endScope
}

func (g *procGen) newBlock(hint string) *ir.Block {
	g.nblock++
	return g.unit.AddBlock(hint + strconv.Itoa(g.nblock))
}

func (g *procGen) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", g.unit.Name, fmt.Sprintf(format, args...))
}

// genProcess compiles item, summarized in s, into a process unit named
// pname whose signature is s.reads then s.writes. It owns the arrays in
// s.arrays.
func (c *compiler) genProcess(item Item, pname string, sc *scope, s *summary) (err error) {
	u := ir.NewUnit(ir.UnitProc, pname)
	g := &procGen{
		c: c, sc: sc, unit: u,
		args:     map[string]*ir.Arg{},
		arrays:   map[string]*ir.Inst{},
		locals:   map[string]*localVar{},
		blocking: s.blocking,
	}
	for _, n := range s.reads {
		ni := sc.nets[n]
		g.args[n] = u.AddInput(n, ir.SignalType(ir.IntType(ni.width)))
	}
	for _, n := range s.writes {
		ni := sc.nets[n]
		g.args[n] = u.AddOutput(n, ir.SignalType(ir.IntType(ni.width)))
	}
	g.b = ir.NewBuilder(u)
	g.entry = u.AddBlock("entry")
	g.b.SetBlock(g.entry)

	// Materialize owned arrays as persistent vars.
	for _, name := range s.arrays {
		ni := sc.nets[name]
		elem := ir.IntType(ni.width)
		var elems []ir.Value
		for i := 0; i < ni.arrayLen; i++ {
			var ev uint64
			if i < len(ni.arrayInit) {
				ev = ni.arrayInit[i]
			}
			elems = append(elems, g.b.ConstInt(elem, ev))
		}
		arr := g.b.Array(elem, elems...)
		v := g.b.Var(arr)
		v.SetName(name)
		g.arrays[name] = v
	}

	switch it := item.(type) {
	case *AssignItem:
		err = g.genComb(&AlwaysBlock{Kind: "always_comb",
			Body: &AssignStmt{Target: it.Target, Value: it.Value, Line: it.Line}}, s.reads)
	case *AlwaysBlock:
		switch it.Kind {
		case "initial":
			err = g.genInitial(it)
		case "always_comb", "always_latch":
			err = g.genComb(it, s.reads)
		case "always_ff":
			err = g.genFF(it)
		case "always":
			if len(it.Events) == 0 {
				return g.errf("plain always without sensitivity is unsupported")
			}
			if it.EdgeTriggered() {
				err = g.genFF(it)
			} else {
				err = g.genComb(it, s.reads)
			}
		default:
			return g.errf("unsupported process kind %q", it.Kind)
		}
	}
	if err != nil {
		return err
	}
	return c.out.Add(u)
}

// declareShadows creates shadow vars for blocking-assigned nets.
func (g *procGen) declareShadows() {
	if len(g.blocking) == 0 {
		return
	}
	g.b.SetBlock(g.entry)
	g.shadows = make(map[string]*ir.Inst, len(g.blocking))
	for _, n := range g.blocking {
		ni := g.sc.nets[n]
		zero := g.b.ConstInt(ir.IntType(ni.width), 0)
		v := g.b.Var(zero)
		v.SetName(n + "_sh")
		g.shadows[n] = v
	}
}

// loadShadowsFromNets refreshes every shadow with the net's current value
// at the start of an activation.
func (g *procGen) loadShadowsFromNets() {
	for _, n := range g.blocking {
		cur := g.b.Prb(g.args[n])
		g.b.St(g.shadows[n], cur)
	}
}

// driveShadows writes the shadow values back onto the nets (delta delay).
func (g *procGen) driveShadows() {
	if len(g.blocking) == 0 {
		return
	}
	dz := g.b.ConstTime(ir.Time{})
	for _, n := range g.blocking {
		v := g.b.Ld(g.shadows[n])
		g.b.Drv(g.args[n], v, dz, nil)
	}
}

func (g *procGen) genInitial(it *AlwaysBlock) error {
	body := g.newBlock("body")
	g.b.Br(body)
	g.b.SetBlock(body)
	if err := g.stmt(it.Body); err != nil {
		return err
	}
	if !g.dead {
		g.b.Halt()
	}
	return nil
}

func (g *procGen) genComb(it *AlwaysBlock, reads []string) error {
	g.declareShadows()
	loop := g.newBlock("loop")
	g.b.Br(loop)
	g.b.SetBlock(loop)
	g.loadShadowsFromNets()
	if err := g.stmt(it.Body); err != nil {
		return err
	}
	if g.dead {
		return g.errf("combinational process terminates")
	}
	g.driveShadows()
	var observed []ir.Value
	if len(it.Events) > 0 && it.Events[0].Edge != "*" {
		for _, ev := range it.Events {
			id, ok := ev.Sig.(*Ident)
			if !ok {
				return g.errf("sensitivity items must be plain nets")
			}
			a, ok := g.args[id.Name]
			if !ok {
				return g.errf("sensitivity net %q not read by process", id.Name)
			}
			observed = append(observed, a)
		}
	} else {
		for _, n := range reads {
			observed = append(observed, g.args[n])
		}
	}
	g.b.Wait(loop, nil, observed...)
	return nil
}

// genFF compiles an edge-triggered block as forever @(edges) body.
func (g *procGen) genFF(it *AlwaysBlock) error {
	g.declareShadows()
	if len(it.Events) == 0 {
		return g.errf("always_ff without an edge event")
	}
	for _, ev := range it.Events {
		if ev.Edge != "posedge" && ev.Edge != "negedge" {
			return g.errf("always_ff requires edge events")
		}
	}
	head, err := g.waitEvents(it.Events, ffWait)
	if err != nil {
		return err
	}
	g.loadShadowsFromNets()
	if err := g.stmt(it.Body); err != nil {
		return err
	}
	if !g.dead {
		g.driveShadows()
		g.b.Br(head)
	}
	return nil
}

// ------------------------------------------------------------- statements

// endScope ends the scope of a block's declarations (IEEE 1800 §6.21):
// each name goes back to the local it hid, if any.
func (g *procGen) endScope(decls []*NetDecl) {
	for i := len(decls) - 1; i >= 0; i-- {
		names := decls[i].Names
		for j := len(names) - 1; j >= 0; j-- {
			if outer := g.locals[names[j]].outer; outer != nil {
				g.locals[names[j]] = outer
			} else {
				delete(g.locals, names[j])
			}
		}
	}
}

// block generates a begin ... end in the current scope; the caller ends it.
func (g *procGen) block(st *BlockStmt) error {
	for _, d := range st.Decls {
		if err := g.localDecl(d); err != nil {
			return err
		}
	}
	for _, x := range st.Stmts {
		if err := g.stmt(x); err != nil {
			return err
		}
	}
	return nil
}

func (g *procGen) stmt(s Stmt) error {
	if g.dead {
		return nil
	}
	switch st := s.(type) {
	case nil, *NullStmt:
		return nil

	case *BlockStmt:
		err := g.block(st)
		if err == nil {
			g.endScope(st.Decls)
		}
		return err

	case *AssignStmt:
		return g.assign(st)

	case *IfStmt:
		cond, err := g.exprBool(st.Cond)
		if err != nil {
			return err
		}
		thenB := g.newBlock("then")
		elseB := g.newBlock("else")
		joinB := g.newBlock("join")
		g.b.BrCond(cond, elseB, thenB)

		g.b.SetBlock(thenB)
		if err := g.stmt(st.Then); err != nil {
			return err
		}
		thenDead := g.dead
		if !g.dead {
			g.b.Br(joinB)
		}
		g.dead = false

		g.b.SetBlock(elseB)
		if err := g.stmt(st.Else); err != nil {
			return err
		}
		elseDead := g.dead
		if !g.dead {
			g.b.Br(joinB)
		}
		g.dead = thenDead && elseDead
		if g.dead {
			g.unit.RemoveBlock(joinB)
		} else {
			g.b.SetBlock(joinB)
		}
		return nil

	case *CaseStmt:
		subj, err := g.expr(st.Subject)
		if err != nil {
			return err
		}
		endB := g.newBlock("endcase")
		anyLive := false
		for _, item := range st.Items {
			var hit ir.Value
			for _, lbl := range item.Labels {
				lv, err := g.expr(lbl)
				if err != nil {
					return err
				}
				lc := g.coerce(lv, subj.width)
				eq := g.b.Eq(subj.v, lc)
				if hit == nil {
					hit = eq
				} else {
					hit = g.b.Or(hit, eq)
				}
			}
			bodyB := g.newBlock("arm")
			nextB := g.newBlock("next")
			g.b.BrCond(hit, nextB, bodyB)
			g.b.SetBlock(bodyB)
			if err := g.stmt(item.Body); err != nil {
				return err
			}
			if !g.dead {
				g.b.Br(endB)
				anyLive = true
			}
			g.dead = false
			g.b.SetBlock(nextB)
		}
		if err := g.stmt(st.Default); err != nil {
			return err
		}
		if !g.dead {
			g.b.Br(endB)
			anyLive = true
		}
		g.dead = !anyLive
		if g.dead {
			g.unit.RemoveBlock(endB)
		} else {
			g.b.SetBlock(endB)
		}
		return nil

	case *ForStmt:
		// A declaration in the init is the loop's: it stays visible in the
		// condition, the step and the body, and leaves with the loop.
		init, scoped := st.Init.(*BlockStmt)
		var err error
		if scoped {
			err = g.block(init)
		} else {
			err = g.stmt(st.Init)
		}
		if err == nil {
			err = g.loop(st.Cond, st.Body, st.Step, false)
		}
		if err == nil && scoped {
			g.endScope(init.Decls)
		}
		return err

	case *WhileStmt:
		return g.loop(st.Cond, st.Body, nil, st.DoWhile)

	case *RepeatStmt:
		// repeat(n) body: for (i=0; i<n; i++) body with a hidden counter.
		n, err := g.expr(st.Count)
		if err != nil {
			return err
		}
		cnt := g.declareHiddenVar("repeat", 32)
		zero := g.b.ConstInt(ir.IntType(32), 0)
		g.b.St(cnt, zero)
		headB := g.newBlock("rephead")
		bodyB := g.newBlock("repbody")
		endB := g.newBlock("repend")
		g.b.Br(headB)
		g.b.SetBlock(headB)
		cur := g.b.Ld(cnt)
		limit := g.coerce(n, 32)
		cond := g.b.Ult(cur, limit)
		g.b.BrCond(cond, endB, bodyB)
		g.b.SetBlock(bodyB)
		if err := g.stmt(st.Body); err != nil {
			return err
		}
		if !g.dead {
			one := g.b.ConstInt(ir.IntType(32), 1)
			next := g.b.Add(g.b.Ld(cnt), one)
			g.b.St(cnt, next)
			g.b.Br(headB)
		}
		g.dead = false
		g.b.SetBlock(endB)
		return nil

	case *DelayStmt:
		d, err := g.expr(st.Delay)
		if err != nil {
			return err
		}
		if !d.isTime {
			return g.errf("delay is not a time literal")
		}
		resume := g.newBlock("after")
		g.b.Wait(resume, d.v)
		g.b.SetBlock(resume)
		return g.stmt(st.Inner)

	case *WaitEventStmt:
		_, err := g.waitEvents(st.Events, stmtWait)
		return err

	case *ExprStmt:
		switch x := st.X.(type) {
		case *IncDec:
			_, err := g.incdec(x)
			return err
		case *CallExpr:
			_, err := g.call(x, true)
			return err
		}
		_, err := g.expr(st.X)
		return err

	case *AssertStmt:
		cond, err := g.exprBool(st.Cond)
		if err != nil {
			return err
		}
		g.b.Call(ir.VoidType(), "llhd.assert", cond)
		return nil

	case *SysCallStmt:
		return g.sysCall(st)
	}
	return g.errf("unsupported statement %T", s)
}

// loop emits a while/do-while/for loop.
func (g *procGen) loop(cond Expr, body Stmt, step Stmt, doWhile bool) error {
	headB := g.newBlock("head")
	bodyB := g.newBlock("lbody")
	endB := g.newBlock("lend")
	if doWhile {
		g.b.Br(bodyB)
	} else {
		g.b.Br(headB)
	}

	g.b.SetBlock(headB)
	if cond != nil {
		cv, err := g.exprBool(cond)
		if err != nil {
			return err
		}
		g.b.BrCond(cv, endB, bodyB)
	} else {
		g.b.Br(bodyB)
	}

	g.b.SetBlock(bodyB)
	if err := g.stmt(body); err != nil {
		return err
	}
	if !g.dead {
		if step != nil {
			if err := g.stmt(step); err != nil {
				return err
			}
		}
		g.b.Br(headB)
	}
	g.dead = false
	g.b.SetBlock(endB)
	return nil
}

// waitNames are the names an event wait gives what it emits: its three
// blocks, the word its diagnostics use and whether its probes are named
// <net>0 (before the wait) and <net>1 (after).
type waitNames struct {
	head, check, done, kind string
	probes                  bool
}

var (
	ffWait   = waitNames{"init", "check", "body", "edge", true} // a block's own list
	stmtWait = waitNames{"ev", "evchk", "evdone", "event", false}
)

// waitEvents emits "@(posedge clk)": probe, wait, and go back to the head
// unless an event of the list fired. It returns the head and leaves the
// builder in the done block.
func (g *procGen) waitEvents(events []Event, names waitNames) (*ir.Block, error) {
	headB := g.newBlock(names.head)
	checkB := g.newBlock(names.check)
	doneB := g.newBlock(names.done)
	g.b.Br(headB)
	g.b.SetBlock(headB)
	sigs := make([]ir.Value, len(events))
	for i, ev := range events {
		id, ok := ev.Sig.(*Ident)
		if !ok {
			return nil, g.errf("%s expression must be a plain net", names.kind)
		}
		a, ok := g.args[id.Name]
		if !ok {
			return nil, g.errf("%s net %q not visible to process", names.kind, id.Name)
		}
		sigs[i] = a
	}
	prev := make([]*ir.Inst, len(events))
	for i, sig := range sigs {
		prev[i] = g.b.Prb(sig)
		if names.probes {
			prev[i].SetName(events[i].Sig.(*Ident).Name + "0")
		}
	}
	g.b.Wait(checkB, nil, sigs...)
	g.b.SetBlock(checkB)
	var fire ir.Value
	for i, ev := range events {
		now := g.b.Prb(sigs[i])
		if names.probes {
			now.SetName(events[i].Sig.(*Ident).Name + "1")
		}
		c := ir.Value(g.b.Neq(prev[i], now))
		switch ev.Edge {
		case "posedge":
			c = g.b.And(c, now)
		case "negedge":
			c = g.b.And(c, g.b.Not(now))
		}
		if fire == nil {
			fire = c
		} else {
			fire = g.b.Or(fire, c)
		}
	}
	g.b.BrCond(fire, headB, doneB)
	g.b.SetBlock(doneB)
	return headB, nil
}

func (g *procGen) sysCall(st *SysCallStmt) error {
	switch st.Name {
	case "$display", "$write", "$info", "$warning":
		var args []ir.Value
		for _, a := range st.Args {
			if _, isStr := a.(*StringLit); isStr {
				continue
			}
			v, err := g.expr(a)
			if err != nil {
				return err
			}
			args = append(args, v.v)
		}
		g.b.Call(ir.VoidType(), "llhd.display", args...)
		return nil
	case "$error", "$fatal":
		zero := g.b.ConstInt(ir.IntType(1), 0)
		g.b.Call(ir.VoidType(), "llhd.assert", zero)
		return nil
	case "$finish", "$stop":
		if g.inFunc {
			return g.errf("$finish inside a function")
		}
		g.b.Halt()
		g.dead = true
		return nil
	case "$return":
		if !g.inFunc {
			return g.errf("return outside a function")
		}
		if len(st.Args) == 1 && st.Args[0] != nil {
			v, err := g.expr(st.Args[0])
			if err != nil {
				return err
			}
			g.b.St(g.retVar, g.coerce(v, g.retW))
		}
		g.b.Br(g.exitB)
		g.dead = true
		return nil
	case "$readmemh":
		// The load happened at elaboration (see CollectReadmemh); the
		// runtime call is a no-op. Elaboration rejects calls outside
		// initial blocks, so only function bodies can reach here wrong.
		if g.inFunc {
			return g.errf("$readmemh inside a function")
		}
		return nil
	case "$dumpfile", "$dumpvars", "$monitor":
		return nil // accepted and ignored
	}
	return g.errf("unsupported system task %s", st.Name)
}

// localDecl declares block-local variables.
func (g *procGen) localDecl(d *NetDecl) error {
	w, err := g.c.typeWidth(d.Type, g.sc)
	if err != nil {
		return err
	}
	for i, name := range d.Names {
		if d.Type.UnpackedLo != nil {
			lo, err := g.c.constEval(d.Type.UnpackedLo, g.sc)
			if err != nil {
				return err
			}
			hi, err := g.c.constEval(d.Type.UnpackedHi, g.sc)
			if err != nil {
				return err
			}
			if hi < lo {
				lo, hi = hi, lo
			}
			n := int(hi-lo) + 1
			elem := ir.IntType(w)
			var elems []ir.Value
			for j := 0; j < n; j++ {
				elems = append(elems, g.b.ConstInt(elem, 0))
			}
			arr := g.b.Array(elem, elems...)
			slot := g.b.Var(arr)
			slot.SetName(name)
			g.locals[name] = &localVar{slot: slot, width: w, isArray: true, arrayLen: n, outer: g.locals[name]}
			continue
		}
		var init ir.Value
		if d.Inits[i] != nil {
			v, err := g.expr(d.Inits[i])
			if err != nil {
				return err
			}
			init = g.coerce(v, w)
		} else {
			init = g.b.ConstInt(ir.IntType(w), 0)
		}
		slot := g.b.Var(init)
		slot.SetName(name)
		g.locals[name] = &localVar{slot: slot, width: w, signed: d.Type.Signed, outer: g.locals[name]}
	}
	return nil
}

func (g *procGen) declareHiddenVar(hint string, w int) *ir.Inst {
	zero := g.b.ConstInt(ir.IntType(w), 0)
	v := g.b.Var(zero)
	v.SetName(hint)
	return v
}

// assign handles blocking and nonblocking assignments to locals, nets,
// net bits/slices, and array elements.
func (g *procGen) assign(st *AssignStmt) error {
	rhs, err := g.expr(st.Value)
	if err != nil {
		return err
	}

	var delay ir.Value
	if st.Delay != nil {
		d, err := g.expr(st.Delay)
		if err != nil {
			return err
		}
		if !d.isTime {
			return g.errf("assignment delay is not a time")
		}
		delay = d.v
	}

	switch t := st.Target.(type) {
	case *Ident:
		p, err := g.placeOf(t.Name, st.Blocking)
		if err != nil {
			return err
		}
		g.store(p, g.coerce(rhs, p.width), delay)
		return nil

	case *Index:
		id, ok := t.X.(*Ident)
		if !ok {
			return g.errf("unsupported assignment target")
		}
		idx, err := g.expr(t.Idx)
		if err != nil {
			return err
		}
		if slot, w, ok := g.arrayOf(id.Name); ok {
			g.storeArrayElem(slot, idx, g.coerce(rhs, w))
			return nil
		}
		p, err := g.placeOf(id.Name, st.Blocking)
		if err != nil {
			return err
		}
		g.splice(p, idx, rhs, 1, delay)
		return nil

	case *Slice:
		id, ok := t.X.(*Ident)
		if !ok {
			return g.errf("unsupported assignment target")
		}
		if t.Up {
			wamt, err := g.c.constEval(t.Lsb, g.sc)
			if err != nil {
				return g.errf("indexed part select width must be constant: %v", err)
			}
			w := int(wamt)
			p, err := g.placeOf(id.Name, st.Blocking)
			if err != nil {
				return err
			}
			if w <= 0 || w > p.width {
				return g.errf("indexed part select width %d out of range", w)
			}
			idx, err := g.expr(t.Msb)
			if err != nil {
				return err
			}
			g.splice(p, idx, rhs, w, delay)
			return nil
		}
		msb, err := g.c.constEval(t.Msb, g.sc)
		if err != nil {
			return err
		}
		lsb, err := g.c.constEval(t.Lsb, g.sc)
		if err != nil {
			return err
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		w := int(msb-lsb) + 1
		part := g.coerce(rhs, w)
		p, err := g.placeOf(id.Name, st.Blocking)
		if err != nil {
			return err
		}
		g.store(p, g.b.InsS(g.load(p), part, int(lsb), w), delay)
		return nil

	case *Concat:
		// {a, b} = expr: split MSB-first.
		total := 0
		var places []place
		for _, p := range t.Parts {
			id, ok := p.(*Ident)
			if !ok {
				return g.errf("concat assignment parts must be plain nets")
			}
			pl, err := g.placeOf(id.Name, st.Blocking)
			if err != nil {
				return err
			}
			places = append(places, pl)
			total += pl.width
		}
		whole := g.coerce(rhs, total)
		off := total
		for _, pl := range places {
			off -= pl.width
			part := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(pl.width), Args: []ir.Value{whole}, Imm0: off, Imm1: pl.width}
			g.append(part)
			g.store(pl, part, delay)
		}
		return nil
	}
	return g.errf("unsupported assignment target %T", st.Target)
}

// splice writes rhs into the w-bit field of p at the dynamic bit offset
// idx (x[idx] and x[idx +: w]): a read-modify-write that clears the field
// and ors the new value in. Bits shifted past the top of the vector are
// dropped, as on a read.
func (g *procGen) splice(p place, idx, rhs cv, w int, delay ir.Value) {
	// All operands at the target width; the shift amount saturates via
	// the IR's shift semantics (shifted-out bits vanish).
	sh := g.coerce(idx, p.width)
	field := g.coerce(cv{v: g.coerce(rhs, w), width: w}, p.width) // zero-extended
	maskC := g.b.ConstInt(ir.IntType(p.width), ir.MaskWidth(^uint64(0), w))
	cleared := g.b.And(g.load(p), g.b.Not(g.b.Shl(maskC, sh)))
	g.store(p, g.b.Or(cleared, g.b.Shl(field, sh)), delay)
}

// place is where an assignment target's name lives: a var slot (a local,
// the function's own name among them, or a blocking shadow) or a net the
// process drives.
type place struct {
	slot  *ir.Inst // nil for a driven net
	net   string
	width int
}

// placeOf resolves the name an assignment writes, whole or in part: a
// local, else the net's shadow when the write is blocking and the net has
// one, else a net of the process signature.
func (g *procGen) placeOf(name string, blocking bool) (place, error) {
	if lv, ok := g.locals[name]; ok {
		if lv.isArray {
			return place{}, g.errf("array %q used without an index", name)
		}
		return place{slot: lv.slot, width: lv.width}, nil
	}
	ni := g.sc.nets[name]
	if ni == nil {
		return place{}, g.errf("assignment to unknown name %q", name)
	}
	if sh := g.shadows[name]; blocking && sh != nil {
		return place{slot: sh, width: ni.width}, nil
	}
	if _, ok := g.args[name]; !ok {
		return place{}, g.errf("net %q is not writable here", name)
	}
	return place{net: name, width: ni.width}, nil
}

// load reads a place's current value.
func (g *procGen) load(p place) ir.Value {
	if p.slot != nil {
		return g.b.Ld(p.slot)
	}
	return g.readNet(p.net)
}

// store writes v to a place; a net is driven after delay, a delta when
// delay is nil.
func (g *procGen) store(p place, v, delay ir.Value) {
	if p.slot != nil {
		g.b.St(p.slot, v)
		return
	}
	if delay == nil {
		delay = g.b.ConstTime(ir.Time{})
	}
	g.b.Drv(g.args[p.net], v, delay, nil)
}

// arrayOf resolves an unpacked array name: one the process owns, else a
// local array.
func (g *procGen) arrayOf(name string) (slot *ir.Inst, width int, ok bool) {
	if slot := g.arrays[name]; slot != nil {
		return slot, g.sc.nets[name].width, true
	}
	if lv := g.locals[name]; lv != nil && lv.isArray {
		return lv.slot, lv.width, true
	}
	return nil, 0, false
}

func (g *procGen) storeArrayElem(slot *ir.Inst, idx cv, v ir.Value) {
	cur := g.b.Ld(slot)
	upd := &ir.Inst{Op: ir.OpInsF, Ty: cur.Type(), Args: []ir.Value{cur, v, g.coerce(idx, 32)}}
	g.append(upd)
	g.b.St(slot, upd)
}

// append inserts a hand-built instruction at the current position.
func (g *procGen) append(in *ir.Inst) {
	g.b.Block().Append(in)
}
