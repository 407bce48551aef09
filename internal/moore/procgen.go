package moore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"llhd/internal/ir"
)

// sortedNames returns the keys of a string-keyed map in sorted order, so
// that IR emission driven by map iteration is deterministic (compiling the
// same source twice must print identically — the design cache and the
// fuzzer's mk-determinism oracle both key on the printed form).
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

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
	blocking map[string]bool

	entry    *ir.Block // var declarations live here
	loopHead *ir.Block
	dead     bool

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

// genProcess compiles item into a process unit named pname and returns the
// read and written net names (the unit's signature, in order).
func (c *compiler) genProcess(item Item, pname string, sc *scope, ownedArrays map[string]bool) (reads, writes []string, err error) {
	reads, writes = readsWrites(item, sc)

	u := ir.NewUnit(ir.UnitProc, pname)
	g := &procGen{
		c: c, sc: sc, unit: u,
		args:     map[string]*ir.Arg{},
		shadows:  map[string]*ir.Inst{},
		arrays:   map[string]*ir.Inst{},
		locals:   map[string]*localVar{},
		blocking: map[string]bool{},
	}
	for _, n := range reads {
		ni := sc.nets[n]
		g.args[n] = u.AddInput(n, ir.SignalType(ir.IntType(ni.width)))
	}
	for _, n := range writes {
		ni := sc.nets[n]
		g.args[n] = u.AddOutput(n, ir.SignalType(ir.IntType(ni.width)))
	}
	g.b = ir.NewBuilder(u)
	g.entry = u.AddBlock("entry")
	g.b.SetBlock(g.entry)

	// Materialize owned arrays as persistent vars.
	for _, name := range sortedNames(ownedArrays) {
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
			Body: &AssignStmt{Target: it.Target, Value: it.Value, Line: it.Line}}, reads)
	case *AlwaysBlock:
		Inspect(it, func(n Node) bool {
			if st, ok := n.(*AssignStmt); ok && st.Blocking {
				LvalueNets(st.Target, func(name string) {
					if ni := sc.nets[name]; ni != nil && ni.isNet {
						g.blocking[name] = true
					}
				})
			}
			return true
		})
		switch it.Kind {
		case "initial":
			err = g.genInitial(it)
		case "always_comb", "always_latch":
			err = g.genComb(it, reads)
		case "always_ff":
			err = g.genFF(it)
		case "always":
			if len(it.Events) == 0 {
				return nil, nil, g.errf("plain always without sensitivity is unsupported")
			}
			if it.EdgeTriggered() {
				err = g.genFF(it)
			} else {
				err = g.genComb(it, reads)
			}
		default:
			return nil, nil, g.errf("unsupported process kind %q", it.Kind)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if err := c.out.Add(u); err != nil {
		return nil, nil, err
	}
	return reads, writes, nil
}

// declareShadows creates shadow vars for blocking-assigned nets.
func (g *procGen) declareShadows() {
	g.b.SetBlock(g.entry)
	for _, n := range sortedNames(g.blocking) {
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
	for _, n := range sortedNames(g.shadows) {
		cur := g.b.Prb(g.args[n])
		g.b.St(g.shadows[n], cur)
	}
}

// driveShadows writes the shadow values back onto the nets (delta delay).
func (g *procGen) driveShadows() {
	if len(g.shadows) == 0 {
		return
	}
	dz := g.b.ConstTime(ir.Time{})
	for _, n := range sortedNames(g.shadows) {
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
	g.loopHead = loop
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

func (g *procGen) genFF(it *AlwaysBlock) error {
	g.declareShadows()
	init := g.newBlock("init")
	check := g.newBlock("check")
	body := g.newBlock("body")
	g.b.Br(init)

	type edgeEv struct {
		arg  *ir.Arg
		mode string
		prev *ir.Inst
	}
	var edges []edgeEv
	for _, ev := range it.Events {
		if ev.Edge != "posedge" && ev.Edge != "negedge" {
			return g.errf("always_ff requires edge events")
		}
		id, ok := ev.Sig.(*Ident)
		if !ok {
			return g.errf("edge events must name a plain net")
		}
		a, ok := g.args[id.Name]
		if !ok {
			return g.errf("edge net %q not visible to process", id.Name)
		}
		edges = append(edges, edgeEv{arg: a, mode: ev.Edge})
	}
	if len(edges) == 0 {
		return g.errf("always_ff without an edge event")
	}

	g.b.SetBlock(init)
	var waitSigs []ir.Value
	for i := range edges {
		edges[i].prev = g.b.Prb(edges[i].arg)
		edges[i].prev.SetName(edges[i].arg.ValueName() + "0")
		waitSigs = append(waitSigs, edges[i].arg)
	}
	g.b.Wait(check, nil, waitSigs...)

	g.b.SetBlock(check)
	var fire ir.Value
	for _, e := range edges {
		now := g.b.Prb(e.arg)
		now.SetName(e.arg.ValueName() + "1")
		chg := g.b.Neq(e.prev, now)
		var cond *ir.Inst
		if e.mode == "posedge" {
			cond = g.b.And(chg, now)
		} else {
			cond = g.b.And(chg, g.b.Not(now))
		}
		if fire == nil {
			fire = cond
		} else {
			fire = g.b.Or(fire, cond)
		}
	}
	g.b.BrCond(fire, init, body)

	g.b.SetBlock(body)
	g.loopHead = init
	g.loadShadowsFromNets()
	if err := g.stmt(it.Body); err != nil {
		return err
	}
	if !g.dead {
		g.driveShadows()
		g.b.Br(init)
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
		return g.waitEvents(st.Events)

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

// waitEvents emits "@(posedge clk)": loop probing until the edge occurs.
func (g *procGen) waitEvents(events []Event) error {
	initB := g.newBlock("ev")
	checkB := g.newBlock("evchk")
	doneB := g.newBlock("evdone")
	g.b.Br(initB)
	g.b.SetBlock(initB)
	type pe struct {
		arg  *ir.Arg
		mode string
		prev *ir.Inst
	}
	var pes []pe
	var sigs []ir.Value
	for _, ev := range events {
		id, ok := ev.Sig.(*Ident)
		if !ok {
			return g.errf("event expression must be a plain net")
		}
		a, ok := g.args[id.Name]
		if !ok {
			return g.errf("event net %q not visible", id.Name)
		}
		pes = append(pes, pe{arg: a, mode: ev.Edge})
		sigs = append(sigs, a)
	}
	for i := range pes {
		pes[i].prev = g.b.Prb(pes[i].arg)
	}
	g.b.Wait(checkB, nil, sigs...)
	g.b.SetBlock(checkB)
	var fire ir.Value
	for _, e := range pes {
		now := g.b.Prb(e.arg)
		chg := g.b.Neq(e.prev, now)
		var c ir.Value
		switch e.mode {
		case "posedge":
			c = g.b.And(chg, now)
		case "negedge":
			c = g.b.And(chg, g.b.Not(now))
		default:
			c = chg
		}
		if fire == nil {
			fire = c
		} else {
			fire = g.b.Or(fire, c)
		}
	}
	g.b.BrCond(fire, initB, doneB)
	g.b.SetBlock(doneB)
	return nil
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
		// Local variable.
		if lv, ok := g.locals[t.Name]; ok {
			g.b.St(lv.slot, g.coerce(rhs, lv.width))
			return nil
		}
		// Function return value assignment: name = expr with name == fn.
		if g.inFunc && g.retVar != nil && t.Name == g.unit.Name[strings.LastIndex(g.unit.Name, "_")+1:] {
			g.b.St(g.retVar, g.coerce(rhs, g.retW))
			return nil
		}
		ni := g.sc.nets[t.Name]
		if ni == nil {
			return g.errf("assignment to unknown name %q", t.Name)
		}
		v := g.coerce(rhs, ni.width)
		if st.Blocking && g.shadows[t.Name] != nil {
			g.b.St(g.shadows[t.Name], v)
			return nil
		}
		return g.drive(t.Name, v, delay)

	case *Index:
		id, ok := t.X.(*Ident)
		if !ok {
			return g.errf("unsupported assignment target")
		}
		idx, err := g.expr(t.Idx)
		if err != nil {
			return err
		}
		// Array element (module-owned or local).
		if slot, isArr := g.arrays[id.Name]; isArr {
			ni := g.sc.nets[id.Name]
			return g.storeArrayElem(slot, idx, g.coerce(rhs, ni.width))
		}
		if lv, ok := g.locals[id.Name]; ok && lv.isArray {
			return g.storeArrayElem(lv.slot, idx, g.coerce(rhs, lv.width))
		}
		// Bit of a local variable: read-modify-write.
		if lv, ok := g.locals[id.Name]; ok {
			cur := g.b.Ld(lv.slot)
			bit := g.coerce(rhs, 1)
			upd := &ir.Inst{Op: ir.OpInsF, Ty: cur.Type(), Args: []ir.Value{cur, bit, g.coerce(idx, 32)}}
			g.append(upd)
			g.b.St(lv.slot, upd)
			return nil
		}
		// Bit of a net.
		ni := g.sc.nets[id.Name]
		if ni == nil {
			return g.errf("assignment to unknown name %q", id.Name)
		}
		bit := g.coerce(rhs, 1)
		if st.Blocking && g.shadows[id.Name] != nil {
			sh := g.shadows[id.Name]
			cur := g.b.Ld(sh)
			upd := &ir.Inst{Op: ir.OpInsF, Ty: cur.Type(), Args: []ir.Value{cur, bit, g.coerce(idx, 32)}}
			g.append(upd)
			g.b.St(sh, upd)
			return nil
		}
		// Nonblocking bit write: read-modify-write the whole net.
		cur := g.readNet(id.Name)
		upd := &ir.Inst{Op: ir.OpInsF, Ty: cur.Type(), Args: []ir.Value{cur, bit, g.coerce(idx, 32)}}
		g.append(upd)
		return g.drive(id.Name, upd, delay)

	case *Slice:
		id, ok := t.X.(*Ident)
		if !ok {
			return g.errf("unsupported assignment target")
		}
		if t.Up {
			return g.assignUpSlice(st, t, id, rhs, delay)
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
		if lv, ok := g.locals[id.Name]; ok {
			cur := g.b.Ld(lv.slot)
			upd := g.b.InsS(cur, part, int(lsb), w)
			g.b.St(lv.slot, upd)
			return nil
		}
		ni := g.sc.nets[id.Name]
		if ni == nil {
			return g.errf("assignment to unknown name %q", id.Name)
		}
		if st.Blocking && g.shadows[id.Name] != nil {
			sh := g.shadows[id.Name]
			upd := g.b.InsS(g.b.Ld(sh), part, int(lsb), w)
			g.b.St(sh, upd)
			return nil
		}
		cur := g.readNet(id.Name)
		upd := g.b.InsS(cur, part, int(lsb), w)
		return g.drive(id.Name, upd, delay)

	case *Concat:
		// {a, b} = expr: split MSB-first.
		total := 0
		type piece struct {
			name string
			w    int
		}
		var pieces []piece
		for _, p := range t.Parts {
			id, ok := p.(*Ident)
			if !ok {
				return g.errf("concat assignment parts must be plain nets")
			}
			w, err := g.nameWidth(id.Name)
			if err != nil {
				return err
			}
			pieces = append(pieces, piece{id.Name, w})
			total += w
		}
		whole := g.coerce(rhs, total)
		off := total
		for _, pc := range pieces {
			off -= pc.w
			part := &ir.Inst{Op: ir.OpExtS, Ty: ir.IntType(pc.w), Args: []ir.Value{whole}, Imm0: off, Imm1: pc.w}
			g.append(part)
			if lv, ok := g.locals[pc.name]; ok {
				g.b.St(lv.slot, part)
				continue
			}
			if st.Blocking && g.shadows[pc.name] != nil {
				g.b.St(g.shadows[pc.name], part)
				continue
			}
			if err := g.drive(pc.name, part, delay); err != nil {
				return err
			}
		}
		return nil
	}
	return g.errf("unsupported assignment target %T", st.Target)
}

// assignUpSlice lowers "x[base +: w] = rhs": a read-modify-write that
// clears the w-bit field at the dynamic base index and ors the new value
// in. Fields shifted past the top of the vector are silently truncated,
// matching the read form.
func (g *procGen) assignUpSlice(st *AssignStmt, t *Slice, id *Ident, rhs cv, delay ir.Value) error {
	wamt, err := g.c.constEval(t.Lsb, g.sc)
	if err != nil {
		return g.errf("indexed part select width must be constant: %v", err)
	}
	w := int(wamt)
	tw, err := g.nameWidth(id.Name)
	if err != nil {
		return err
	}
	if w <= 0 || w > tw {
		return g.errf("indexed part select width %d out of range", w)
	}
	idx, err := g.expr(t.Msb)
	if err != nil {
		return err
	}
	// All operands at the target width; the shift amount saturates via
	// the IR's shift semantics (shifted-out bits vanish).
	sh := g.coerce(idx, tw)
	field := g.coerce(cv{v: g.coerce(rhs, w), width: w}, tw) // zero-extended
	maskC := g.b.ConstInt(ir.IntType(tw), ir.MaskWidth(^uint64(0), w))
	update := func(cur ir.Value) ir.Value {
		cleared := g.b.And(cur, g.b.Not(g.b.Shl(maskC, sh)))
		return g.b.Or(cleared, g.b.Shl(field, sh))
	}
	if lv, ok := g.locals[id.Name]; ok {
		g.b.St(lv.slot, update(g.b.Ld(lv.slot)))
		return nil
	}
	if g.sc.nets[id.Name] == nil {
		return g.errf("assignment to unknown name %q", id.Name)
	}
	if st.Blocking && g.shadows[id.Name] != nil {
		sh := g.shadows[id.Name]
		g.b.St(sh, update(g.b.Ld(sh)))
		return nil
	}
	return g.drive(id.Name, update(g.readNet(id.Name)), delay)
}

// drive emits a drv onto a net with the given (possibly nil => delta)
// delay.
func (g *procGen) drive(name string, v ir.Value, delay ir.Value) error {
	a, ok := g.args[name]
	if !ok {
		return g.errf("net %q is not writable here", name)
	}
	if delay == nil {
		delay = g.b.ConstTime(ir.Time{})
	}
	g.b.Drv(a, v, delay, nil)
	return nil
}

func (g *procGen) storeArrayElem(slot *ir.Inst, idx cv, v ir.Value) error {
	cur := g.b.Ld(slot)
	upd := &ir.Inst{Op: ir.OpInsF, Ty: cur.Type(), Args: []ir.Value{cur, v, g.coerce(idx, 32)}}
	g.append(upd)
	g.b.St(slot, upd)
	return nil
}

// append inserts a hand-built instruction at the current position.
func (g *procGen) append(in *ir.Inst) {
	g.b.Block().Append(in)
}

func (g *procGen) nameWidth(name string) (int, error) {
	if lv, ok := g.locals[name]; ok {
		return lv.width, nil
	}
	if ni := g.sc.nets[name]; ni != nil {
		return ni.width, nil
	}
	return 0, g.errf("unknown name %q", name)
}
