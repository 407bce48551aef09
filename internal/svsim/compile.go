package svsim

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"llhd/internal/ir"
	"llhd/internal/moore"
)

// The resolved program. Compile turns the AST of every module, once per
// distinct assignment of its parameters, into the forms below: every name
// is a frame slot, a net slot, an array index or a folded constant, every
// operator, edge kind and system task an opcode, every width, bound and
// count a number. A body is flat code, a list of ops with jump targets in
// place of nested statements; an expression stays a tree. The simulator
// never looks a name up.

// module is one module under one assignment of its parameters.
type module struct {
	name   string
	nets   []netDecl // in the order the signals are created
	slotW  []int     // width of each net, by slot
	arrays []arrayDecl
	items  []item // child instances and processes, in source order
	// funcWaits are the @(...) lists inside the module's functions; each
	// process keeps its own state for them at wait indices 0..n-1.
	funcWaits [][]evRef
	maxFrame  int // the largest function frame, in slots
}

// netDecl is one signal of an instance: a port (port >= 0, bound to the
// parent's net unless the module is the top) or an internal net.
type netDecl struct {
	name string
	slot int
	port int
	init uint64
}

// arrayDecl is a module-level unpacked array: its element width and
// initial contents ($readmemh image included).
type arrayDecl struct {
	width int
	init  []uint64
}

// item is a child instance or a process.
type item struct {
	inst *instance
	proc *procProg
}

// instance is a node of the instance tree: its hierarchical name, its
// program, and for each port of the program the parent slot it binds to.
type instance struct {
	name  string
	mod   *module
	ports []int
}

// procProg is one always/initial block (or continuous assignment). Its
// code is one pass, and ends in the op that halts the block or starts the
// next pass; a return in the body jumps to that op:
//
//	initial        body; sHalt
//	edge-triggered sWait, sFired on its own list; body; sJump to 0
//	combinational  sPass; body; sArm
type procProg struct {
	code   []stmt
	waits  [][]evRef // the event lists, at wait indices after funcWaits
	nslots int
}

// edgeKind is which transition of a net an event counts.
type edgeKind uint8

const (
	edgeAny edgeKind = iota
	edgePos
	edgeNeg
)

// evRef is one resolved event: a net slot and its edge.
type evRef struct {
	slot int
	kind edgeKind
}

// function is a module function: its frame holds the arguments at slots
// 0..len(argW)-1, then the return variable, the locals and block locals.
type function struct {
	name    string
	argW    []int
	retW    int
	retInit int // the slot zeroed at entry: the variable named like the function
	retSlot int // the slot the result is read from after the body
	code    []stmt
	// mayWait marks a function holding a # delay or an @(...), or calling
	// one that does: only a call op can run it.
	mayWait bool
}

// op is an expression opcode.
type op uint8

const (
	opConst   op = iota // k, w, fill
	opTime              // a time literal, t; as a number it reads 0
	opNow               // $time; as a number it reads 0
	opLocal             // frame slot, w, signed
	opNet               // net slot, w, signed
	opArray             // array slot, w, x the index, name for the error
	opBit               // x[y]
	opSlice             // x[msb:lsb]: k the lsb, w
	opPart              // x[y +: w]
	opConcat            // args
	opRepl              // {k{x}}
	opTernary           // x ? y : z
	opSign              // $signed / $unsigned of x, signed
	opCall              // fn(args)
	opIncDec            // frame slot, w, signed, dec, post
	opNot
	opNeg
	opLNot
	opRedAnd
	opRedOr
	opRedXor
	opLAnd
	opLOr
	// The operators below share binary's operand rule.
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opAnd
	opOr
	opXor
	opShl
	opShr
	opAShr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
)

var unaryOps = map[string]op{"~": opNot, "-": opNeg, "!": opLNot, "&": opRedAnd, "|": opRedOr, "^": opRedXor}

var binaryOps = map[string]op{
	"&&": opLAnd, "||": opLOr,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"&": opAnd, "|": opOr, "^": opXor,
	"<<": opShl, "<<<": opShl, ">>": opShr, ">>>": opAShr,
	"==": opEq, "===": opEq, "!=": opNe, "!==": opNe,
	"<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
}

// expr is a resolved expression.
type expr struct {
	op        op
	signed    bool // opLocal, opIncDec, opNet: the variable's; opSign: the result's
	fill      bool // opConst: '0 / '1
	dec, post bool // opIncDec
	w         int
	slot      int
	k         uint64
	t         ir.Time
	x, y, z   *expr
	args      []*expr
	fn        *function
	name      string // opArray: the array, for its range error
}

// sop is a statement opcode: one op of flat code.
type sop uint8

const (
	sDecl   sop = iota // frame slot = x (zero when nil) adapted to w
	sAssign            // lv = x, blocking, optional delay y
	sStore             // frame slot = x masked to w
	sExpr              // x for its effects
	sJump              // to target
	sBranch            // to target when x is zero
	sLoop              // back to target, against the loop budget; name the loop's keyword
	sCase              // subject x: to the pc of the first arm with a matching label, else to target
	sRepeat            // to target when the count in frame slot is zero, else count it down
	sCall              // call op: x calls a function that may wait; lv (nil: none) = its result, as sAssign
	sReturn            // back from the function to its call op, or out of run
	sDelay             // #x: suspend, resume at the next op
	sWait              // @(...) at wait index slot: suspend, resume at the next op
	sFired             // to target (its sWait) unless wait index slot's list fired
	sPass              // top of a combinational block's pass
	sArm               // end of a combinational block's pass: re-arm, resume at 0
	sHalt              // end of an initial block, $finish, $stop
	sAssert            // x
	sFail              // $error / $fatal: name
)

// stmt is one op of flat code.
type stmt struct {
	op       sop
	blocking bool
	slot, w  int
	target   int
	x, y     *expr
	lv       *lvalue
	arms     []caseArm
	name     string
}

// caseArm is one arm of sCase: its labels and the pc of its body.
type caseArm struct {
	labels []*expr
	pc     int
}

// lvKind is an assignment target's shape.
type lvKind uint8

const (
	lvWhole  lvKind = iota // base
	lvArray                // array slot, w, idx; name for the error
	lvBit                  // base[idx]
	lvPart                 // base[idx +: w]
	lvSlice                // base[msb:lsb]: lsb, w
	lvConcat               // {parts}: w the total
)

// lvalue is a resolved assignment target. Its base, and every part of a
// concat, is an opLocal or an opNet.
type lvalue struct {
	kind  lvKind
	slot  int
	w     int
	lsb   uint64
	idx   *expr
	base  *expr
	parts []*expr
	name  string
}

// ------------------------------------------------------------ the tree

// compiler elaborates the instance tree, resolving each distinct
// (module, parameter values) pair once.
type compiler struct {
	mods   map[string]*moore.Module
	images map[string]string
	progs  map[string]*module
}

// scope is what a module's bodies can name: its constants, nets (by
// slot), arrays (by index) and functions.
type scope struct {
	consts map[string]uint64
	nets   map[string]int
	signed []bool // by slot
	arrays map[string]int
	funcs  map[string]*function
	m      *module
}

// module returns the program of m under the given parameter overrides,
// building it on first use; name is the instance the diagnostics name.
func (c *compiler) module(m *moore.Module, name string, overrides map[string]uint64) (*module, error) {
	sc := &scope{
		consts: map[string]uint64{},
		nets:   map[string]int{},
		arrays: map[string]int{},
		funcs:  map[string]*function{},
	}
	key := []byte(m.Name)
	for _, p := range m.Params {
		v, ok := overrides[p.Name]
		if !ok {
			var err error
			if v, err = sc.constEval(p.Default); err != nil {
				return nil, err
			}
		}
		sc.consts[p.Name] = v
		key = strconv.AppendUint(append(key, ' '), v, 10)
	}
	if prog, ok := c.progs[string(key)]; ok {
		return prog, nil
	}
	var (
		fns    []*moore.FuncDecl
		shells []*function
	)
	for _, it := range m.Items {
		switch it := it.(type) {
		case *moore.LocalParam:
			v, err := sc.constEval(it.Value)
			if err != nil {
				return nil, err
			}
			sc.consts[it.Name] = v
		case *moore.FuncDecl:
			f := &function{name: it.Name}
			sc.funcs[it.Name] = f
			fns, shells = append(fns, it), append(shells, f)
		}
	}
	prog := &module{name: m.Name}
	sc.m = prog
	if err := sc.declareNets(m); err != nil {
		return nil, err
	}
	if err := c.readmemh(m, name, sc); err != nil {
		return nil, err
	}

	for i, fn := range fns {
		if err := sc.signature(fn, shells[i]); err != nil {
			return nil, fmt.Errorf("svsim: %s: function %s: %w", name, fn.Name, err)
		}
	}
	sc.markWaits(fns, shells)
	for i, fn := range fns {
		if err := sc.function(fn, shells[i]); err != nil {
			return nil, fmt.Errorf("svsim: %s: function %s: %w", name, fn.Name, err)
		}
	}

	nproc := 0
	for _, it := range m.Items {
		var blk *moore.AlwaysBlock
		switch it := it.(type) {
		case *moore.InstItem:
			inst, err := c.instance(it, name, sc)
			if err != nil {
				return nil, err
			}
			prog.items = append(prog.items, item{inst: inst})
			continue
		case *moore.AlwaysBlock:
			blk = it
		case *moore.AssignItem:
			blk = &moore.AlwaysBlock{Kind: "always_comb",
				Body: &moore.AssignStmt{Target: it.Target, Value: it.Value, Blocking: true}}
		default:
			continue
		}
		nproc++
		p, err := sc.process(blk)
		if err != nil {
			return nil, fmt.Errorf("svsim: %s.p%d: %w", name, nproc, err)
		}
		prog.items = append(prog.items, item{proc: p})
	}
	c.progs[string(key)] = prog
	return prog, nil
}

// declareNets lays out the instance's ports, nets and arrays. Slots
// number the nets in sorted-name order, so that a flush in slot order
// drives in name order.
func (sc *scope) declareNets(m *moore.Module) error {
	prog := sc.m
	type netType struct {
		width  int
		signed bool
	}
	var types []netType
	add := func(name string, port int, dt *moore.DataType, w int, init uint64) {
		sc.nets[name] = len(types)
		types = append(types, netType{w, dt.Signed})
		prog.nets = append(prog.nets, netDecl{name: name, port: port, init: init})
	}
	for i, port := range m.Ports {
		w, err := sc.typeWidth(port.Type)
		if err != nil {
			return err
		}
		add(port.Name, i, port.Type, w, 0)
	}
	for _, it := range m.Items {
		decl, ok := it.(*moore.NetDecl)
		if !ok {
			continue
		}
		w, err := sc.typeWidth(decl.Type)
		if err != nil {
			return err
		}
		for i, n := range decl.Names {
			if _, known := sc.nets[n]; known {
				continue
			}
			if decl.Type.UnpackedLo != nil {
				lo, err := sc.constEval(decl.Type.UnpackedLo)
				if err != nil {
					return err
				}
				hi, err := sc.constEval(decl.Type.UnpackedHi)
				if err != nil {
					return err
				}
				if hi < lo {
					lo, hi = hi, lo
				}
				elems := make([]uint64, int(hi-lo)+1)
				if lit, ok := decl.Inits[i].(*moore.ArrayLit); ok {
					for j, e := range lit.Elems {
						if j < len(elems) {
							v, err := sc.constEval(e)
							if err != nil {
								return err
							}
							elems[j] = mask(v, w)
						}
					}
				}
				sc.arrays[n] = len(prog.arrays)
				prog.arrays = append(prog.arrays, arrayDecl{width: w, init: elems})
				continue
			}
			init := uint64(0)
			if decl.Inits[i] != nil {
				if init, err = sc.constEval(decl.Inits[i]); err != nil {
					return err
				}
			}
			add(n, -1, decl.Type, w, init)
		}
	}
	// Renumber in sorted-name order.
	order := make([]int, len(types))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return prog.nets[order[a]].name < prog.nets[order[b]].name })
	prog.slotW = make([]int, len(types))
	sc.signed = make([]bool, len(types))
	for slot, i := range order {
		n := &prog.nets[i]
		n.slot = slot
		sc.nets[n.name] = slot
		prog.slotW[slot] = types[i].width
		sc.signed[slot] = types[i].signed
	}
	return nil
}

// readmemh resolves $readmemh at elaboration, exactly as the moore/LLHD
// flow does: the image Compile read becomes the array's initial contents
// and the runtime call stays a no-op.
func (c *compiler) readmemh(m *moore.Module, name string, sc *scope) error {
	for _, it := range m.Items {
		ab, ok := it.(*moore.AlwaysBlock)
		if !ok {
			continue
		}
		calls, _ := moore.CollectReadmemh(ab.Body) // Compile checked them
		for _, call := range calls {
			i, ok := sc.arrays[call.Array]
			if !ok {
				return fmt.Errorf("svsim: %s: $readmemh target %q is not an unpacked array", name, call.Array)
			}
			arr := &sc.m.arrays[i]
			img, err := moore.ParseHexFile(call.File, c.images[call.File], arr.width, len(arr.init))
			if err != nil {
				return fmt.Errorf("svsim: %s: %w", name, err)
			}
			for j, v := range img {
				arr.init[j] = mask(v, arr.width)
			}
		}
	}
	return nil
}

// instance resolves a child instantiation in the parent's scope: its
// parameter overrides, its port connections and its program.
func (c *compiler) instance(it *moore.InstItem, parent string, sc *scope) (*instance, error) {
	child, ok := c.mods[it.ModName]
	if !ok {
		return nil, fmt.Errorf("svsim: unknown module %q", it.ModName)
	}
	overrides := map[string]uint64{}
	for i, pc := range it.Params {
		pname := pc.Name
		if pname == "" && i < len(child.Params) {
			pname = child.Params[i].Name
		}
		v, err := sc.constEval(pc.Expr)
		if err != nil {
			return nil, err
		}
		overrides[pname] = v
	}
	conns := map[string]moore.Expr{}
	if it.Star {
		for _, p := range child.Ports {
			conns[p.Name] = &moore.Ident{Name: p.Name}
		}
	} else {
		positional := true
		for _, cn := range it.Conns {
			if cn.Name != "" {
				positional = false
			}
		}
		for i, cn := range it.Conns {
			if positional && i < len(child.Ports) {
				conns[child.Ports[i].Name] = cn.Expr
			} else {
				conns[cn.Name] = cn.Expr
			}
		}
	}
	inst := &instance{name: parent + "." + it.InstName, ports: make([]int, len(child.Ports))}
	for i, p := range child.Ports {
		id, ok := conns[p.Name].(*moore.Ident)
		if !ok {
			return nil, fmt.Errorf("svsim: %s: unsupported connection for %s", parent, p.Name)
		}
		slot, ok := sc.nets[id.Name]
		if !ok {
			return nil, fmt.Errorf("svsim: %s: connection to unknown net %q", parent, id.Name)
		}
		inst.ports[i] = slot
	}
	var err error
	inst.mod, err = c.module(child, inst.name, overrides)
	return inst, err
}

// ------------------------------------------------------------ bodies

// resolver compiles one body, a process or a function, to flat code.
// locals are the names visible at the point being compiled, innermost
// last; a block's declarations leave with its end. The body's @(...)
// lists go to waits, at wait indices from waitBase on. The first error
// sticks (fail) and the rest of the body compiles to placeholders, so the
// error reported is the first one in source order.
type resolver struct {
	*scope
	fn       *function // the function being compiled; nil in a process
	locals   []local
	nslots   int
	waits    *[][]evRef
	waitBase int
	code     []stmt
	returns  []int // a process's returns: jumps to the end of its pass
	err      error
}

type local struct {
	name    string
	slot, w int
	signed  bool
}

// fail records err (nil: none) unless an earlier error stuck.
func (r *resolver) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *resolver) declare(name string, w int, signed bool) int {
	r.locals = append(r.locals, local{name, r.nslots, w, signed})
	r.nslots++
	return r.nslots - 1
}

func (r *resolver) local(name string) (local, bool) {
	for i := len(r.locals) - 1; i >= 0; i-- {
		if r.locals[i].name == name {
			return r.locals[i], true
		}
	}
	return local{}, false
}

// emit appends an op and returns its pc.
func (r *resolver) emit(s stmt) int {
	r.code = append(r.code, s)
	return len(r.code) - 1
}

// land points the jump at pc to the next op emitted.
func (r *resolver) land(pc int) { r.code[pc].target = len(r.code) }

// process compiles an always/initial block (see procProg for its shape).
func (sc *scope) process(blk *moore.AlwaysBlock) (*procProg, error) {
	p := &procProg{}
	// A process's wait indices follow its module's function waits, as
	// newAstProc lays out the process's wait state.
	r := &resolver{scope: sc, waits: &p.waits, waitBase: len(sc.m.funcWaits)}
	end := stmt{op: sArm}
	switch {
	case blk.Kind == "initial":
		end.op = sHalt
	case blk.EdgeTriggered():
		r.wait("edge", blk.Events)
		end.op = sJump
	default:
		if blk.Kind == "always" && len(blk.Events) == 0 {
			r.fail(fmt.Errorf("plain always without sensitivity is unsupported"))
		}
		r.emit(stmt{op: sPass})
	}
	r.stmt(blk.Body)
	for _, pc := range r.returns {
		r.land(pc)
	}
	r.emit(end)
	p.code, p.nslots = r.code, r.nslots
	return p, r.err
}

// markWaits marks the functions that may wait: those holding a # delay or
// an @(...), and those calling one that may, through any chain of calls.
func (sc *scope) markWaits(fns []*moore.FuncDecl, shells []*function) {
	calls := make([][]*function, len(fns))
	for i, fn := range fns {
		moore.Inspect(fn, func(n moore.Node) bool {
			switch n := n.(type) {
			case *moore.DelayStmt, *moore.WaitEventStmt:
				shells[i].mayWait = true
			case *moore.CallExpr:
				if f := sc.funcs[n.Name]; f != nil {
					calls[i] = append(calls[i], f)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for i, f := range shells {
			for _, g := range calls[i] {
				if g.mayWait && !f.mayWait {
					f.mayWait, changed = true, true
				}
			}
		}
	}
}

// signature fills in a function's argument and result widths, which its
// calls need before its body is compiled (a call may precede the callee).
func (sc *scope) signature(fn *moore.FuncDecl, f *function) error {
	f.retW = 1
	if fn.Ret != nil {
		w, err := sc.typeWidth(fn.Ret)
		if err != nil {
			return err
		}
		f.retW = w
	}
	for _, arg := range fn.Args {
		w, err := sc.typeWidth(arg.Type)
		if err != nil {
			return err
		}
		f.argW = append(f.argW, w)
	}
	return nil
}

// function compiles the body of a module function, which ends in a
// return.
func (sc *scope) function(fn *moore.FuncDecl, f *function) error {
	r := &resolver{scope: sc, fn: f, waits: &sc.m.funcWaits}
	for i, arg := range fn.Args {
		r.declare(arg.Name, f.argW[i], arg.Type.Signed)
	}
	f.retInit = r.declare(fn.Name, f.retW, fn.Ret != nil && fn.Ret.Signed)
	for _, d := range fn.Locals {
		r.decl(d)
	}
	ret, _ := r.local(fn.Name)
	f.retSlot = ret.slot
	for _, s := range fn.Body {
		r.stmt(s)
	}
	r.emit(stmt{op: sReturn})
	f.code = r.code
	sc.m.maxFrame = max(sc.m.maxFrame, r.nslots)
	return r.err
}

// wait emits a wait on an event list: the suspend op, then the op that
// goes back to it until an edge of the list fired.
func (r *resolver) wait(kind string, events []moore.Event) {
	*r.waits = append(*r.waits, r.events(kind, events))
	slot := r.waitBase + len(*r.waits) - 1
	pc := r.emit(stmt{op: sWait, slot: slot})
	r.emit(stmt{op: sFired, slot: slot, target: pc})
}

// events resolves an event list to net slots; kind words the diagnostic
// ("edge" for a block's own list, "event" for a wait inside it).
func (r *resolver) events(kind string, events []moore.Event) []evRef {
	l := make([]evRef, 0, len(events))
	for _, ev := range events {
		id, ok := ev.Sig.(*moore.Ident)
		if !ok {
			r.fail(fmt.Errorf("%s expression must name a net", kind))
			continue
		}
		slot, ok := r.nets[id.Name]
		if !ok {
			r.fail(fmt.Errorf("%s net %q not visible to process", kind, id.Name))
		}
		e := evRef{slot: slot, kind: edgeAny}
		switch ev.Edge {
		case "posedge":
			e.kind = edgePos
		case "negedge":
			e.kind = edgeNeg
		}
		l = append(l, e)
	}
	return l
}

// decl declares a block's (or a function's) locals, each visible from the
// next name on, and emits the ops that initialise them.
func (r *resolver) decl(d *moore.NetDecl) {
	w, err := r.typeWidth(d.Type)
	r.fail(err)
	for i, n := range d.Names {
		s := stmt{op: sDecl, w: w}
		if d.Inits[i] != nil {
			s.x = r.expr(d.Inits[i])
		}
		s.slot = r.declare(n, w, d.Type.Signed)
		r.emit(s)
	}
}

// block compiles a begin ... end; the caller ends its scope.
func (r *resolver) block(b *moore.BlockStmt) {
	for _, d := range b.Decls {
		r.decl(d)
	}
	for _, x := range b.Stmts {
		r.stmt(x)
	}
}

// stmt compiles one statement to the ops it runs as. The parts of a
// statement are compiled in source order, so the first bad name reported
// is the first written.
func (r *resolver) stmt(s moore.Stmt) {
	switch st := s.(type) {
	case nil, *moore.NullStmt:

	case *moore.BlockStmt:
		mark := len(r.locals)
		r.block(st)
		r.locals = r.locals[:mark]

	case *moore.AssignStmt:
		out := stmt{op: sAssign, blocking: st.Blocking, lv: r.target(st.Target)}
		if st.Delay != nil {
			out.y = r.expr(st.Delay)
		}
		if st.Blocking {
			out.x = r.waitingCall(st.Value)
		}
		if out.x != nil {
			out.op = sCall
		} else {
			out.x = r.expr(st.Value)
		}
		r.emit(out)

	case *moore.IfStmt:
		br := r.emit(stmt{op: sBranch, x: r.expr(st.Cond)})
		r.stmt(st.Then)
		if st.Else != nil {
			end := r.emit(stmt{op: sJump})
			r.land(br)
			r.stmt(st.Else)
			br = end
		}
		r.land(br)

	case *moore.CaseStmt:
		c := r.emit(stmt{op: sCase, x: r.expr(st.Subject)})
		arms := make([]caseArm, len(st.Items))
		ends := make([]int, len(st.Items))
		for i, it := range st.Items {
			arms[i] = caseArm{labels: r.exprs(it.Labels), pc: len(r.code)}
			r.stmt(it.Body)
			ends[i] = r.emit(stmt{op: sJump})
		}
		r.code[c].arms = arms
		r.land(c)
		r.stmt(st.Default)
		for _, pc := range ends {
			r.land(pc)
		}

	case *moore.ForStmt:
		// A declaration in the init is the loop's: it stays visible in the
		// condition, the step and the body, and leaves with the loop.
		mark := len(r.locals)
		if b, ok := st.Init.(*moore.BlockStmt); ok {
			r.block(b)
		} else {
			r.stmt(st.Init)
		}
		top, br := len(r.code), -1
		if st.Cond != nil {
			br = r.emit(stmt{op: sBranch, x: r.expr(st.Cond)})
		}
		// The step runs after the body but is written before it. It is a
		// simple assignment or call, whose ops hold no jump target, so it
		// moves past the body as it is.
		at := len(r.code)
		r.stmt(st.Step)
		step := slices.Clone(r.code[at:])
		r.code = r.code[:at]
		r.stmt(st.Body)
		r.code = append(r.code, step...)
		r.emit(stmt{op: sLoop, target: top, name: "for"})
		if br >= 0 {
			r.land(br)
		}
		r.locals = r.locals[:mark]

	case *moore.WhileStmt:
		top := len(r.code)
		if st.DoWhile {
			r.stmt(st.Body)
		}
		br := r.emit(stmt{op: sBranch, x: r.expr(st.Cond)})
		if !st.DoWhile {
			r.stmt(st.Body)
		}
		r.emit(stmt{op: sLoop, target: top, name: "while"})
		r.land(br)

	case *moore.RepeatStmt:
		// The count left lives in a frame slot of its own.
		count := r.nslots
		r.nslots++
		r.emit(stmt{op: sStore, slot: count, w: 64, x: r.expr(st.Count)})
		top := r.emit(stmt{op: sRepeat, slot: count})
		r.stmt(st.Body)
		r.emit(stmt{op: sLoop, target: top, name: "repeat"})
		r.land(top)

	case *moore.DelayStmt:
		r.emit(stmt{op: sDelay, x: r.expr(st.Delay)})
		r.stmt(st.Inner)

	case *moore.WaitEventStmt:
		r.wait("event", st.Events)

	case *moore.ExprStmt:
		if call := r.waitingCall(st.X); call != nil {
			r.emit(stmt{op: sCall, x: call})
		} else {
			r.emit(stmt{op: sExpr, x: r.expr(st.X)})
		}

	case *moore.AssertStmt:
		r.emit(stmt{op: sAssert, x: r.expr(st.Cond)})

	case *moore.SysCallStmt:
		r.sysCall(st)

	default:
		r.fail(fmt.Errorf("unsupported statement %T", s))
	}
}

// sysCall compiles a system task in statement position.
func (r *resolver) sysCall(st *moore.SysCallStmt) {
	switch st.Name {
	case "$finish", "$stop":
		if r.fn != nil {
			r.fail(fmt.Errorf("%s inside a function", st.Name))
		}
		r.emit(stmt{op: sHalt})
	case "$return":
		var x *expr
		if len(st.Args) == 1 && st.Args[0] != nil {
			x = r.expr(st.Args[0])
		}
		if r.fn != nil {
			// In a function, return x stores x to the result the call
			// reads.
			if x != nil {
				r.emit(stmt{op: sStore, slot: r.fn.retSlot, w: r.fn.retW, x: x})
			}
			r.emit(stmt{op: sReturn})
			return
		}
		// In a process the value is only evaluated, and the pass ends.
		if x != nil {
			r.emit(stmt{op: sExpr, x: x})
		}
		r.returns = append(r.returns, r.emit(stmt{op: sJump}))
	case "$error", "$fatal":
		// One assertion failure each, as the Moore flow lowers both to a
		// failing llhd.assert; neither stops the run.
		r.emit(stmt{op: sFail, name: st.Name})
	case "$display", "$write", "$info", "$warning",
		"$readmemh", "$dumpfile", "$dumpvars", "$monitor":
	default:
		r.fail(fmt.Errorf("unsupported system task %s", st.Name))
	}
}

// target compiles an assignment target.
func (r *resolver) target(t moore.Expr) *lvalue {
	switch t := t.(type) {
	case *moore.Ident:
		return &lvalue{kind: lvWhole, base: r.whole(t.Name)}

	case *moore.Index:
		id, ok := t.X.(*moore.Ident)
		if !ok {
			r.fail(fmt.Errorf("unsupported assignment target"))
			return &lvalue{}
		}
		if i, isArr := r.arrays[id.Name]; isArr {
			return &lvalue{kind: lvArray, slot: i, w: r.m.arrays[i].width, idx: r.expr(t.Idx), name: id.Name}
		}
		return &lvalue{kind: lvBit, base: r.whole(id.Name), idx: r.expr(t.Idx)}

	case *moore.Slice:
		id, ok := t.X.(*moore.Ident)
		if !ok {
			r.fail(fmt.Errorf("unsupported assignment target"))
			return &lvalue{}
		}
		base := r.whole(id.Name)
		if t.Up {
			lv := &lvalue{kind: lvPart, base: base, idx: r.expr(t.Msb), w: r.partWidth(t.Lsb)}
			if lv.w <= 0 || lv.w > base.w {
				r.fail(fmt.Errorf("indexed part select width %d out of range", lv.w))
			}
			return lv
		}
		lsb, w := r.bounds(t.Msb, t.Lsb)
		return &lvalue{kind: lvSlice, base: base, lsb: lsb, w: w}

	case *moore.Concat:
		lv := &lvalue{kind: lvConcat}
		for _, part := range t.Parts {
			id, ok := part.(*moore.Ident)
			if !ok {
				r.fail(fmt.Errorf("concat target parts must be nets"))
				return lv
			}
			x := r.whole(id.Name)
			lv.parts = append(lv.parts, x)
			lv.w += x.w
		}
		return lv
	}
	r.fail(fmt.Errorf("unsupported assignment target %T", t))
	return &lvalue{}
}

// whole resolves the name a write stores to, whole or in part: a local or
// a net.
func (r *resolver) whole(name string) *expr {
	x := r.ident(name)
	if x.op != opLocal && x.op != opNet {
		r.fail(fmt.Errorf("assignment to unknown name %q", name))
	}
	return x
}

// ident resolves a name read: a local, a constant or a net, in that order.
func (r *resolver) ident(name string) *expr {
	if l, ok := r.local(name); ok {
		return &expr{op: opLocal, slot: l.slot, w: l.w, signed: l.signed}
	}
	if v, ok := r.consts[name]; ok {
		return &expr{op: opConst, k: v, w: 32}
	}
	if slot, ok := r.nets[name]; ok {
		return &expr{op: opNet, slot: slot, w: r.m.slotW[slot], signed: r.signed[slot]}
	}
	r.fail(fmt.Errorf("unknown identifier %q", name))
	return &expr{}
}

// constant folds a compile-time constant after checking the names in it.
func (r *resolver) constant(e moore.Expr) uint64 {
	r.expr(e)
	v, err := r.constEval(e)
	r.fail(err)
	return v
}

// partWidth folds the width of x[base +: w].
func (r *resolver) partWidth(e moore.Expr) int {
	r.expr(e)
	v, err := r.constEval(e)
	if err != nil {
		r.fail(fmt.Errorf("indexed part select width must be constant: %v", err))
	}
	return int(v)
}

// bounds folds the bounds of x[msb:lsb] to its lsb and width.
func (r *resolver) bounds(msbE, lsbE moore.Expr) (uint64, int) {
	msb, lsb := r.constant(msbE), r.constant(lsbE)
	if msb < lsb {
		msb, lsb = lsb, msb
	}
	return lsb, int(msb-lsb) + 1
}

func (r *resolver) exprs(es []moore.Expr) []*expr {
	out := make([]*expr, len(es))
	for i, e := range es {
		out[i] = r.expr(e)
	}
	return out
}

// expr compiles an expression.
func (r *resolver) expr(e moore.Expr) *expr {
	switch x := e.(type) {
	case *moore.Number:
		if x.Fill {
			return &expr{op: opConst, k: x.Value, w: 1, fill: true}
		}
		w := x.Width
		if w == 0 {
			w = 32
		}
		return &expr{op: opConst, k: mask(x.Value, w), w: w}

	case *moore.TimeLit:
		t, err := ir.ParseTime(x.Text)
		r.fail(err)
		return &expr{op: opTime, t: t}

	case *moore.StringLit:
		return &expr{op: opConst, w: 1}

	case *moore.Ident:
		return r.ident(x.Name)

	case *moore.Unary:
		o, ok := unaryOps[x.Op]
		if !ok {
			r.fail(fmt.Errorf("unsupported unary %q", x.Op))
		}
		return &expr{op: o, x: r.expr(x.X)}

	case *moore.Binary:
		o, ok := binaryOps[x.Op]
		if !ok {
			r.fail(fmt.Errorf("unsupported binary %q", x.Op))
		}
		return &expr{op: o, x: r.expr(x.X), y: r.expr(x.Y)}

	case *moore.Ternary:
		return &expr{op: opTernary, x: r.expr(x.Cond), y: r.expr(x.Then), z: r.expr(x.Else)}

	case *moore.Index:
		if id, ok := x.X.(*moore.Ident); ok {
			if i, isArr := r.arrays[id.Name]; isArr {
				return &expr{op: opArray, slot: i, w: r.m.arrays[i].width, x: r.expr(x.Idx), name: id.Name}
			}
		}
		return &expr{op: opBit, x: r.expr(x.X), y: r.expr(x.Idx)}

	case *moore.Slice:
		base := r.expr(x.X)
		if x.Up {
			return &expr{op: opPart, x: base, y: r.expr(x.Msb), w: r.partWidth(x.Lsb)}
		}
		lsb, w := r.bounds(x.Msb, x.Lsb)
		return &expr{op: opSlice, x: base, k: lsb, w: w}

	case *moore.Concat:
		return &expr{op: opConcat, args: r.exprs(x.Parts)}

	case *moore.Repl:
		n := r.constant(x.Count)
		return &expr{op: opRepl, x: r.expr(x.X), k: n}

	case *moore.CallExpr:
		return r.call(x)

	case *moore.IncDec:
		id, ok := x.X.(*moore.Ident)
		if !ok {
			r.fail(fmt.Errorf("++/-- target must be a variable"))
			return &expr{}
		}
		l, ok := r.local(id.Name)
		if !ok {
			r.ident(id.Name)
			r.fail(fmt.Errorf("++/-- target %q must be local", id.Name))
		}
		return &expr{op: opIncDec, slot: l.slot, w: l.w, signed: l.signed, dec: x.Op == "--", post: x.Post}
	}
	r.fail(fmt.Errorf("unsupported expression %T", e))
	return &expr{}
}

// call compiles system function and user function calls.
func (r *resolver) call(x *moore.CallExpr) *expr {
	switch x.Name {
	case "$display", "$write", "$info", "$warning":
		return &expr{op: opConst, w: 1}
	case "$signed", "$unsigned", "$clog2":
		if len(x.Args) != 1 {
			r.fail(fmt.Errorf("%s takes one argument", x.Name))
			return &expr{}
		}
	}
	fn, isFunc := r.funcs[x.Name]
	if !isFunc && !strings.HasPrefix(x.Name, "$") {
		r.fail(fmt.Errorf("unknown function %q", x.Name))
		return &expr{}
	}
	if isFunc {
		if fn.mayWait {
			r.fail(fmt.Errorf("%s may wait: call it as a statement or as the right side of a blocking assignment", x.Name))
		}
		return r.userCall(fn, x)
	}
	args := r.exprs(x.Args)
	switch x.Name {
	case "$signed", "$unsigned":
		return &expr{op: opSign, x: args[0], signed: x.Name == "$signed"}
	case "$time":
		return &expr{op: opNow}
	case "$clog2":
		v, err := r.constEval(x)
		r.fail(err)
		return &expr{op: opConst, k: v, w: 32}
	}
	r.fail(fmt.Errorf("unknown function %q", x.Name))
	return &expr{}
}

// userCall compiles a call of a module function.
func (r *resolver) userCall(fn *function, x *moore.CallExpr) *expr {
	args := r.exprs(x.Args)
	if len(args) < len(fn.argW) {
		r.fail(fmt.Errorf("%s called with too few arguments", x.Name))
	}
	return &expr{op: opCall, fn: fn, args: args}
}

// waitingCall compiles e when it is a call of a function that may wait,
// which runs under a call op; it returns nil for any other expression.
func (r *resolver) waitingCall(e moore.Expr) *expr {
	if c, ok := e.(*moore.CallExpr); ok {
		if fn := r.funcs[c.Name]; fn != nil && fn.mayWait {
			return r.userCall(fn, c)
		}
	}
	return nil
}

// ------------------------------------------------------------ constants

func (sc *scope) constEval(e moore.Expr) (uint64, error) {
	switch x := e.(type) {
	case nil:
		return 0, fmt.Errorf("svsim: nil constant")
	case *moore.Number:
		return x.Value, nil
	case *moore.Ident:
		if v, ok := sc.consts[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("svsim: %q is not a constant", x.Name)
	case *moore.Unary:
		v, err := sc.constEval(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *moore.Binary:
		a, err := sc.constEval(x.X)
		if err != nil {
			return 0, err
		}
		b, err := sc.constEval(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, fmt.Errorf("svsim: constant division by zero")
			}
			return a / b, nil
		case "<<":
			return a << b, nil
		case ">>":
			return a >> b, nil
		}
	case *moore.CallExpr:
		if x.Name == "$clog2" && len(x.Args) == 1 {
			v, err := sc.constEval(x.Args[0])
			if err != nil || v == 0 {
				return 0, err
			}
			return uint64(bits.Len64(v - 1)), nil
		}
	}
	return 0, fmt.Errorf("svsim: unsupported constant expression %T", e)
}

func (sc *scope) typeWidth(dt *moore.DataType) (int, error) {
	if dt == nil {
		return 1, nil
	}
	if (dt.Keyword == "int" || dt.Keyword == "integer") && dt.Msb == nil {
		return 32, nil
	}
	if dt.Keyword == "byte" && dt.Msb == nil {
		return 8, nil
	}
	if dt.Msb == nil {
		return 1, nil
	}
	msb, err := sc.constEval(dt.Msb)
	if err != nil {
		return 0, err
	}
	lsb, err := sc.constEval(dt.Lsb)
	if err != nil {
		return 0, err
	}
	if int64(msb) < int64(lsb) {
		msb, lsb = lsb, msb
	}
	return int(msb-lsb) + 1, nil
}
