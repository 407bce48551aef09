// Package fuzz implements generative differential fuzzing for the three
// LLHD execution engines: a seeded, deterministic random-design generator
// that emits well-typed ir.Modules exercising the full instruction
// surface, a cross-engine oracle that farms each design across
// {interpreter, blaze} × {unlowered, lowered} and diffs the observer
// streams, and an automatic shrinker that reduces a failing design to a
// minimal .llhd repro.
//
// The generator is the systematic continuation of the hand-picked Table 2
// matrix: PR 4's ten fixed designs exposed five latent lowering
// miscompiles, so this package manufactures thousands of structurally
// diverse designs — processes with phis, branches and bounded loops,
// entities with reactive bodies, regs, dels and cons, multi-instance
// hierarchies, function calls, var/ld/st memory form, the frontend's
// array-memory idiom (dynamic-index ld→insf→st and ld→extf on an array
// var inside process loops), aggregate signals with projected drives, and
// nine-valued logic vectors with x/z — and pins the engines against each
// other as mutually-checking oracles.
//
// Everything is deterministic by seed: Generate(Config{Seed: s}) returns
// byte-identical assembly for equal s, which makes every fuzzer finding a
// one-line repro (llhd-fuzz -seed s).
package fuzz

import (
	"fmt"
	"math/rand"

	"llhd/internal/ir"
	"llhd/internal/logic"
)

// Config parameterizes one generated design.
type Config struct {
	// Seed selects the design. Equal seeds generate identical modules.
	Seed int64
	// Budget is the approximate instruction budget; <= 0 means 48.
	Budget int
}

// DefaultBudget is the instruction budget used when Config.Budget is zero.
const DefaultBudget = 48

// Generate builds a random, well-typed, quiescing LLHD design: a top
// entity wiring script processes (timed stimulus that halts after a
// bounded number of steps), combinational observer processes, optional
// sub-entity hierarchy, reactive entity data flow, and optional reg / del
// / con netlist structure. The result always passes ir.Verify at the
// Behavioural level, and every simulation of it reaches quiescence.
func Generate(cfg Config) *ir.Module {
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	g := &gen{
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		m:    ir.NewModule(fmt.Sprintf("fuzz_%d", cfg.Seed)),
		fuel: budget,
	}
	g.pickTypes()
	g.genFuncs()
	g.genDesign()
	return g.m
}

// gen is the generator state. All randomness flows through rng; no map is
// ever iterated, so generation is deterministic by seed.
type gen struct {
	rng  *rand.Rand
	m    *ir.Module
	fuel int // remaining instruction budget (soft)

	intTypes   []*ir.Type // scalar int types for this design
	logicTypes []*ir.Type // logic vector types
	funcs      []*ir.Unit // generated callable functions

	// Per-unit state while a body is being generated.
	b       *ir.Builder
	pool    []ir.Value // values usable at the current insertion point
	sigIns  []*ir.Arg  // signal-typed inputs of the unit under generation
	vars    []*ir.Inst // var slots of the unit under generation
	mems    []*ir.Inst // array-typed var slots (register files, memories)
	nblocks int        // label counter
	inFunc  bool       // functions may not probe signals
}

func (g *gen) intn(n int) int { return g.rng.Intn(n) }

// chance rolls a 1-in-n event.
func (g *gen) chance(n int) bool { return g.rng.Intn(n) == 0 }

func (g *gen) pickTypes() {
	widths := []int{1, 2, 4, 7, 8, 13, 16, 32, 63, 64}
	g.rng.Shuffle(len(widths), func(i, j int) { widths[i], widths[j] = widths[j], widths[i] })
	n := 3 + g.intn(3)
	for _, w := range widths[:n] {
		g.intTypes = append(g.intTypes, ir.IntType(w))
	}
	// i1 is always available: conditions, compares, clock-ish signals.
	has1 := false
	for _, t := range g.intTypes {
		if t.Width == 1 {
			has1 = true
		}
	}
	if !has1 {
		g.intTypes = append(g.intTypes, ir.IntType(1))
	}
	for _, w := range []int{1, 4, 8} {
		if g.chance(2) {
			g.logicTypes = append(g.logicTypes, ir.LogicType(w))
		}
	}
	if len(g.logicTypes) == 0 {
		g.logicTypes = append(g.logicTypes, ir.LogicType(4))
	}
}

func (g *gen) intType() *ir.Type   { return g.intTypes[g.intn(len(g.intTypes))] }
func (g *gen) logicType() *ir.Type { return g.logicTypes[g.intn(len(g.logicTypes))] }

// widerThan returns an int type strictly wider than w, or nil.
func (g *gen) widerThan(w int) *ir.Type {
	cands := make([]*ir.Type, 0, len(g.intTypes))
	for _, t := range g.intTypes {
		if t.Width > w {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.intn(len(cands))]
}

// sigElemType picks an element type for a signal: mostly scalar ints,
// sometimes logic vectors, sometimes small aggregates.
func (g *gen) sigElemType() *ir.Type {
	switch g.intn(6) {
	case 0:
		return g.logicType()
	case 1:
		if g.chance(2) {
			return ir.ArrayType(2+g.intn(3), g.intType())
		}
		return ir.StructType(g.intType(), g.intType())
	default:
		return g.intType()
	}
}

// ---------------------------------------------------------------------------
// Pools and blocks

func (g *gen) poolAdd(v ir.Value) { g.pool = append(g.pool, v) }

// poolPick returns a pool value of exactly type ty, or nil.
func (g *gen) poolPick(ty *ir.Type) ir.Value {
	cands := make([]ir.Value, 0, 8)
	for _, v := range g.pool {
		if v.Type() == ty {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.intn(len(cands))]
}

func (g *gen) mark() int        { return len(g.pool) }
func (g *gen) restore(mark int) { g.pool = g.pool[:mark] }
func (g *gen) newBlock() *ir.Block {
	g.nblocks++
	return g.b.AddBlock(fmt.Sprintf("bb%d", g.nblocks))
}

// ---------------------------------------------------------------------------
// Constants

// constInt emits an integer constant of ty.
func (g *gen) constInt(ty *ir.Type) *ir.Inst {
	var v uint64
	switch g.intn(4) {
	case 0:
		v = uint64(g.intn(4)) // small values: 0..3
	case 1:
		v = ir.MaskWidth(^uint64(0), ty.Width) // all-ones
	case 2:
		v = 1 << uint(g.intn(ty.Width)) // single bit
	default:
		v = g.rng.Uint64()
	}
	return g.b.ConstInt(ty, v)
}

// constLogic emits a nine-valued logic constant, biased toward mixtures of
// 0/1 with x, z, u and weak values.
func (g *gen) constLogic(ty *ir.Type) *ir.Inst {
	alphabet := []logic.Value{logic.L0, logic.L1, logic.L0, logic.L1,
		logic.X, logic.Z, logic.U, logic.W, logic.WL, logic.WH, logic.DC}
	v := make(logic.Vector, ty.Width)
	for i := range v {
		v[i] = alphabet[g.intn(len(alphabet))]
	}
	return g.b.ConstLogic(v)
}

// constTime emits a time constant: mostly small positive physical delays,
// sometimes a pure delta step.
func (g *gen) constTime(allowZero bool) *ir.Inst {
	switch {
	case allowZero && g.chance(4):
		return g.b.ConstTime(ir.Time{}) // zero: lands in the next delta
	case allowZero && g.chance(6):
		return g.b.ConstTime(ir.Time{Delta: 1})
	default:
		return g.b.ConstTime(ir.Time{Fs: int64(1+g.intn(3)) * ir.Nanosecond})
	}
}

// constValue emits an elaboration-time-constant value of ty (for sig
// initializers): const instructions and aggregate literals of them.
func (g *gen) constValue(ty *ir.Type) ir.Value {
	switch ty.Kind {
	case ir.IntKind, ir.EnumKind:
		return g.constInt(ty)
	case ir.LogicKind:
		return g.constLogic(ty)
	case ir.TimeKind:
		return g.constTime(false)
	case ir.ArrayKind:
		elems := make([]ir.Value, ty.Width)
		for i := range elems {
			elems[i] = g.constValue(ty.Elem)
		}
		return g.b.Array(ty.Elem, elems...)
	case ir.StructKind:
		elems := make([]ir.Value, len(ty.Fields))
		for i, f := range ty.Fields {
			elems[i] = g.constValue(f)
		}
		return g.b.Struct(elems...)
	}
	panic("fuzz: constValue on " + ty.String())
}

// ---------------------------------------------------------------------------
// Expressions

// expr emits instructions computing a value of ty and returns it. depth
// bounds recursion; at depth 0 only leaves are produced.
func (g *gen) expr(ty *ir.Type, depth int) ir.Value {
	g.fuel--
	if depth <= 0 || g.fuel <= 0 {
		return g.leaf(ty)
	}
	switch ty.Kind {
	case ir.IntKind:
		return g.intExpr(ty, depth)
	case ir.LogicKind:
		return g.logicExpr(ty, depth)
	case ir.ArrayKind, ir.StructKind:
		return g.aggExpr(ty, depth)
	case ir.TimeKind:
		return g.constTime(true)
	}
	return g.leaf(ty)
}

// leaf returns a value of ty without recursion: a pool hit, a probe of a
// matching input signal, or a constant.
func (g *gen) leaf(ty *ir.Type) ir.Value {
	if v := g.poolPick(ty); v != nil && g.chance(2) {
		return v
	}
	if !g.inFunc && g.chance(2) {
		if sig := g.inputOfElem(ty); sig != nil {
			return g.b.Prb(sig)
		}
	}
	return g.constValue(ty)
}

// inputOfElem picks a signal input whose element type is ty, or nil.
func (g *gen) inputOfElem(ty *ir.Type) ir.Value {
	cands := make([]ir.Value, 0, 4)
	for _, a := range g.sigIns {
		if a.Type().Elem == ty {
			cands = append(cands, a)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.intn(len(cands))]
}

func (g *gen) intExpr(ty *ir.Type, depth int) ir.Value {
	switch g.intn(12) {
	case 0: // binary arithmetic / bitwise
		ops := []ir.Opcode{ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpAdd, ir.OpSub,
			ir.OpMul, ir.OpShl, ir.OpShr, ir.OpAshr}
		return g.b.Binary(ops[g.intn(len(ops))], g.expr(ty, depth-1), g.expr(ty, depth-1))
	case 1: // guarded division / modulo (divisor |= 1, so it never traps)
		ops := []ir.Opcode{ir.OpUdiv, ir.OpSdiv, ir.OpUmod, ir.OpSmod}
		one := g.b.ConstInt(ty, 1)
		div := g.b.Or(g.expr(ty, depth-1), one)
		return g.b.Binary(ops[g.intn(len(ops))], g.expr(ty, depth-1), div)
	case 2: // unary
		if g.chance(2) {
			return g.b.Not(g.expr(ty, depth-1))
		}
		return g.b.Neg(g.expr(ty, depth-1))
	case 3: // comparison producing i1
		if ty.Width != 1 {
			break
		}
		ops := []ir.Opcode{ir.OpEq, ir.OpNeq, ir.OpUlt, ir.OpUgt, ir.OpUle,
			ir.OpUge, ir.OpSlt, ir.OpSgt, ir.OpSle, ir.OpSge}
		oty := g.intType()
		return g.b.Compare(ops[g.intn(len(ops))], g.expr(oty, depth-1), g.expr(oty, depth-1))
	case 4: // logic equality producing i1
		if ty.Width != 1 {
			break
		}
		lty := g.logicType()
		op := ir.OpEq
		if g.chance(2) {
			op = ir.OpNeq
		}
		return g.b.Compare(op, g.expr(lty, depth-1), g.expr(lty, depth-1))
	case 5: // slice extract from a wider int
		if wide := g.widerThan(ty.Width); wide != nil {
			off := g.intn(wide.Width - ty.Width + 1)
			return g.b.ExtS(g.expr(wide, depth-1), off, ty.Width)
		}
	case 6: // slice insert (same width result)
		if ty.Width >= 2 {
			n := 1 + g.intn(ty.Width-1)
			off := g.intn(ty.Width - n + 1)
			return g.b.InsS(g.expr(ty, depth-1), g.expr(ir.IntType(n), depth-1), off, n)
		}
	case 7: // mux over an array literal
		n := 2 + g.intn(3)
		elems := make([]ir.Value, n)
		for i := range elems {
			elems[i] = g.expr(ty, depth-1)
		}
		arr := g.b.Array(ty, elems...)
		return g.b.Mux(arr, g.expr(g.intType(), depth-1))
	case 8: // static element extract from an array literal
		n := 2 + g.intn(2)
		elems := make([]ir.Value, n)
		for i := range elems {
			elems[i] = g.expr(ty, depth-1)
		}
		arr := g.b.Array(ty, elems...)
		return g.b.ExtF(arr, g.intn(n))
	case 9: // dynamic element extract (exercises the Imm0/dynamic distinction)
		n := 2 + g.intn(2)
		elems := make([]ir.Value, n)
		for i := range elems {
			elems[i] = g.expr(ty, depth-1)
		}
		arr := g.b.Array(ty, elems...)
		return g.b.ExtFDyn(arr, g.expr(g.intType(), depth-1))
	case 10: // function call
		if f := g.funcReturning(ty); f != nil {
			args := make([]ir.Value, len(f.Inputs))
			for i, a := range f.Inputs {
				args[i] = g.expr(a.Type(), depth-1)
			}
			return g.b.Call(ty, f.Name, args...)
		}
	case 11: // load from a var slot, or read an element of an array var
		m, v := g.memOf(ty), g.varOf(ty)
		if m != nil && (v == nil || g.chance(2)) {
			return g.b.ExtFDyn(g.b.Ld(m), g.memIndex(m))
		}
		if v != nil {
			return g.b.Ld(v)
		}
	}
	return g.leaf(ty)
}

func (g *gen) logicExpr(ty *ir.Type, depth int) ir.Value {
	switch g.intn(5) {
	case 0:
		return g.b.Not(g.expr(ty, depth-1))
	case 1, 2:
		ops := []ir.Opcode{ir.OpAnd, ir.OpOr, ir.OpXor}
		return g.b.Binary(ops[g.intn(len(ops))], g.expr(ty, depth-1), g.expr(ty, depth-1))
	case 3: // slice insert within the vector
		if ty.Width >= 2 {
			n := 1 + g.intn(ty.Width-1)
			off := g.intn(ty.Width - n + 1)
			return g.b.InsS(g.expr(ty, depth-1), g.expr(ir.LogicType(n), depth-1), off, n)
		}
	}
	return g.leaf(ty)
}

func (g *gen) aggExpr(ty *ir.Type, depth int) ir.Value {
	switch g.intn(4) {
	case 0: // literal
		if ty.IsArray() {
			elems := make([]ir.Value, ty.Width)
			for i := range elems {
				elems[i] = g.expr(ty.Elem, depth-1)
			}
			return g.b.Array(ty.Elem, elems...)
		}
		elems := make([]ir.Value, len(ty.Fields))
		for i, f := range ty.Fields {
			elems[i] = g.expr(f, depth-1)
		}
		return g.b.Struct(elems...)
	case 1: // static insert
		if ty.IsArray() {
			return g.b.InsF(g.expr(ty, depth-1), g.expr(ty.Elem, depth-1), g.intn(ty.Width))
		}
		i := g.intn(len(ty.Fields))
		return g.b.InsF(g.expr(ty, depth-1), g.expr(ty.Fields[i], depth-1), i)
	case 2: // dynamic insert into an array
		if ty.IsArray() {
			return g.b.InsFDyn(g.expr(ty, depth-1), g.expr(ty.Elem, depth-1), g.expr(g.intType(), depth-1))
		}
	}
	return g.leaf(ty)
}

// funcReturning picks a generated function with return type ty, or nil.
func (g *gen) funcReturning(ty *ir.Type) *ir.Unit {
	if g.inFunc || g.b.Unit().Kind == ir.UnitEntity {
		// No calls from functions (keeps the generated call graph acyclic)
		// and none from entity bodies (entities are pure data flow).
		return nil
	}
	cands := make([]*ir.Unit, 0, 2)
	for _, f := range g.funcs {
		if f.RetType == ty {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.intn(len(cands))]
}

// varOf picks a var slot holding ty, or nil.
func (g *gen) varOf(ty *ir.Type) *ir.Inst {
	return g.pickSlot(g.vars, func(held *ir.Type) bool { return held == ty })
}

// memOf picks an array var whose elements are ty, or nil.
func (g *gen) memOf(ty *ir.Type) *ir.Inst {
	return g.pickSlot(g.mems, func(held *ir.Type) bool { return held.Elem == ty })
}

// pickSlot picks one of the var slots whose held type satisfies holds.
func (g *gen) pickSlot(slots []*ir.Inst, holds func(held *ir.Type) bool) *ir.Inst {
	cands := make([]*ir.Inst, 0, 2)
	for _, v := range slots {
		if holds(v.Type().Elem) {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.intn(len(cands))]
}

// newMem emits an array var: the memory form the Moore frontend gives
// unpacked arrays (register files, FIFOs, instruction memories).
func (g *gen) newMem() {
	ty := ir.ArrayType(2<<uint(g.intn(3)), g.intType())
	g.mems = append(g.mems, g.b.Var(g.constValue(ty)))
}

// memIndex emits a run-time index into array var m. Most stay in range;
// the rest exercise the clamp-on-read / drop-on-write rule, up to
// all-ones indices in the widest type (the unsigned compare).
func (g *gen) memIndex(m *ir.Inst) ir.Value {
	idx := g.expr(g.intType(), 2)
	if g.chance(4) {
		return idx
	}
	n := m.Type().Elem.Width
	return g.b.And(idx, g.b.ConstInt(idx.Type(), uint64(n-1)))
}

// memWrite emits the frontend's array write: ld, dynamic insf, st.
func (g *gen) memWrite(m *ir.Inst) {
	cur := g.b.Ld(m)
	g.b.St(m, g.b.InsFDyn(cur, g.expr(m.Type().Elem.Elem, 2), g.memIndex(m)))
}

// ---------------------------------------------------------------------------
// Structured statements: diamonds and bounded loops

// diamond emits an if/else region merging one value of ty via a phi and
// returns the phi. The builder ends positioned at the merge block.
func (g *gen) diamond(ty *ir.Type) ir.Value {
	cond := g.expr(ir.IntType(1), 2)
	bbT, bbF, bbM := g.newBlock(), g.newBlock(), g.newBlock()
	g.b.BrCond(cond, bbF, bbT)

	m := g.mark()
	g.b.SetBlock(bbT)
	vT := g.expr(ty, 2)
	g.maybeStore()
	g.b.Br(bbM)
	g.restore(m)

	g.b.SetBlock(bbF)
	vF := g.expr(ty, 2)
	g.b.Br(bbM)
	g.restore(m)

	g.b.SetBlock(bbM)
	phi := g.b.Phi(ty, []ir.Value{vT, vF}, []*ir.Block{bbT, bbF})
	g.poolAdd(phi)
	return phi
}

// loop emits a bounded counting loop. Each iteration accumulates a value
// of ty through a phi; if timed is true the loop suspends on a wait with a
// timeout every iteration (so iterations are spread over simulated time),
// otherwise it runs in zero time. It returns the final accumulator, with
// the builder positioned at the exit block.
func (g *gen) loop(ty *ir.Type, timed bool, body func(iter, acc ir.Value)) ir.Value {
	cnt := ir.IntType(8)
	zero := g.b.ConstInt(cnt, 0)
	one := g.b.ConstInt(cnt, 1)
	limit := g.b.ConstInt(cnt, uint64(2+g.intn(3)))
	acc0 := g.expr(ty, 2)
	pre := g.b.Block()
	hdr, lat, exit := g.newBlock(), g.newBlock(), g.newBlock()
	g.b.Br(hdr)

	g.b.SetBlock(hdr)
	i := g.b.Phi(cnt, []ir.Value{zero, nil}, []*ir.Block{pre, lat})
	acc := g.b.Phi(ty, []ir.Value{acc0, nil}, []*ir.Block{pre, lat})
	g.poolAdd(i)
	g.poolAdd(acc)
	if body != nil {
		body(i, acc)
	}
	accN := g.expr(ty, 2)
	if timed {
		g.b.Wait(lat, g.constTime(false))
	} else {
		g.b.Br(lat)
	}

	g.b.SetBlock(lat)
	iN := g.b.Add(i, one)
	c := g.b.Ult(iN, limit)
	g.b.BrCond(c, exit, hdr)
	i.Args[1] = iN
	acc.Args[1] = accN

	g.b.SetBlock(exit)
	return acc
}

// maybeStore occasionally stores a random expression into a var slot, and
// occasionally writes one element of an array var.
func (g *gen) maybeStore() {
	if len(g.mems) > 0 && g.chance(2) {
		g.memWrite(g.mems[g.intn(len(g.mems))])
	}
	if len(g.vars) == 0 || !g.chance(3) {
		return
	}
	v := g.vars[g.intn(len(g.vars))]
	g.b.St(v, g.expr(v.Type().Elem, 2))
}

// maybeDrivePart occasionally follows a drive of an aggregate signal with
// a drive of one element or field through an extf projection of the
// signal, the partial-access form of §2.5.6.
func (g *gen) maybeDrivePart(sig ir.Value) {
	ty := sig.Type().Elem
	n := 0
	switch {
	case ty.IsArray():
		n = ty.Width
	case ty.IsStruct():
		n = len(ty.Fields)
	}
	if n == 0 || !g.chance(2) {
		return
	}
	part := g.b.ExtF(sig, g.intn(n))
	g.b.Drv(part, g.expr(part.Type().Elem, 2), g.constTime(true), nil)
}

// ---------------------------------------------------------------------------
// Functions

func (g *gen) genFuncs() {
	n := g.intn(3)
	for fi := 0; fi < n; fi++ {
		ret := g.intType()
		u := ir.NewUnit(ir.UnitFunc, fmt.Sprintf("f%d", fi))
		u.RetType = ret
		nParams := 1 + g.intn(2)
		for p := 0; p < nParams; p++ {
			u.AddInput(fmt.Sprintf("a%d", p), g.intType())
		}
		entry := u.AddBlock("entry")
		g.startUnit(u, entry, true)
		for _, a := range u.Inputs {
			g.poolAdd(a)
		}
		// Optional stack slot (function frames pool these).
		if g.chance(2) {
			slot := g.b.Var(g.constValue(g.intType()))
			g.vars = append(g.vars, slot)
		}
		if g.chance(4) {
			g.newMem()
		}
		// A couple of statements.
		switch g.intn(3) {
		case 0:
			g.poolAdd(g.expr(ret, 3))
		case 1:
			g.diamond(ret)
		case 2:
			g.loop(ret, false, func(iter, acc ir.Value) { g.maybeStore() })
		}
		g.maybeStore()
		g.b.Ret(g.expr(ret, 2))
		g.m.MustAdd(u)
		g.funcs = append(g.funcs, u)
	}
}

// startUnit resets per-unit state and positions the builder.
func (g *gen) startUnit(u *ir.Unit, blk *ir.Block, isFunc bool) {
	g.b = ir.NewBuilder(u)
	g.b.SetBlock(blk)
	g.pool = g.pool[:0]
	g.sigIns = nil
	g.vars = nil
	g.mems = nil
	g.nblocks = 0
	g.inFunc = isFunc
}

// ---------------------------------------------------------------------------
// Processes

// procSig describes a generated process signature.
type procSig struct {
	unit *ir.Unit
	ins  []*ir.Type // signal element types
	outs []*ir.Type
}

// genScriptProc builds a timed stimulus process: a bounded script of
// steps, each computing values and driving outputs, separated by waits
// with timeouts; the process halts at the end, guaranteeing quiescence.
func (g *gen) genScriptProc(name string, ins, outs []*ir.Type) *ir.Unit {
	u := ir.NewUnit(ir.UnitProc, name)
	for i, ty := range ins {
		u.AddInput(fmt.Sprintf("i%d", i), ir.SignalType(ty))
	}
	for i, ty := range outs {
		u.AddOutput(fmt.Sprintf("o%d", i), ir.SignalType(ty))
	}
	entry := u.AddBlock("entry")
	g.startUnit(u, entry, false)
	g.sigIns = append(g.sigIns, u.Inputs...)

	// Var slots: the memory form mem2reg works on.
	for v := g.intn(3); v > 0; v-- {
		slot := g.b.Var(g.constValue(g.intType()))
		g.vars = append(g.vars, slot)
	}
	if g.chance(2) {
		g.newMem()
	}

	steps := 2 + g.intn(3)
	for s := 0; s < steps && g.fuel > 0; s++ {
		out := u.Outputs[g.intn(len(u.Outputs))]
		ety := out.Type().Elem
		var v ir.Value
		switch g.intn(4) {
		case 0:
			v = g.diamond(ety)
		case 1:
			v = g.loop(ety, g.chance(2), func(iter, acc ir.Value) {
				if g.chance(2) {
					o2 := u.Outputs[g.intn(len(u.Outputs))]
					g.b.Drv(o2, g.expr(o2.Type().Elem, 2), g.constTime(true), nil)
				}
				g.maybeStore()
			})
		default:
			v = g.expr(ety, 3)
		}
		g.maybeStore()
		var cond ir.Value
		if g.chance(4) {
			cond = g.expr(ir.IntType(1), 2)
		}
		g.b.Drv(out, v, g.constTime(true), cond)
		g.poolAdd(v)
		g.maybeDrivePart(out)

		// Advance time: wait with a timeout, sometimes also observing the
		// process's input signals.
		next := g.newBlock()
		var observed []ir.Value
		if len(u.Inputs) > 0 && g.chance(3) {
			observed = append(observed, u.Inputs[g.intn(len(u.Inputs))])
		}
		g.b.Wait(next, g.constTime(false), observed...)
		g.b.SetBlock(next)
	}
	g.b.Halt()
	g.m.MustAdd(u)
	return u
}

// genCombProc builds a combinational observer process: an endless
// probe-compute-drive loop suspended on its input sensitivity list. It
// quiesces as soon as its inputs stop changing (it never drives a change
// back into its own inputs).
func (g *gen) genCombProc(name string, ins, outs []*ir.Type) *ir.Unit {
	u := ir.NewUnit(ir.UnitProc, name)
	for i, ty := range ins {
		u.AddInput(fmt.Sprintf("i%d", i), ir.SignalType(ty))
	}
	for i, ty := range outs {
		u.AddOutput(fmt.Sprintf("o%d", i), ir.SignalType(ty))
	}
	entry := u.AddBlock("entry")
	g.startUnit(u, entry, false)
	g.sigIns = append(g.sigIns, u.Inputs...)

	for v := g.intn(2); v > 0; v-- {
		slot := g.b.Var(g.constValue(g.intType()))
		g.vars = append(g.vars, slot)
	}
	if g.chance(3) {
		g.newMem()
	}
	work := g.newBlock()
	g.b.Br(work)
	g.b.SetBlock(work)
	mark := g.mark()

	// Probe every input once (ECM-style single-block combinational shape).
	probes := make([]ir.Value, len(u.Inputs))
	for i, a := range u.Inputs {
		probes[i] = g.b.Prb(a)
		g.poolAdd(probes[i])
	}
	for _, out := range u.Outputs {
		ety := out.Type().Elem
		var v ir.Value
		switch g.intn(3) {
		case 0:
			v = g.diamond(ety)
		case 1:
			v = g.loop(ety, false, nil) // zero-time bounded inner loop
		default:
			v = g.expr(ety, 3)
		}
		g.maybeStore()
		g.b.Drv(out, v, g.constTime(true), nil)
		g.maybeDrivePart(out)
	}
	// Suspend on the inputs; values computed this round don't survive into
	// the next (the pool is restored), matching SSA dominance: the wait
	// resumes in a fresh block that loops back to work.
	back := g.newBlock()
	ob := make([]ir.Value, len(u.Inputs))
	for i, a := range u.Inputs {
		ob[i] = a
	}
	g.b.Wait(back, nil, ob...)
	g.b.SetBlock(back)
	g.b.Br(work)
	g.restore(mark)
	g.m.MustAdd(u)
	return u
}

// ---------------------------------------------------------------------------
// Top-level design

// topSig is one planned signal in the top entity.
type topSig struct {
	name   string
	ty     *ir.Type // element type
	sig    *ir.Inst // the sig instruction
	driven bool     // already has a driver (single-driver discipline)
}

func (g *gen) genDesign() {
	top := ir.NewUnit(ir.UnitEntity, "top")
	g.startUnit(top, top.Body(), false)

	var sigs []*topSig
	newSig := func(prefix string, ty *ir.Type, driven bool) *topSig {
		s := g.b.Sig(g.constValue(ty))
		s.SetName(fmt.Sprintf("%s%d", prefix, len(sigs)))
		ts := &topSig{name: s.ValueName(), ty: ty, sig: s, driven: driven}
		sigs = append(sigs, ts)
		return ts
	}
	// pickDriven returns a driven signal of ty (creating none); nil if none.
	pickDriven := func(ty *ir.Type) *topSig {
		cands := make([]*topSig, 0, 4)
		for _, s := range sigs {
			if s.driven && (ty == nil || s.ty == ty) {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[g.intn(len(cands))]
	}

	// Script (stimulus) processes, some instantiated twice on distinct
	// output nets.
	nScript := 1 + g.intn(2)
	var scripts []procSig
	for i := 0; i < nScript; i++ {
		var ins, outs []*ir.Type
		for k := 1 + g.intn(3); k > 0; k-- {
			outs = append(outs, g.sigElemType())
		}
		for k := g.intn(2); k > 0 && len(sigs) > 0; k-- {
			if s := pickDriven(nil); s != nil {
				ins = append(ins, s.ty)
			}
		}
		u := g.genScriptProc(fmt.Sprintf("sp%d", i), ins, outs)
		scripts = append(scripts, procSig{unit: u, ins: ins, outs: outs})

		instances := 1
		if g.chance(3) {
			instances = 2 // multi-instance: same unit, distinct nets
		}
		// Re-enter the top builder (genScriptProc moved it away).
		g.startUnit(top, top.Body(), false)
		for inst := 0; inst < instances; inst++ {
			var inVals, outVals []ir.Value
			for _, ty := range ins {
				s := pickDriven(ty)
				if s == nil {
					s = newSig("s", ty, false)
				}
				inVals = append(inVals, s.sig)
			}
			for _, ty := range outs {
				outVals = append(outVals, newSig("s", ty, true).sig)
			}
			g.b.Instantiate(u.Name, inVals, outVals)
		}
	}

	// Combinational observer processes; one may be wrapped in a sub-entity
	// to deepen the hierarchy, and one may be instantiated twice.
	nComb := g.intn(3)
	for i := 0; i < nComb; i++ {
		var ins []*ir.Type
		for k := 1 + g.intn(2); k > 0; k-- {
			s := pickDriven(nil)
			if s == nil {
				break
			}
			ins = append(ins, s.ty)
		}
		if len(ins) == 0 {
			continue
		}
		outs := []*ir.Type{g.sigElemType()}
		u := g.genCombProc(fmt.Sprintf("cp%d", i), ins, outs)
		g.startUnit(top, top.Body(), false)

		wrap := g.chance(3)
		callee := u.Name
		if wrap {
			callee = g.genSubEntity(fmt.Sprintf("sub%d", i), u, ins, outs)
			g.startUnit(top, top.Body(), false)
		}
		instances := 1
		if g.chance(3) {
			instances = 2
		}
		for inst := 0; inst < instances; inst++ {
			var inVals, outVals []ir.Value
			ok := true
			for _, ty := range ins {
				s := pickDriven(ty)
				if s == nil {
					ok = false
					break
				}
				inVals = append(inVals, s.sig)
			}
			if !ok {
				break
			}
			for _, ty := range outs {
				outVals = append(outVals, newSig("k", ty, true).sig)
			}
			g.b.Instantiate(callee, inVals, outVals)
		}
	}

	// Reactive data flow directly in the top entity body: probe a driven
	// signal, compute, drive a fresh sink.
	for r := g.intn(3); r > 0; r-- {
		src := pickDriven(nil)
		if src == nil {
			break
		}
		sink := newSig("e", src.ty, true)
		p := g.b.Prb(src.sig)
		g.poolAdd(p)
		v := g.expr(src.ty, 2)
		g.b.Drv(sink.sig, v, g.constTime(true), nil)
	}

	// Netlist structure: transport delay, connection, register.
	if src := pickDriven(nil); src != nil && g.chance(2) {
		sink := newSig("d", src.ty, true)
		g.b.Del(sink.sig, src.sig, g.constTime(false))
	}
	if src := pickDriven(nil); src != nil && g.chance(3) {
		sink := newSig("c", src.ty, true)
		g.b.Con(src.sig, sink.sig)
	}
	if g.chance(2) {
		if clk := pickDriven(ir.IntType(1)); clk != nil {
			if data := pickDriven(nil); data != nil {
				sink := newSig("r", data.ty, true)
				modes := []ir.RegMode{ir.RegRise, ir.RegFall, ir.RegBoth, ir.RegHigh, ir.RegLow}
				trig := ir.RegTrigger{
					Mode:    modes[g.intn(len(modes))],
					Value:   g.b.Prb(data.sig),
					Trigger: g.b.Prb(clk.sig),
				}
				if g.chance(3) {
					trig.Gate = g.b.Prb(clk.sig)
				}
				var delay ir.Value
				if g.chance(2) {
					delay = g.constTime(false)
				}
				g.b.Reg(sink.sig, delay, trig)
			}
		}
	}

	g.m.MustAdd(top)
}

// genSubEntity wraps proc u in an entity with matching ports, deepening
// the elaborated hierarchy by one level.
func (g *gen) genSubEntity(name string, u *ir.Unit, ins, outs []*ir.Type) string {
	sub := ir.NewUnit(ir.UnitEntity, name)
	for i, ty := range ins {
		sub.AddInput(fmt.Sprintf("x%d", i), ir.SignalType(ty))
	}
	for i, ty := range outs {
		sub.AddOutput(fmt.Sprintf("y%d", i), ir.SignalType(ty))
	}
	g.startUnit(sub, sub.Body(), false)
	inVals := make([]ir.Value, len(sub.Inputs))
	for i, a := range sub.Inputs {
		inVals[i] = a
	}
	outVals := make([]ir.Value, len(sub.Outputs))
	for i, a := range sub.Outputs {
		outVals[i] = a
	}
	g.b.Instantiate(u.Name, inVals, outVals)
	// Occasionally add an internal tap: a local signal fed by a transport
	// delay from the first input.
	if len(sub.Inputs) > 0 && g.chance(3) {
		a := sub.Inputs[0]
		tap := g.b.Sig(g.constValue(a.Type().Elem))
		tap.SetName("tap")
		g.b.Del(tap, a, g.constTime(false))
	}
	g.m.MustAdd(sub)
	return name
}
