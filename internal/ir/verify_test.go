package ir

import (
	"strings"
	"testing"

	"llhd/internal/logic"
)

// vt builds a process with one i8 output signal and an empty entry block,
// the scaffold most rules are exercised on.
func vtProc() (*Unit, *Block) {
	u := NewUnit(UnitProc, "p")
	u.AddOutput("q", SignalType(IntType(8)))
	return u, u.AddBlock("entry")
}

func mod(units ...*Unit) *Module {
	m := NewModule("t")
	for _, u := range units {
		m.MustAdd(u)
	}
	return m
}

func halt() *Inst { return &Inst{Op: OpHalt, Ty: VoidType()} }

// expectProblem verifies the module at the level and asserts one problem
// mentions every fragment — the anchored unit/block/inst naming contract
// the fuzzer and shrinker act on.
func expectProblem(t *testing.T, m *Module, level Level, fragments ...string) {
	t.Helper()
	err := Verify(m, level)
	if err == nil {
		t.Fatalf("Verify(%v) passed, want problem mentioning %q", level, fragments)
	}
	ve, ok := err.(*VerifyError)
	if !ok {
		t.Fatalf("error is %T, want *VerifyError", err)
	}
	for _, p := range ve.Problems {
		all := true
		for _, f := range fragments {
			if !strings.Contains(p, f) {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	t.Fatalf("no problem mentions all of %q; got:\n  %s", fragments, strings.Join(ve.Problems, "\n  "))
}

func TestVerifyLevelRestrictsToEntities(t *testing.T) {
	u, b := vtProc()
	b.Append(halt())
	expectProblem(t, mod(u), Structural, "@p", "permits only entities")
}

func TestVerifyProcInputMustBeSignal(t *testing.T) {
	u, b := vtProc()
	u.AddInput("x", IntType(8))
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "input", "must be a signal")
}

func TestVerifyProcOutputMustBeSignal(t *testing.T) {
	u := NewUnit(UnitProc, "p")
	u.AddOutput("q", IntType(8))
	u.AddBlock("entry").Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "output", "must be a signal")
}

func TestVerifyFunctionHasNoOutputs(t *testing.T) {
	u := NewUnit(UnitFunc, "f")
	u.RetType = VoidType()
	u.AddOutput("q", SignalType(IntType(1)))
	b := u.AddBlock("entry")
	b.Append(&Inst{Op: OpRet, Ty: VoidType()})
	expectProblem(t, mod(u), Behavioural, "@f", "no output arguments")
}

func TestVerifyEntitySingleBlock(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	u.AddBlock("extra")
	expectProblem(t, mod(u), Behavioural, "@e", "exactly one implicit block")
}

func TestVerifyEntityRejectsTerminators(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	u.Body().Append(halt())
	expectProblem(t, mod(u), Behavioural, "@e", "(halt)", "illegal in entity units")
}

func TestVerifyNetlistRestrictsEntityOps(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	b := NewBuilder(u)
	k := b.ConstInt(IntType(8), 1)
	b.Add(k, k)
	expectProblem(t, mod(u), Netlist, "@e", "not allowed in entity at netlist level")
}

func TestVerifyUnitNeedsBlocks(t *testing.T) {
	u := NewUnit(UnitProc, "p")
	expectProblem(t, mod(u), Behavioural, "@p", "no blocks")
}

func TestVerifyBlockNeedsTerminator(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	nb.ConstInt(IntType(8), 0)
	expectProblem(t, mod(u), Behavioural, "@p", "%entry", "lacks a terminator")
}

func TestVerifyTerminatorMidBlock(t *testing.T) {
	u, b := vtProc()
	b.Append(halt())
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%entry", "middle of block")
}

func TestVerifyFunctionRejectsTimedOps(t *testing.T) {
	u := NewUnit(UnitFunc, "f")
	u.RetType = VoidType()
	b := u.AddBlock("entry")
	b.Append(&Inst{Op: OpHalt, Ty: VoidType()})
	expectProblem(t, mod(u), Behavioural, "@f", "(halt)", "illegal in func units")
}

func TestVerifyProcessRejectsRet(t *testing.T) {
	u, b := vtProc()
	b.Append(&Inst{Op: OpRet, Ty: VoidType()})
	expectProblem(t, mod(u), Behavioural, "@p", "(ret)", "illegal in proc units")
}

func TestVerifyProcessRejectsEntityOps(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	k := nb.ConstInt(IntType(1), 0)
	nb.Sig(k)
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "(sig)", "illegal in proc units")
}

func TestVerifyPhiArityMismatch(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	k := nb.ConstInt(IntType(8), 0)
	next := u.AddBlock("next")
	nb.Br(next)
	phi := &Inst{Op: OpPhi, Ty: IntType(8), Args: []Value{k}, Dests: []*Block{b, next}}
	phi.SetName("bad")
	next.Append(phi)
	next.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%bad", "phi", "%next", "arity mismatch")
}

func TestVerifyPhiNonPredecessor(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	k := nb.ConstInt(IntType(8), 0)
	next := u.AddBlock("next")
	other := u.AddBlock("other")
	nb.Br(next)
	phi := &Inst{Op: OpPhi, Ty: IntType(8), Args: []Value{k}, Dests: []*Block{other}}
	phi.SetName("bad")
	next.Append(phi)
	next.Append(halt())
	other.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%bad", "%next", "non-predecessor %other")
}

func TestVerifyCallUndefined(t *testing.T) {
	u, b := vtProc()
	b.Append(&Inst{Op: OpCall, Ty: VoidType(), Callee: "nope"})
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "call to undefined @nope")
}

func TestVerifyInstUndefined(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	u.Body().Append(&Inst{Op: OpInst, Ty: VoidType(), Callee: "ghost"})
	expectProblem(t, mod(u), Behavioural, "@e", "inst of undefined @ghost")
}

func TestVerifyConstLogicWidth(t *testing.T) {
	u, b := vtProc()
	bad := &Inst{Op: OpConstLogic, Ty: LogicType(4), LVal: logic.Vector{logic.L0}}
	bad.SetName("lv")
	b.Append(bad)
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%lv", "%entry", "width 1 does not match type l4")
}

func TestVerifyDrvRules(t *testing.T) {
	t.Run("arg count", func(t *testing.T) {
		u, b := vtProc()
		b.Append(&Inst{Op: OpDrv, Ty: VoidType()})
		b.Append(halt())
		expectProblem(t, mod(u), Behavioural, "@p", "(drv)", "%entry", "takes 3 to 4 operands, has 0")
	})
	t.Run("value type", func(t *testing.T) {
		u, b := vtProc()
		nb := NewBuilder(u)
		nb.SetBlock(b)
		v := nb.ConstInt(IntType(4), 0)
		d := nb.ConstTime(Time{})
		b.Append(&Inst{Op: OpDrv, Ty: VoidType(), Args: []Value{u.Outputs[0], v, d}})
		b.Append(halt())
		expectProblem(t, mod(u), Behavioural, "@p", "(drv)", "value type i4 does not match signal")
	})
	t.Run("delay type", func(t *testing.T) {
		u, b := vtProc()
		nb := NewBuilder(u)
		nb.SetBlock(b)
		v := nb.ConstInt(IntType(8), 0)
		b.Append(&Inst{Op: OpDrv, Ty: VoidType(), Args: []Value{u.Outputs[0], v, v}})
		b.Append(halt())
		expectProblem(t, mod(u), Behavioural, "@p", "(drv)", "delay must be time")
	})
	t.Run("cond type", func(t *testing.T) {
		u, b := vtProc()
		nb := NewBuilder(u)
		nb.SetBlock(b)
		v := nb.ConstInt(IntType(8), 0)
		d := nb.ConstTime(Time{})
		b.Append(&Inst{Op: OpDrv, Ty: VoidType(), Args: []Value{u.Outputs[0], v, d, v}})
		b.Append(halt())
		expectProblem(t, mod(u), Behavioural, "@p", "(drv)", "condition must be i1")
	})
}

func TestVerifyPrbNeedsSignal(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	k := nb.ConstInt(IntType(8), 0)
	bad := &Inst{Op: OpPrb, Ty: IntType(8), Args: []Value{k}}
	bad.SetName("px")
	b.Append(bad)
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%px", "prb needs one signal operand")
}

func TestVerifyRegRules(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	nb := NewBuilder(u)
	z := nb.ConstInt(IntType(8), 0)
	sig := nb.Sig(z)
	w := nb.ConstInt(IntType(4), 0)
	u.Body().Append(&Inst{Op: OpReg, Ty: VoidType(), Args: []Value{sig},
		Triggers: []RegTrigger{{Mode: RegRise, Value: w, Trigger: w, Gate: w}}})
	m := mod(u)
	expectProblem(t, m, Behavioural, "@e", "(reg)", "stored value type i4 does not match")
	expectProblem(t, m, Behavioural, "@e", "(reg)", "trigger must be i1")
	expectProblem(t, m, Behavioural, "@e", "(reg)", "gate must be i1")
}

func TestVerifyBrRules(t *testing.T) {
	t.Run("malformed", func(t *testing.T) {
		u, b := vtProc()
		b.Append(&Inst{Op: OpBr, Ty: VoidType()})
		expectProblem(t, mod(u), Behavioural, "@p", "(br)", "takes 1 to 2 destination blocks, has 0")
	})
	t.Run("cond type", func(t *testing.T) {
		u, b := vtProc()
		nb := NewBuilder(u)
		nb.SetBlock(b)
		k := nb.ConstInt(IntType(8), 0)
		x, y := u.AddBlock("x1"), u.AddBlock("y1")
		b.Append(&Inst{Op: OpBr, Ty: VoidType(), Args: []Value{k}, Dests: []*Block{x, y}})
		x.Append(halt())
		y.Append(halt())
		expectProblem(t, mod(u), Behavioural, "@p", "(br)", "condition must be i1")
	})
}

func TestVerifyWaitRules(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	k := nb.ConstInt(IntType(8), 3)
	next := u.AddBlock("next")
	b.Append(&Inst{Op: OpWait, Ty: VoidType(), Dests: []*Block{next}, TimeArg: k, Args: []Value{k}})
	next.Append(halt())
	m := mod(u)
	expectProblem(t, m, Behavioural, "@p", "(wait)", "timeout must be time")
	expectProblem(t, m, Behavioural, "@p", "(wait)", "observes non-signal")
}

func TestVerifyMuxNeedsArray(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	k := nb.ConstInt(IntType(8), 0)
	bad := &Inst{Op: OpMux, Ty: IntType(8), Args: []Value{k, k}}
	bad.SetName("m")
	b.Append(bad)
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%m", "mux needs array and selector")
}

func TestVerifyMemoryRules(t *testing.T) {
	t.Run("ld", func(t *testing.T) {
		u, b := vtProc()
		nb := NewBuilder(u)
		nb.SetBlock(b)
		k := nb.ConstInt(IntType(8), 0)
		b.Append(&Inst{Op: OpLd, Ty: IntType(8), Args: []Value{k}})
		b.Append(halt())
		expectProblem(t, mod(u), Behavioural, "@p", "(ld)", "needs one pointer operand")
	})
	t.Run("st type", func(t *testing.T) {
		u, b := vtProc()
		nb := NewBuilder(u)
		nb.SetBlock(b)
		k := nb.ConstInt(IntType(8), 0)
		v := nb.Var(k)
		w := nb.ConstInt(IntType(4), 0)
		b.Append(&Inst{Op: OpSt, Ty: VoidType(), Args: []Value{v, w}})
		b.Append(halt())
		expectProblem(t, mod(u), Behavioural, "@p", "(st)", "value type i4 does not match pointer")
	})
}

func TestVerifyBinaryOperandTypes(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	a := nb.ConstInt(IntType(8), 1)
	c := nb.ConstInt(IntType(4), 1)
	bad := &Inst{Op: OpAdd, Ty: IntType(8), Args: []Value{a, c}}
	bad.SetName("sum")
	b.Append(bad)
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%sum", "operand types differ: i8 vs i4")
}

func TestVerifyForeignValue(t *testing.T) {
	u, b := vtProc()
	other, ob := vtProc()
	other.Name = "other"
	nob := NewBuilder(other)
	nob.SetBlock(ob)
	foreign := nob.ConstInt(IntType(8), 1)
	ob.Append(halt())
	bad := &Inst{Op: OpNot, Ty: IntType(8), Args: []Value{foreign}}
	bad.SetName("n")
	b.Append(bad)
	b.Append(halt())
	expectProblem(t, mod(u, other), Behavioural, "@p", "%n", "defined outside the unit")
}

func TestVerifyPhiPrefixRule(t *testing.T) {
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	k := nb.ConstInt(IntType(8), 0)
	next := u.AddBlock("next")
	nb.Br(next)
	k2 := &Inst{Op: OpConstInt, Ty: IntType(8)}
	next.Append(k2)
	phi := &Inst{Op: OpPhi, Ty: IntType(8), Args: []Value{k}, Dests: []*Block{b}}
	phi.SetName("late")
	next.Append(phi)
	next.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%late", "%next", "follows a non-phi instruction")
}

func TestVerifyPhiEdgeDominance(t *testing.T) {
	// %v is defined in %right, but the phi's %left edge claims it: %right
	// does not dominate %left.
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	c := nb.ConstInt(IntType(1), 1)
	left, right, merge := u.AddBlock("left"), u.AddBlock("right"), u.AddBlock("merge")
	nb.BrCond(c, left, right)
	nb.SetBlock(right)
	v := nb.ConstInt(IntType(8), 2)
	v.SetName("v")
	nb.Br(merge)
	nb.SetBlock(left)
	nb.Br(merge)
	phi := &Inst{Op: OpPhi, Ty: IntType(8), Args: []Value{v, v}, Dests: []*Block{left, right}}
	phi.SetName("ph")
	merge.Append(phi)
	merge.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%ph", "does not dominate edge predecessor %left")
}

func TestVerifyUseBeforeDef(t *testing.T) {
	u, b := vtProc()
	k := &Inst{Op: OpConstInt, Ty: IntType(8)}
	k.SetName("k")
	use := &Inst{Op: OpNot, Ty: IntType(8), Args: []Value{k}}
	use.SetName("n")
	b.Append(use)
	b.Append(k)
	b.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%n", "uses %k before its definition")
}

func TestVerifyDominanceAcrossBlocks(t *testing.T) {
	// %v defined only on the %right path but used in %merge.
	u, b := vtProc()
	nb := NewBuilder(u)
	nb.SetBlock(b)
	c := nb.ConstInt(IntType(1), 1)
	left, right, merge := u.AddBlock("left"), u.AddBlock("right"), u.AddBlock("merge")
	nb.BrCond(c, left, right)
	nb.SetBlock(right)
	v := nb.ConstInt(IntType(8), 2)
	v.SetName("v")
	nb.Br(merge)
	nb.SetBlock(left)
	nb.Br(merge)
	use := &Inst{Op: OpNot, Ty: IntType(8), Args: []Value{v}}
	use.SetName("n")
	merge.Append(use)
	merge.Append(halt())
	expectProblem(t, mod(u), Behavioural, "@p", "%n", "%merge", "does not dominate the use")
}
