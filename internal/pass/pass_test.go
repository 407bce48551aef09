package pass

import (
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
)

func TestConstantFoldArithmetic(t *testing.T) {
	src := `
func @f () i32 {
 entry:
  %a = const i32 6
  %b = const i32 7
  %c = mul i32 %a, %b
  %d = add i32 %c, %a
  ret i32 %d
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, ConstantFold(), m)
	mustRun(t, DCE(), m)
	f := m.Unit("f")
	var ret *ir.Inst
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpRet {
			ret = in
		}
	})
	k, ok := ret.Args[0].(*ir.Inst)
	if !ok || k.Op != ir.OpConstInt || k.IVal != 48 {
		t.Errorf("folded return = %v, want const 48", ret.Args[0])
	}
	// Everything else is dead.
	if n := f.NumInsts(); n != 2 {
		t.Errorf("%d instructions after fold+DCE, want 2 (const, ret)", n)
	}
}

func TestConstantFoldBranch(t *testing.T) {
	src := `
func @f () i32 {
 entry:
  %t = const i1 1
  %a = const i32 1
  %b = const i32 2
  br %t, %no, %yes
 yes:
  ret i32 %a
 no:
  ret i32 %b
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, ConstantFold(), m)
	f := m.Unit("f")
	if len(f.Blocks) != 2 {
		t.Errorf("%d blocks after branch folding, want 2", len(f.Blocks))
	}
	term := f.Entry().Terminator()
	if term.Op != ir.OpBr || len(term.Dests) != 1 || term.Dests[0].ValueName() != "yes" {
		t.Errorf("entry terminator not folded to the taken branch")
	}
}

func TestCSEDedupes(t *testing.T) {
	src := `
func @f (i32 %x, i32 %y) i32 {
 entry:
  %a = add i32 %x, %y
  %b = add i32 %x, %y
  %c = add i32 %a, %b
  ret i32 %c
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, CSE(), m)
	f := m.Unit("f")
	adds := 0
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpAdd {
			adds++
		}
	})
	if adds != 2 {
		t.Errorf("%d adds after CSE, want 2 (one deduped)", adds)
	}
}

func TestCSECommutative(t *testing.T) {
	src := `
func @f (i32 %x, i32 %y) i32 {
 entry:
  %a = add i32 %x, %y
  %b = add i32 %y, %x
  %c = sub i32 %a, %b
  ret i32 %c
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, CSE(), m)
	adds := 0
	m.Unit("f").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpAdd {
			adds++
		}
	})
	if adds != 1 {
		t.Errorf("%d adds after CSE, want 1 (commutative dedupe)", adds)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	src := `
func @f (i32 %x, i1 %b) i32 {
 entry:
  %zero = const i32 0
  %one = const i1 1
  %a = add i32 %x, %zero
  %c = and i1 %b, %one
  %n = not i1 %c
  %nn = not i1 %n
  %m = mul i32 %a, %a
  ret i32 %m
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, InstSimplify(), m)
	mustRun(t, DCE(), m)
	f := m.Unit("f")
	// add x,0 folds to x; and b,1 folds to b; not(not b) folds to b.
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpAdd, ir.OpAnd, ir.OpNot:
			t.Errorf("%s survived simplification", in.Op)
		}
	})
}

func TestInlineCall(t *testing.T) {
	src := `
func @double (i32 %x) i32 {
 entry:
  %two = const i32 2
  %r = mul i32 %x, %two
  ret i32 %r
}
func @f (i32 %a) i32 {
 entry:
  %d = call i32 @double (i32 %a)
  %e = add i32 %d, %a
  ret i32 %e
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Inline(), m)
	f := m.Unit("f")
	calls := 0
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if calls != 0 {
		t.Errorf("%d calls after inlining, want 0", calls)
	}
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Errorf("inlined function invalid: %v", err)
	}
	// Semantics preserved: fold should reduce f(a) for constant a.
	src2 := assembly.StringUnit(f)
	if !strings.Contains(src2, "mul") {
		t.Errorf("inlined body lost the multiply:\n%s", src2)
	}
}

// TestInlineTwoReturnSites inlines a callee with two rets: the call's
// value becomes a phi over both, placed at the top of the continuation.
func TestInlineTwoReturnSites(t *testing.T) {
	src := `
func @max (i32 %x, i32 %y) i32 {
 entry:
  %lt = ult i32 %x, %y
  br %lt, %left, %right
 left:
  ret i32 %x
 right:
  ret i32 %y
}
func @f (i32 %a) i32 {
 entry:
  %k = const i32 9
  %m = call i32 @max (i32 %a, i32 %k)
  %e = add i32 %m, %a
  ret i32 %e
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Inline(), m)
	f := m.Unit("f")
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Fatalf("inlined function invalid: %v\n%s", err, assembly.StringUnit(f))
	}
	var phi *ir.Inst
	f.ForEachInst(func(b *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpCall:
			t.Errorf("call left after inlining")
		case ir.OpPhi:
			phi = in
			if b.Insts[0] != in {
				t.Errorf("phi is not at the top of %s", b.ValueName())
			}
		}
	})
	if phi == nil || len(phi.Args) != 2 {
		t.Fatalf("want one phi over two return sites:\n%s", assembly.StringUnit(f))
	}
}

func TestInlineKeepsIntrinsics(t *testing.T) {
	src := `
proc @p (i1$ %s) -> () {
 entry:
  %v = prb i1$ %s
  call void @llhd.assert (i1 %v)
  halt
}
`
	m := assembly.MustParse("m", src)
	changed := mustRun(t, Inline(), m)
	if changed {
		t.Error("inline claimed to change a module with only intrinsics")
	}
	calls := 0
	m.Unit("p").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if calls != 1 {
		t.Errorf("intrinsic call count = %d, want 1", calls)
	}
}

func TestInlineSkipsRecursion(t *testing.T) {
	src := `
func @fact (i32 %n) i32 {
 entry:
  %one = const i32 1
  %base = ule i32 %n, %one
  br %base, %rec, %done
 done:
  ret i32 %one
 rec:
  %nm1 = sub i32 %n, %one
  %s = call i32 @fact (i32 %nm1)
  %r = mul i32 %n, %s
  ret i32 %r
}
func @f (i32 %a) i32 {
 entry:
  %r = call i32 @fact (i32 %a)
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Inline(), m)
	// @f's call to the recursive @fact must remain.
	calls := 0
	m.Unit("f").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if calls != 1 {
		t.Errorf("recursive callee was inlined (%d calls)", calls)
	}
}

func TestMem2RegStraightLine(t *testing.T) {
	src := `
func @f (i32 %x) i32 {
 entry:
  %init = const i32 5
  %v = var i32 %init
  st i32* %v, %x
  %r = ld i32* %v
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Mem2Reg(), m)
	f := m.Unit("f")
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpVar, ir.OpLd, ir.OpSt:
			t.Errorf("%s survived promotion", in.Op)
		}
	})
	var ret *ir.Inst
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpRet {
			ret = in
		}
	})
	if ret.Args[0] != f.Inputs[0] {
		t.Errorf("load forwarded to %v, want the stored argument", ret.Args[0])
	}
}

func TestMem2RegLoop(t *testing.T) {
	// Sum 0..9 through a promoted loop variable.
	src := `
func @f () i32 {
 entry:
  %zero = const i32 0
  %one = const i32 1
  %ten = const i32 10
  %i = var i32 %zero
  %acc = var i32 %zero
  br %loop
 loop:
  %iv = ld i32* %i
  %av = ld i32* %acc
  %an = add i32 %av, %iv
  st i32* %acc, %an
  %in = add i32 %iv, %one
  st i32* %i, %in
  %c = ult i32 %in, %ten
  br %c, %done, %loop
 done:
  %r = ld i32* %acc
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Mem2Reg(), m)
	mustRun(t, InstSimplify(), m)
	mustRun(t, DCE(), m)
	f := m.Unit("f")
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpVar, ir.OpLd, ir.OpSt:
			t.Errorf("%s survived promotion", in.Op)
		}
	})
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Fatalf("promoted loop invalid: %v\n%s", err, assembly.StringUnit(f))
	}
	// Phis must exist for the loop-carried values.
	phis := 0
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpPhi {
			phis++
		}
	})
	if phis < 2 {
		t.Errorf("%d phis after promotion, want >= 2 (i and acc)", phis)
	}
}

// TestMem2RegPhiPlacement: a join block takes one new phi per promoted var
// after the phis it already has, in the order the vars are declared, each
// with one entry per predecessor.
func TestMem2RegPhiPlacement(t *testing.T) {
	src := `
func @f (i1 %c, i32 %x, i32 %y) i32 {
 entry:
  %b = var i32 %x
  %a = var i32 %y
  br %c, %right, %left
 left:
  st i32* %a, %x
  br %join
 right:
  st i32* %b, %y
  br %join
 join:
  %old = phi i32 [%x, %left], [%y, %right]
  %va = ld i32* %a
  %vb = ld i32* %b
  %s = add i32 %va, %vb
  %r = add i32 %s, %old
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Mem2Reg(), m)
	f := m.Unit("f")
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Fatalf("promoted unit invalid: %v\n%s", err, assembly.StringUnit(f))
	}
	var join *ir.Block
	for _, b := range f.Blocks {
		if b.ValueName() == "join" {
			join = b
		}
	}
	var got []string
	for _, in := range join.Insts {
		got = append(got, in.Op.String()+" "+in.ValueName())
	}
	want := []string{"phi old", "phi b.phi", "phi a.phi", "add s", "add r", "ret "}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("join holds %v, want %v", got, want)
	}
	// Entries follow the predecessor order, left then right. %b holds its
	// initializer %x on the left and is stored %y on the right; %a is
	// stored %x on the left and holds its initializer %y on the right.
	x, y := f.Inputs[1], f.Inputs[2]
	for _, phi := range join.Insts[1:3] {
		if len(phi.Args) != 2 || phi.Args[0] != x || phi.Args[1] != y ||
			phi.Dests[0].ValueName() != "left" || phi.Dests[1].ValueName() != "right" {
			t.Errorf("%s has entries %v from %v, want [%%x, %%left], [%%y, %%right]", phi, phi.Args, phi.Dests)
		}
	}
	s := join.Insts[3]
	if s.Args[0] != join.Insts[2] || s.Args[1] != join.Insts[1] {
		t.Errorf("%%s adds %v, want the a.phi and b.phi loads forwarded", s.Args)
	}
}

// TestMem2RegSkipsEscapingVars: a var whose address is stored as a value,
// or handed to an instruction other than ld and st (here another var's
// initializer), stays in memory form; the others are promoted around it.
func TestMem2RegSkipsEscapingVars(t *testing.T) {
	src := `
func @f (i32 %x, i32 %y) i32 {
 entry:
  %stored = var i32 %x
  %handed = var i32 %x
  %plain = var i32 %y
  %slot = var i32* %handed
  st i32** %slot, %stored
  %p = ld i32** %slot
  %v = ld i32* %p
  %w = ld i32* %plain
  %r = add i32 %v, %w
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Mem2Reg(), m)
	f := m.Unit("f")
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Fatalf("promoted unit invalid: %v\n%s", err, assembly.StringUnit(f))
	}
	var kept []string
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpVar, ir.OpLd, ir.OpSt:
			kept = append(kept, in.Op.String()+" "+in.ValueName())
		}
	})
	// %slot is promoted, so the ld through it reads %stored directly.
	if want := "var stored, var handed, ld v"; strings.Join(kept, ", ") != want {
		t.Errorf("memory instructions left: %v, want %s\n%s", kept, want, assembly.StringUnit(f))
	}
}

// TestMem2RegResolvesStoredLoads: a load's value is stored to the next var
// down a chain (%v1 → %v2 → %v3), and every load on the way is promoted
// and dropped. A use in the same block and the phi entry of a join must
// both name the value the chain started from, never a dropped load.
func TestMem2RegResolvesStoredLoads(t *testing.T) {
	src := `
func @f (i1 %c, i32 %x, i32 %y) i32 {
 entry:
  %v1 = var i32 %x
  %v2 = var i32 %x
  %v3 = var i32 %x
  st i32* %v1, %y
  br %copy
 copy:
  %a = ld i32* %v1
  st i32* %v2, %a
  br %c, %right, %left
 left:
  %l = ld i32* %v2
  st i32* %v3, %l
  %k = ld i32* %v3
  %d = add i32 %k, %k
  br %join
 right:
  st i32* %v3, %y
  br %join
 join:
  %j = ld i32* %v3
  ret i32 %j
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Mem2Reg(), m)
	f := m.Unit("f")
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Fatalf("promoted unit invalid: %v\n%s", err, assembly.StringUnit(f))
	}
	y := f.Inputs[2]
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch {
		case in.Op == ir.OpLd || in.Op == ir.OpSt || in.Op == ir.OpVar:
			t.Errorf("%s survived promotion", in.Op)
		case in.Op == ir.OpAdd, in.Op == ir.OpPhi && in.ValueName() == "v3.phi":
			for i, a := range in.Args {
				if a != y {
					t.Errorf("%s operand %d is %s, want %%y", in, i, a)
				}
			}
		}
	})
}

func TestPipelineNames(t *testing.T) {
	names := LoweringPipeline().Names()
	wantOrder := []string{"inline", "mem2reg", "ecm", "tcm", "tcfe",
		"process-lowering", "deseq", "inline-entities", "signal-forwarding"}
	pos := -1
	for _, w := range wantOrder {
		found := -1
		for i, n := range names {
			if n == w && i > pos {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("pass %q missing or out of order in pipeline %v", w, names)
			continue
		}
		pos = found
	}
}

// TestRunFixpointGivesUpLoudly: a pipeline that never settles, because one
// pass adds a block and the next removes it, fails at the cap with an
// error naming both; the remover alone settles at once.
func TestRunFixpointGivesUpLoudly(t *testing.T) {
	grow := &unitPass{name: "grow", run: func(u *ir.Unit) (bool, error) {
		b := u.InsertBlockAfter("extra", u.Blocks[len(u.Blocks)-1])
		b.Append(&ir.Inst{Op: ir.OpHalt, Ty: ir.VoidType()})
		return true, nil
	}}
	shrink := &unitPass{name: "shrink", run: func(u *ir.Unit) (bool, error) {
		last := u.Blocks[len(u.Blocks)-1]
		if last.ValueName() != "extra" {
			return false, nil
		}
		u.RemoveBlock(last)
		return true, nil
	}}
	m := assembly.MustParse("m", `
proc @p () -> () {
 entry:
  halt
}
`)
	err := (&Pipeline{Passes: []Pass{grow, shrink}}).RunFixpoint(m)
	want := "pass: pipeline did not converge in 8 iterations (still changing: grow, shrink)"
	if err == nil || err.Error() != want {
		t.Fatalf("RunFixpoint = %v, want %q", err, want)
	}
	if err := (&Pipeline{Passes: []Pass{shrink}}).RunFixpoint(m); err != nil {
		t.Fatalf("RunFixpoint on a settled pipeline = %v, want nil", err)
	}
}

func TestLoweredModuleVerifiesStructural(t *testing.T) {
	m := parseAcc(t)
	if err := LoweringPipeline().RunFixpoint(m); err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := ir.Verify(m, ir.Structural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := ir.LevelOf(m); got != ir.Structural && got != ir.Netlist {
		t.Errorf("lowered module level = %v, want structural or below", got)
	}
}

func TestLowerRejectsTestbench(t *testing.T) {
	// A process with a timed wait has no structural equivalent; lowering
	// must leave it for verification to reject rather than mangle it.
	src := `
proc @tb () -> (i1$ %clk) {
 entry:
  %b1 = const i1 1
  %d = const time 1ns
  drv i1$ %clk, %b1 after %d
  wait %entry for %d
}
`
	m := assembly.MustParse("m", src)
	if err := LoweringPipeline().RunFixpoint(m); err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := ir.Verify(m, ir.Structural); err == nil {
		t.Error("Verify accepted a timed testbench process as structural")
	}
}
