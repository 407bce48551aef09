package llhd_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/ir"
)

// bothEnginesReject builds a session over the module on the interpreter
// and on blaze and requires what "one rule" means at the session boundary:
// both constructions fail, with one text, as an input error (not a
// *RuntimeError: exit 1 and HTTP 400, not 3 and 500), and ir.Verify
// reports the same problem. It returns that text.
func bothEnginesReject(t *testing.T, m *llhd.Module, top string) string {
	t.Helper()
	var texts [2]string
	for i, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
		_, err := llhd.NewSession(llhd.FromModule(m), llhd.Top(top), llhd.Backend(kind))
		if err == nil {
			t.Fatalf("%v: NewSession accepted the module", kind)
		}
		var re *llhd.RuntimeError
		if errors.As(err, &re) {
			t.Errorf("%v: construction failed with a RuntimeError, want an input error: %v", kind, err)
		}
		texts[i] = err.Error()
	}
	if texts[0] != texts[1] {
		t.Errorf("the engines disagree:\n  interp: %s\n  blaze:  %s", texts[0], texts[1])
	}
	problem := strings.TrimPrefix(texts[0], "ir: ")
	if verr := ir.Verify(m, ir.Behavioural); verr == nil || !strings.Contains(verr.Error(), problem) {
		t.Errorf("ir.Verify does not report %q: %v", problem, verr)
	}
	return texts[0]
}

// TestShapeLegalityAcrossEngines is generated from the instruction-set
// table: every (opcode, unit kind) pair the table calls illegal, and every
// fixed-arity opcode with one operand too few and one too many, sits in a
// unit @u next to an empty top entity — nothing instantiates @u, so only a
// check of the whole module at construction can see it — and both engines
// must reject the module with the words of ir.CheckShape.
func TestShapeLegalityAcrossEngines(t *testing.T) {
	kinds := []ir.UnitKind{ir.UnitFunc, ir.UnitProc, ir.UnitEntity}
	// module holds one instruction of the opcode with nargs operands in a
	// unit of the kind; the operands are all one i8 constant, which is
	// enough: an instruction of the wrong shape or in the wrong place is
	// reported for that before its types are looked at.
	module := func(op ir.Opcode, kind ir.UnitKind, nargs int) *llhd.Module {
		m := ir.NewModule("m")
		m.MustAdd(ir.NewUnit(ir.UnitEntity, "top"))
		u := ir.NewUnit(kind, "u")
		if kind != ir.UnitEntity {
			u.AddBlock("entry")
		}
		b := ir.NewBuilder(u)
		k := b.ConstInt(ir.IntType(8), 1)
		in := &ir.Inst{Op: op, Ty: ir.VoidType()}
		for i := 0; i < nargs; i++ {
			in.Args = append(in.Args, k)
		}
		for i := 0; i < int(op.Info().MinDests); i++ {
			in.Dests = append(in.Dests, b.Block())
		}
		b.Block().Append(in)
		if kind == ir.UnitProc && !op.IsTerminator() {
			b.Halt()
		} else if kind == ir.UnitFunc && !op.IsTerminator() {
			b.Ret(nil)
		}
		m.MustAdd(u)
		return m
	}
	legalKind := func(info *ir.OpInfo) ir.UnitKind {
		for _, k := range kinds {
			if info.Kinds.Has(k) {
				return k
			}
		}
		t.Fatalf("%s is legal nowhere", info.Name)
		return 0
	}

	illegal, arity := 0, 0
	for op := ir.OpInvalid + 1; op.Info() != ir.OpInvalid.Info(); op++ {
		info := op.Info()
		for _, kind := range kinds {
			if info.Kinds.Has(kind) {
				continue
			}
			illegal++
			t.Run(fmt.Sprintf("%s_%d_in_%s", op, op, kind), func(t *testing.T) {
				got := bothEnginesReject(t, module(op, kind, int(info.MinArgs)), "top")
				block := "entry"
				if kind == ir.UnitEntity {
					block = "body"
				}
				if want := fmt.Sprintf("ir: @u: %%<%s> (%s) in %%%s: illegal in %s units", op, op, block, kind); got != want {
					t.Errorf("error = %q, want %q", got, want)
				}
			})
		}
		if info.MaxArgs == ir.Variadic {
			continue
		}
		for _, n := range []int{int(info.MinArgs) - 1, int(info.MaxArgs) + 1} {
			if n < 0 {
				continue
			}
			arity++
			t.Run(fmt.Sprintf("%s_%d_with_%d_operands", op, op, n), func(t *testing.T) {
				got := bothEnginesReject(t, module(op, legalKind(info), n), "top")
				if want := fmt.Sprintf("operands, has %d", n); !strings.Contains(got, " takes ") || !strings.HasSuffix(got, want) {
					t.Errorf("error = %q, want an operand-count error ending %q", got, want)
				}
			})
		}
	}
	// 54 opcodes; 9 + 6 + 11 illegal pairs in Verify's old per-kind lists.
	if illegal != 26 || arity < 80 {
		t.Errorf("generated %d illegal-kind and %d arity cases; the table or the generator lost some", illegal, arity)
	}
}

// TestIllegalDesignsRejectedAlike replays designs the engines disagreed on,
// or ran although ir.Verify rejects them, one per rule of ir.CheckShape
// that decides them now. Before the instruction-set table, on the
// interpreter the first five failed at run time as class "internal" (exit
// 3, HTTP 500) while blaze accepted four of them silently — dropping the
// process's drives in the reg case — and hit a contained index panic on
// the fifth; the sixth ran on both engines. The rest ran on both engines
// before the type rules, each with its own meaning: the eq row drove 0 on
// both only because Blaze kept a width test for it, the drv row put 300 on
// an i8 signal, the sig row made an i8 signal that Blaze held equal to 44
// and the interpreter did not, and the inss row failed as "internal" on
// the interpreter and ran on Blaze. The phi row, a phi that leaves out a
// predecessor, failed as "internal" on the interpreter and drove the
// phi's unwritten register on Blaze.
func TestIllegalDesignsRejectedAlike(t *testing.T) {
	for _, c := range illegalDesigns {
		t.Run(c.name, func(t *testing.T) {
			m, err := llhd.ParseAssembly(c.name, c.src)
			if err != nil {
				t.Fatal(err)
			}
			if got := bothEnginesReject(t, m, "top"); got != c.want {
				t.Errorf("error = %q, want %q", got, c.want)
			}
		})
	}
}

var illegalDesigns = []struct{ name, src, want string }{
	{"sig in a process", `
entity @top () -> () {
  %z = const i1 0
  %q = sig i1 %z
  inst @p () -> (i1$ %q)
}
proc @p () -> (i1$ %q) {
 entry:
  %z = const i1 0
  %s = sig i1 %z
  halt
}`, "ir: @p: %s (sig) in %entry: illegal in proc units"},
	{"reg in a process", `
entity @top () -> () {
  %z = const i1 0
  %a = sig i1 %z
  %q = sig i1 %z
  inst @p (i1$ %a) -> (i1$ %q)
}
proc @p (i1$ %a) -> (i1$ %q) {
 entry:
  %x = prb i1$ %a
  %o = const i1 1
  %d = const time 1ns
  drv i1$ %q, %o after %d
  reg i1$ %q, %x rise %x
  halt
}`, "ir: @p: %<reg> (reg) in %entry: illegal in proc units"},
	{"con in a process", `
entity @top () -> () {
  %z = const i1 0
  %a = sig i1 %z
  %q = sig i1 %z
  inst @p (i1$ %a) -> (i1$ %q)
}
proc @p (i1$ %a) -> (i1$ %q) {
 entry:
  con i1$ %a, %q
  halt
}`, "ir: @p: %<con> (con) in %entry: illegal in proc units"},
	{"halt in a function", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  call void @f ()
  halt
}
func @f () void {
 entry:
  halt
}`, "ir: @f: %<halt> (halt) in %entry: illegal in func units"},
	{"wait in a function", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  call void @f ()
  halt
}
func @f () void {
 entry:
  wait %entry
}`, "ir: @f: %<wait> (wait) in %entry: illegal in func units"},
	{"var and ld in an entity", `
entity @top () -> () {
  %z = const i8 7
  %q = sig i8 %z
  %p = var i8 %z
  %v = ld i8* %p
  %d = const time 1ns
  drv i8$ %q, %v after %d
}`, "ir: @top: %p (var) in %body: illegal in entity units"},
	{"ill-typed add", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %a = const i8 1
  %b = const i32 2
  %s = add i8 %a, %b
  halt
}`, "ir: @p: %s (add) in %entry: operand types differ: i8 vs i32"},
	{"ill-typed eq", `
entity @top () -> () {
  %f = const i1 0
  %d = sig i1 %f
  inst @p () -> (i1$ %d)
}
proc @p () -> (i1$ %d) {
 entry:
  %t = const time 1ns
  %five8 = const i8 5
  %five32 = const i32 5
  %k = eq i32 %five8, %five32
  drv i1$ %d, %k after %t
  halt
}`, "ir: @p: %k (eq) in %entry: operand types differ: i8 vs i32"},
	{"i32 drv into i8", `
entity @top () -> () {
  %z = const i8 0
  %q = sig i8 %z
  inst @p () -> (i8$ %q)
}
proc @p () -> (i8$ %q) {
 entry:
  %o = const i32 300
  %t = const time 1ns
  drv i8$ %q, %o after %t
  halt
}`, "ir: @p: %<drv> (drv) in %entry: drv value type i32 does not match signal i8$"},
	{"i32 st into i8", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %z = const i8 0
  %v = var i8 %z
  %o = const i32 300
  st i8* %v, %o
  halt
}`, "ir: @p: %<st> (st) in %entry: st value type i32 does not match pointer i8*"},
	{"i8 br condition", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %c = const i8 2
  br %c, %a, %b
 a:
  halt
 b:
  halt
}`, "ir: @p: %<br> (br) in %entry: br condition must be i1, got i8"},
	{"unterminated process block", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %c = const i8 2
}`, "ir: @p: block %entry lacks a terminator"},
	{"sig i8 from an i32", `
entity @top () -> () {
  %w = const i32 44
  %q = sig i8 %w
}`, "ir: @top: %q (sig) in %body: initial value type i32 does not match signal i8$"},
	{"inst port bound to a wider signal", `
entity @top () -> () {
  %z = const i32 0
  %w = sig i32 %z
  inst @p (i32$ %w) -> ()
}
proc @p (i8$ %a) -> () {
 entry:
  halt
}`, "ir: @top: %<inst> (inst) in %body: %w is i32$, @p's %a is i8$"},
	{"call argument of another width", `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %x = const i32 3
  %y = call i8 @f (i32 %x)
  halt
}
func @f (i8 %a) i8 {
 entry:
  ret i8 %a
}`, "ir: @p: %y (call) in %entry: %x is i32, @f's %a is i8"},
	{"inss past its target", `
entity @top () -> () {
  %z = const i4 0
  %q = sig i4 %z
  inst @p () -> (i4$ %q)
}
proc @p () -> (i4$ %q) {
 entry:
  %c = const i4 0
  %x = const i8 3
  %y = inss i4 %c, %x, 0, 8
  %t = const time 1ns
  drv i4$ %q, %y after %t
  halt
}`, "ir: @p: %y (inss) in %entry: slice [0, 8) out of i4"},
	{"phi without one of its predecessors", `
entity @top () -> () {
  %z = const i8 0
  %q = sig i8 %z
  inst @p () -> (i8$ %q)
}
proc @p () -> (i8$ %q) {
 entry:
  %c = const i1 0
  %one = const i8 1
  %t = const time 1ns
  br %c, %a, %b
 a:
  br %join
 b:
  br %join
 join:
  %v = phi i8 [%one, %b]
  drv i8$ %q, %v after %t
  halt
}`, "ir: @p: %v (phi) in %join: phi has no operand for predecessor %a"},
}

// TestCheckShapeAllocFree holds the walk every elaboration starts with to
// what makes it cheap enough for that: on every Table 2 design and the
// RV32I core, unlowered and lowered, it passes and allocates nothing.
func TestCheckShapeAllocFree(t *testing.T) {
	for _, d := range loweringInputs(t) {
		m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for _, form := range []string{"unlowered", "lowered"} {
			if form == "lowered" {
				if err := llhd.Lower(m); err != nil {
					t.Fatalf("%s: Lower: %v", d.Name, err)
				}
			}
			if err := ir.CheckShape(m); err != nil {
				t.Errorf("%s, %s: %v", d.Name, form, err)
			}
			if n := testing.AllocsPerRun(5, func() { _ = ir.CheckShape(m) }); n != 0 {
				t.Errorf("%s, %s: CheckShape made %.0f allocations", d.Name, form, n)
			}
		}
	}
}
