package assembly

import (
	"fmt"
	"strings"
	"testing"

	"llhd/internal/ir"
)

// figure2 is the accumulator testbench from Figure 2 of the paper, verbatim
// except for the llhd.assert call which the paper marks "not yet
// implemented" (we keep it: our simulator implements the intrinsic).
const figure2 = `
entity @acc_tb () -> () {
  %zero0 = const i1 0
  %zero1 = const i32 0
  %clk = sig i1 %zero0
  %en = sig i1 %zero0
  %x = sig i32 %zero1
  %q = sig i32 %zero1
  inst @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q)
  inst @acc_tb_initial (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en)
}
proc @acc_tb_initial (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en) {
 entry:
  %bit0 = const i1 0
  %bit1 = const i1 1
  %zero = const i32 0
  %one = const i32 1
  %many = const i32 1337
  %del1ns = const time 1ns
  %del2ns = const time 2ns
  %i = var i32 %zero
  drv i1$ %en, %bit1 after %del2ns
  br %loop
 loop:
  %ip = ld i32* %i
  drv i32$ %x, %ip after %del2ns
  drv i1$ %clk, %bit1 after %del1ns
  drv i1$ %clk, %bit0 after %del2ns
  wait %next for %del2ns
 next:
  %qp = prb i32$ %q
  call void @acc_tb_check (i32 %ip, i32 %qp)
  %in = add i32 %ip, %one
  st i32* %i, %in
  %cont = ult i32 %ip, %many
  br %cont, %end, %loop
 end:
  halt
}
func @acc_tb_check (i32 %i, i32 %q) void {
 entry:
  %one = const i32 1
  %two = const i32 2
  %ip1 = add i32 %i, %one
  %ixip1 = mul i32 %i, %ip1
  %qexp = udiv i32 %ixip1, %two
  %eq = eq i32 %qexp, %q
  call void @llhd.assert (i1 %eq)
  ret
}
`

// figure5acc is the lowered accumulator from Figure 5 (behavioural side).
const figure5acc = `
entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
  %zero = const i32 0
  %d = sig i32 %zero
  inst @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q)
  inst @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d)
}
proc @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
 init:
  %clk0 = prb i1$ %clk
  wait %check for %clk
 check:
  %clk1 = prb i1$ %clk
  %chg = neq i1 %clk0, %clk1
  %posedge = and i1 %chg, %clk1
  br %posedge, %init, %event
 event:
  %dp = prb i32$ %d
  %delay = const time 1ns
  drv i32$ %q, %dp after %delay
  br %init
}
proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
 entry:
  %qp = prb i32$ %q
  %enp = prb i1$ %en
  %delay = const time 2ns
  drv i32$ %d, %qp after %delay
  br %enp, %final, %enabled
 enabled:
  %xp = prb i32$ %x
  %sum = add i32 %qp, %xp
  drv i32$ %d, %sum after %delay
  br %final
 final:
  wait %entry for %q, %x, %en
}
`

func TestParseFigure2(t *testing.T) {
	m, err := Parse("acc_tb", figure2+figure5acc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(m.Units) != 6 {
		t.Fatalf("parsed %d units, want 6", len(m.Units))
	}
	tb := m.Unit("acc_tb")
	if tb == nil || tb.Kind != ir.UnitEntity {
		t.Fatal("acc_tb missing or not an entity")
	}
	if n := len(tb.Body().Insts); n != 8 {
		t.Errorf("acc_tb has %d instructions, want 8", n)
	}
	check := m.Unit("acc_tb_check")
	if check == nil || check.Kind != ir.UnitFunc {
		t.Fatal("acc_tb_check missing or not a function")
	}
	if check.RetType != ir.VoidType() {
		t.Errorf("acc_tb_check return type %v, want void", check.RetType)
	}
	initial := m.Unit("acc_tb_initial")
	if len(initial.Inputs) != 1 || len(initial.Outputs) != 3 {
		t.Errorf("acc_tb_initial signature %d->%d, want 1->3",
			len(initial.Inputs), len(initial.Outputs))
	}
}

func TestRoundTrip(t *testing.T) {
	m1, err := Parse("m", figure2+figure5acc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text1 := String(m1)
	m2, err := Parse("m", text1)
	if err != nil {
		t.Fatalf("reparse printed module: %v\n%s", err, text1)
	}
	text2 := String(m2)
	if text1 != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
	if err := ir.Verify(m2, ir.Behavioural); err != nil {
		t.Fatalf("Verify reparsed: %v", err)
	}
}

func TestParseWaitClassifiesOperands(t *testing.T) {
	m := MustParse("m", figure2)
	initial := m.Unit("acc_tb_initial")
	var wait *ir.Inst
	initial.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpWait {
			wait = in
		}
	})
	if wait == nil {
		t.Fatal("no wait found")
	}
	if wait.TimeArg == nil {
		t.Error("the testbench wait should have a time operand")
	}
	if len(wait.Args) != 0 {
		t.Errorf("wait has %d observed signals, want 0", len(wait.Args))
	}

	m5 := MustParse("m", figure5acc)
	comb := m5.Unit("acc_comb")
	wait = nil
	comb.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpWait {
			wait = in
		}
	})
	if wait.TimeArg != nil {
		t.Error("acc_comb wait has no timeout")
	}
	if len(wait.Args) != 3 {
		t.Errorf("acc_comb wait observes %d signals, want 3", len(wait.Args))
	}
}

func TestParseReg(t *testing.T) {
	src := `
entity @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
  %delay = const time 1ns
  %clkp = prb i1$ %clk
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp after %delay
}
`
	m, err := Parse("m", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u := m.Unit("acc_ff")
	var reg *ir.Inst
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpReg {
			reg = in
		}
	})
	if reg == nil {
		t.Fatal("no reg parsed")
	}
	if len(reg.Triggers) != 1 || reg.Triggers[0].Mode != ir.RegRise {
		t.Fatalf("reg triggers = %+v, want one rise", reg.Triggers)
	}
	if reg.Delay == nil {
		t.Error("reg after-delay missing")
	}
	if err := ir.Verify(m, ir.Structural); err != nil {
		t.Errorf("reg entity should be structural: %v", err)
	}

	// Round trip through the printer.
	text := String(m)
	if !strings.Contains(text, "rise") {
		t.Errorf("printed reg lacks rise clause:\n%s", text)
	}
	if _, err := Parse("m", text); err != nil {
		t.Errorf("reparse: %v\n%s", err, text)
	}
}

func TestParseRegWithGate(t *testing.T) {
	src := `
entity @e (i1$ %clk, i1$ %en, i32$ %d) -> (i32$ %q) {
  %clkp = prb i1$ %clk
  %enp = prb i1$ %en
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp if %enp
}
`
	m, err := Parse("m", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var reg *ir.Inst
	m.Unit("e").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpReg {
			reg = in
		}
	})
	if reg.Triggers[0].Gate == nil {
		t.Fatal("reg gate not parsed")
	}
	text := String(m)
	if !strings.Contains(text, "if %enp") {
		t.Errorf("printed reg lacks gate:\n%s", text)
	}
}

func TestParseAggregatesAndMux(t *testing.T) {
	src := `
proc @p (i32$ %q, i1$ %sel) -> (i32$ %d) {
 entry:
  %qp = prb i32$ %q
  %selp = prb i1$ %sel
  %two = const i32 2
  %sum = add i32 %qp, %two
  %dns = [i32 %qp, %sum]
  %dn = mux i32 %dns, %selp
  %delay = const time 1ns
  drv i32$ %d, %dn after %delay
  wait %entry for %q, %sel
}
`
	m, err := Parse("m", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	text := String(m)
	m2, err := Parse("m", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if String(m2) != text {
		t.Error("aggregate round trip unstable")
	}
}

func TestParsePhi(t *testing.T) {
	src := `
func @f (i1 %c) i32 {
 entry:
  %a = const i32 1
  %b = const i32 2
  br %c, %left, %right
 left:
  br %join
 right:
  br %join
 join:
  %r = phi i32 [%a, %left], [%b, %right]
  ret i32 %r
}
`
	m, err := Parse("m", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	text := String(m)
	if _, err := Parse("m", text); err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
}

func TestParseStructTypesAndOps(t *testing.T) {
	src := `
func @f ({i32, i8} %s, [4 x i8] %a) i32 {
 entry:
  %f0 = extf i32 %s, 0
  %e1 = extf i8 %a, 1
  %sl = exts [2 x i8] %a, 1, 2
  %k = const i8 7
  %a2 = insf [4 x i8] %a, %k, 2
  %e2 = extf i8 %a2, 2
  ret i32 %f0
}
`
	m, err := Parse("m", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text := String(m)
	m2, err := Parse("m", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if String(m2) != text {
		t.Error("struct/array ops round trip unstable")
	}
}

func TestParseConDel(t *testing.T) {
	src := `
entity @top (i1$ %a) -> (i1$ %b, i1$ %c) {
  %del = const time 1ns
  con i1$ %a, %b
  del i1$ %c, %a, %del
}
`
	m, err := Parse("m", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := ir.LevelOf(m); got != ir.Netlist {
		t.Errorf("con/del entity level = %v, want netlist", got)
	}
	text := String(m)
	if _, err := Parse("m", text); err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus @x () -> () {}",
		"entity @x () -> () { %a = const i32 }",
		"proc @p () -> () { entry: br %nowhere ",          // unterminated
		"proc @p () -> () { entry: br %nowhere }",         // never labeled
		"proc @p () -> () { entry: %x = ld i32 %p halt }", // ld needs pointer
		"func @f () void { entry: %y = prb i32 %s ret }",  // prb needs signal
		"proc @p () -> () { entry: wait %e for %undefined halt }",
		"proc @p () -> () { entry: %h = halt }",               // halt has no result
		"func @f () void { entry: %v = call void @f () ret }", // nor does a void call
	}
	for _, src := range cases {
		if _, err := Parse("m", src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// TestLexNameBytes runs every byte value through the lexer, at the start
// of a token and inside a global name. Names are ASCII: a letter, '_' or
// '.' starts one, those and the digits continue it, and a byte of 0x80 or
// above is an error outside strings and comments.
func TestLexNameBytes(t *testing.T) {
	for b := 0; b < 256; b++ {
		c := byte(b)
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		start := letter || c == '_' || c == '.'
		part := start || c >= '0' && c <= '9'

		toks, err := tokenize(string([]byte{c}))
		if got := err == nil && (toks[0].kind == tokIdent || toks[0].kind == tokX); got != start {
			t.Errorf("byte %#02x: starts a name = %v, want %v", c, got, start)
		}

		src := string([]byte{'@', 'a', c})
		toks, err = tokenize(src)
		switch {
		case c >= 0x80:
			want := fmt.Sprintf("line 1: unexpected character %q", src[2:])
			if err == nil || err.Error() != want {
				t.Errorf("tokenize(%q) = %v, want %s", src, err, want)
			}
		case part:
			if err != nil || toks[0].kind != tokGlobal || toks[0].text != src[1:] {
				t.Errorf("tokenize(%q) = %v, %v, want the one global %q", src, toks, err, src[1:])
			}
		case err == nil && toks[0].text != "a":
			t.Errorf("tokenize(%q) starts with %q, want the global \"a\"", src, toks[0].text)
		}
	}
	if _, err := tokenize("; é\n\"ª\""); err != nil {
		t.Errorf("UTF-8 in comments and strings: %v", err)
	}
}

func TestParserDuplicateGlobal(t *testing.T) {
	src := `
entity @x () -> () {}
entity @x () -> () {}
`
	if _, err := Parse("m", src); err == nil {
		t.Error("duplicate global not rejected")
	}
}

func TestPrinterAnonymousNames(t *testing.T) {
	// Values without name hints get sequential numbers.
	u := ir.NewUnit(ir.UnitEntity, "e")
	b := ir.NewBuilder(u)
	k := b.ConstInt(ir.IntType(8), 5)
	b.Sig(k)
	m := ir.NewModule("m")
	m.MustAdd(u)
	text := String(m)
	if !strings.Contains(text, "%0 = const i8 5") {
		t.Errorf("anonymous naming wrong:\n%s", text)
	}
	if _, err := Parse("m", text); err != nil {
		t.Errorf("reparse anonymous: %v\n%s", err, text)
	}
}
