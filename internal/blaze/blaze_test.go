package blaze_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"llhd"
	"llhd/internal/assembly"
	"llhd/internal/blaze"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/oracle"
	"llhd/internal/sim"
)

const counterSrc = `
entity @top () -> () {
  %zero1 = const i1 0
  %zero8 = const i32 0
  %clk = sig i1 %zero1
  %count = sig i32 %zero8
  inst @clkgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> (i32$ %count)
}
proc @clkgen () -> (i1$ %clk) {
 entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 5ns
  %n = const i32 50
  %zero = const i32 0
  %one = const i32 1
  %i = var i32 %zero
  br %loop
 loop:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
 lo:
  drv i1$ %clk, %b0 after %half
  wait %next for %half
 next:
  %ip = ld i32* %i
  %in = add i32 %ip, %one
  st i32* %i, %in
  %more = ult i32 %in, %n
  br %more, %end, %loop
 end:
  halt
}
proc @counter (i1$ %clk) -> (i32$ %count) {
 init:
  %one = const i32 1
  %dz = const time 0s
  %clk0 = prb i1$ %clk
  wait %check for %clk
 check:
  %clk1 = prb i1$ %clk
  %chg = neq i1 %clk0, %clk1
  %pos = and i1 %chg, %clk1
  br %pos, %init, %bump
 bump:
  %c = prb i32$ %count
  %cn = add i32 %c, %one
  drv i32$ %count, %cn after %dz
  br %init
}
`

// tracesMatch runs m1 on the reference interpreter and m2 on blaze as one
// oracle run and fails unless both finish and produce the same non-empty
// trace; it returns the two legs.
func tracesMatch(t *testing.T, m1, m2 *ir.Module, top string) []oracle.Result {
	t.Helper()
	rs := oracle.Run(0,
		oracle.Leg{Name: "interp", Options: []llhd.SessionOption{llhd.FromModule(m1), llhd.Top(top), llhd.Backend(llhd.Interp)}},
		oracle.Leg{Name: "blaze", Options: []llhd.SessionOption{llhd.FromModule(m2), llhd.Top(top), llhd.Backend(llhd.Blaze)}})
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
	}
	if len(rs[0].Trace.Entries) == 0 {
		t.Fatal("interpreter trace is empty")
	}
	if d := oracle.Diff(rs[0].Name, rs[0].Trace, rs[1].Name, rs[1].Trace); d != "" {
		t.Fatal(d)
	}
	return rs
}

// TestSinkKeepsAFailingDivision runs the corpus entry
// blaze_sink_div.llhd with its divisor at zero: the udiv stands ahead of
// the branch that skips its only reader, so it fails on the interpreter,
// and Blaze must fail with it rather than place the division where it is
// read (rule 10 of bytecode/plan.go moves nothing that can fail).
func TestSinkKeepsAFailingDivision(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "blaze_sink_div.llhd"))
	if err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(string(data), "%five = const i8 5", "%five = const i8 0", 1)
	if src == string(data) {
		t.Fatal("the entry no longer sets its divisor in the constant five")
	}
	rs := oracle.Run(0,
		oracle.Leg{Name: "interp", Options: []llhd.SessionOption{llhd.FromModule(assembly.MustParse("d", src)), llhd.Top("top"), llhd.Backend(llhd.Interp)}},
		oracle.Leg{Name: "blaze", Options: []llhd.SessionOption{llhd.FromModule(assembly.MustParse("d", src)), llhd.Top("top"), llhd.Backend(llhd.Blaze)}})
	for _, r := range rs {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "division by zero") {
			t.Errorf("%s: err = %v, want a division by zero", r.Name, r.Err)
		}
	}
}

// enumDefaultSrc compares a top-level enum port, which starts at its
// type's default, with an enum constant of the same value.
const enumDefaultSrc = `
proc @p (n4$ %a) -> (i1$ %q) {
 entry:
  %pa = prb n4$ %a
  %z = const n4 0
  %e = eq n4 %pa, %z
  %t = const time 1ns
  drv i1$ %q, %e after %t
  halt
}
entity @top (n4$ %a) -> (i1$ %q) {
  inst @p (n4$ %a) -> (i1$ %q)
}
`

// TestTracesMatchEnumDefault holds the default of an enum to the width of
// its constants: Blaze compares enum payloads alone, and the interpreter,
// which compares widths too, found the n4 default (then four bits wide)
// unequal to the constant 0 (two bits) where Blaze found them equal.
func TestTracesMatchEnumDefault(t *testing.T) {
	rs := tracesMatch(t, assembly.MustParse("e", enumDefaultSrc), assembly.MustParse("e", enumDefaultSrc), "top")
	if e := rs[0].Trace.Entries; len(e) != 1 || e[0].Sig.Name != "top.q" || e[0].Value.String() != "1" {
		t.Errorf("trace %v, want top.q = 1", e)
	}
}

func TestTracesMatchCounter(t *testing.T) {
	tracesMatch(t, assembly.MustParse("c", counterSrc), assembly.MustParse("c", counterSrc), "top")
}

// TestTracesMatchFigure3 compiles the paper's Figure 3 SystemVerilog with
// Moore and cross-validates interpreter and compiled simulation — the
// §6.1 claim on a real HDL input.
func TestTracesMatchFigure3(t *testing.T) {
	const src = `
module acc_tb;
  bit clk, en;
  bit [31:0] x, q;
  acc i_dut (.*);
  initial begin
    automatic bit [31:0] i = 0;
    en <= #2ns 1;
    do begin
      x <= #2ns i;
      clk <= #1ns 1;
      clk <= #2ns 0;
      #2ns;
    end while (i++ < 50);
  end
endmodule
module acc (input clk, input [31:0] x, input en, output [31:0] q);
  bit [31:0] d;
  always_ff @(posedge clk) q <= #1ns d;
  always_comb begin
    d <= #2ns q;
    if (en) d <= #2ns q+x;
  end
endmodule
`
	m1, err := moore.Compile("acc", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m2, err := moore.Compile("acc", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	tracesMatch(t, m1, m2, "acc_tb")
}

// TestTracesMatchStructuralReg cross-validates the reg instruction.
func TestTracesMatchStructuralReg(t *testing.T) {
	const src = `
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %d = sig i32 %z32
  %q = sig i32 %z32
  inst @ff (i1$ %clk, i32$ %d) -> (i32$ %q)
  inst @stim (i32$ %q) -> (i1$ %clk, i32$ %d)
}
entity @ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
  %delay = const time 1ns
  %clkp = prb i1$ %clk
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp after %delay
}
proc @stim (i32$ %q) -> (i1$ %clk, i32$ %d) {
 entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %zero = const i32 0
  %one = const i32 1
  %n = const i32 30
  %d2 = const time 2ns
  %i = var i32 %zero
  br %loop
 loop:
  %ip = ld i32* %i
  drv i32$ %d, %ip after %d2
  wait %hi for %d2
 hi:
  drv i1$ %clk, %b1 after %d2
  wait %lo for %d2
 lo:
  drv i1$ %clk, %b0 after %d2
  wait %next for %d2
 next:
  %in = add i32 %ip, %one
  st i32* %i, %in
  %more = ult i32 %ip, %n
  br %more, %done, %loop
 done:
  halt
}
`
	tracesMatch(t, assembly.MustParse("r", src), assembly.MustParse("r", src), "top")
}

// TestRegSamplesEveryTrigger pins the sampling rule of a multi-trigger
// reg: a trigger behind the one that fired is still sampled. Both triggers
// rise together at 2ns and the first wins; when only %a falls at 4ns, %b
// has not moved and must not fire. (Blaze used to stop sampling at the
// winner, judged %b's level at 4ns against its level before 2ns, and drove
// a spurious q = 2.)
func TestRegSamplesEveryTrigger(t *testing.T) {
	const src = `
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %a = sig i1 %z1
  %b = sig i1 %z1
  %q = sig i32 %z32
  inst @ff (i1$ %a, i1$ %b) -> (i32$ %q)
  inst @stim () -> (i1$ %a, i1$ %b)
}
entity @ff (i1$ %a, i1$ %b) -> (i32$ %q) {
  %delay = const time 1ns
  %k1 = const i32 1
  %k2 = const i32 2
  %ap = prb i1$ %a
  %bp = prb i1$ %b
  reg i32$ %q, %k1 rise %ap, %k2 rise %bp after %delay
}
proc @stim () -> (i1$ %a, i1$ %b) {
 entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %d2 = const time 2ns
  drv i1$ %a, %b1 after %d2
  drv i1$ %b, %b1 after %d2
  wait %lo for %d2
 lo:
  drv i1$ %a, %b0 after %d2
  wait %done for %d2
 done:
  wait %fin for %d2
 fin:
  halt
}
`
	for _, r := range tracesMatch(t, assembly.MustParse("r", src), assembly.MustParse("r", src), "top") {
		if q := oracle.Values(r.Trace, "top.q"); len(q) == 0 || q[len(q)-1] != 1 {
			t.Errorf("%s: q took %v, want it to end at 1 (the second trigger never rose alone)", r.Name, q)
		}
	}
}

// TestBlazeFunctionCalls checks compiled function invocation including
// recursion.
func TestBlazeFunctionCalls(t *testing.T) {
	const src = `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %n = const i32 12
  %f = call i32 @fib (i32 %n)
  %want = const i32 144
  %ok = eq i32 %f, %want
  call void @llhd.assert (i1 %ok)
  halt
}
func @fib (i32 %n) i32 {
 entry:
  %one = const i32 1
  %two = const i32 2
  %base = ule i32 %n, %two
  br %base, %rec, %ret1
 ret1:
  ret i32 %one
 rec:
  %nm1 = sub i32 %n, %one
  %nm2 = sub i32 %n, %two
  %a = call i32 @fib (i32 %nm1)
  %b = call i32 @fib (i32 %nm2)
  %r = add i32 %a, %b
  ret i32 %r
}
`
	m := assembly.MustParse("f", src)
	s, err := blaze.New(m, "top")
	if err != nil {
		t.Fatalf("blaze.New: %v", err)
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("fib(12) wrong: %d assertion failures", s.Engine.Failures)
	}
}

// TestBlazeFasterThanInterpreter is a coarse performance sanity check: the
// compiled simulator must beat the interpreter on a busy design. It guards
// the Table 2 "Int >> JIT" shape without being a benchmark.
func TestBlazeFasterThanInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	m1 := assembly.MustParse("c", counterSrc)
	m2 := assembly.MustParse("c", counterSrc)

	// The fastest of many single sessions per leg, the two legs taking
	// turns session by session: a session takes some 20-50 µs, so a burst
	// of host load (go test ./... runs packages side by side) spans a run
	// of samples of both legs alike, and none can hit all 250 of one leg.
	interpTime, blazeTime := math.Inf(1), math.Inf(1)
	for i := 0; i < 250; i++ {
		t0 := time.Now()
		s1, _ := sim.New(m1, "top")
		s1.Run(ir.Time{})
		t1 := time.Now()
		s2, _ := blaze.New(m2, "top")
		s2.Run(ir.Time{})
		interpTime = min(interpTime, t1.Sub(t0).Seconds())
		blazeTime = min(blazeTime, time.Since(t1).Seconds())
	}
	if blazeTime > interpTime {
		t.Errorf("compiled simulation (%.1f µs) slower than interpretation (%.1f µs)", 1e6*blazeTime, 1e6*interpTime)
	}
}
