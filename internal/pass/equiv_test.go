package pass_test

import (
	"testing"

	"llhd"
	"llhd/internal/assembly"
	"llhd/internal/ir"
	"llhd/internal/oracle"
	"llhd/internal/pass"
)

// accWithTB wraps the Figure 5 accumulator in a testbench that pulses the
// clock slowly enough that both the behavioural version (with its 1ns/2ns
// delays) and the lowered structural version (delta-delay reg) settle
// between samples.
const accWithTB = `
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %en = sig i1 %z1
  %x = sig i32 %z32
  %q = sig i32 %z32
  inst @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q)
  inst @stim (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en)
}
proc @stim (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en) {
 entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %zero = const i32 0
  %one = const i32 1
  %n = const i32 40
  %d = const time 10ns
  %i = var i32 %zero
  drv i1$ %en, %b1 after %d
  wait %loop for %d
 loop:
  %ip = ld i32* %i
  drv i32$ %x, %ip after %d
  wait %hi for %d
 hi:
  drv i1$ %clk, %b1 after %d
  wait %lo for %d
 lo:
  drv i1$ %clk, %b0 after %d
  wait %next for %d
 next:
  %in = add i32 %ip, %one
  st i32* %i, %in
  %c = ult i32 %ip, %n
  br %c, %done, %loop
 done:
  halt
}
` + accBehaviouralText

const accBehaviouralText = `
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

// qSequence simulates the module and returns the sequence of values taken
// by top.q (ignoring timestamps, which legitimately differ between the
// behavioural and lowered forms).
func qSequence(t *testing.T, m *ir.Module) []uint64 {
	t.Helper()
	r := oracle.Run(0, oracle.Leg{Name: "interp", Options: []llhd.SessionOption{
		llhd.FromModule(m), llhd.Top("top"), llhd.Backend(llhd.Interp)}})[0]
	if r.Err != nil {
		t.Fatalf("Run: %v", r.Err)
	}
	return oracle.Values(r.Trace, "top.q")
}

// TestLoweringPreservesBehaviour simulates the accumulator before and
// after the §4 lowering and compares the value sequences on q. This is
// the semantic backbone of the Figure 5 claim: the structural form is an
// equivalent circuit.
func TestLoweringPreservesBehaviour(t *testing.T) {
	before := assembly.MustParse("m", accWithTB)
	after := assembly.MustParse("m", accWithTB)
	if err := pass.LoweringPipeline().RunFixpoint(after); err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := ir.Verify(after, ir.Behavioural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The DUT must have become structural; the testbench stays.
	if after.Unit("acc").Kind != ir.UnitEntity {
		t.Fatal("acc not lowered")
	}

	seqBefore := qSequence(t, before)
	seqAfter := qSequence(t, after)
	if len(seqBefore) == 0 {
		t.Fatal("behavioural q never changed")
	}
	if len(seqBefore) != len(seqAfter) {
		t.Fatalf("q change counts differ: behavioural %d vs lowered %d\n%v\n%v",
			len(seqBefore), len(seqAfter), seqBefore, seqAfter)
	}
	for i := range seqBefore {
		if seqBefore[i] != seqAfter[i] {
			t.Fatalf("q sequence diverges at %d: %d vs %d", i, seqBefore[i], seqAfter[i])
		}
	}
	// Sanity: final value is the sum of all driven x values 0..40.
	want := uint64(40 * 41 / 2)
	if got := seqBefore[len(seqBefore)-1]; got != want {
		t.Errorf("final q = %d, want %d", got, want)
	}
}
