package pass

import (
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
)

// accBehavioural is the left column of Figure 5: the accumulator as
// emitted from the SystemVerilog source of Figure 3.
const accBehavioural = `
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

func parseAcc(t *testing.T) *ir.Module {
	t.Helper()
	return assembly.MustParse("acc", accBehavioural)
}

func mustRun(t *testing.T, p Pass, m *ir.Module) bool {
	t.Helper()
	changed, err := p.Run(m)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return changed
}

func TestTemporalRegionsAcc(t *testing.T) {
	m := parseAcc(t)
	ff := m.Unit("acc_ff")
	trs := ir.TemporalRegions(ir.NewDomTree(ff))
	if trs.Count != 2 {
		t.Errorf("acc_ff has %d TRs, want 2 (Figure 5 a/b)", trs.Count)
	}
	// init is its own TR; check and event share the other.
	byName := map[string]*ir.Block{}
	for _, b := range ff.Blocks {
		byName[b.ValueName()] = b
	}
	if trs.Of(byName["init"]) == trs.Of(byName["check"]) {
		t.Error("init and check must be in different TRs (wait boundary)")
	}
	if trs.Of(byName["check"]) != trs.Of(byName["event"]) {
		t.Error("check and event must share a TR")
	}

	comb := m.Unit("acc_comb")
	trsC := ir.TemporalRegions(ir.NewDomTree(comb))
	if trsC.Count != 1 {
		t.Errorf("acc_comb has %d TRs, want 1", trsC.Count)
	}
}

func TestECMHoistsConstantsAndProbes(t *testing.T) {
	m := parseAcc(t)
	mustRun(t, ECM(), m)
	ff := m.Unit("acc_ff")
	// The 1ns constant from event must now be in the entry block (init).
	entryHasConst := false
	for _, in := range ff.Entry().Insts {
		if in.Op == ir.OpConstTime {
			entryHasConst = true
		}
	}
	if !entryHasConst {
		t.Error("ECM did not hoist the time constant into the entry block")
	}
	// prb %d must have moved from event to check (same-TR entry) and no
	// further: it may not cross the wait into init.
	var prbD *ir.Inst
	ff.ForEachInst(func(b *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpPrb && in.Args[0].ValueName() == "d" {
			prbD = in
		}
	})
	if prbD == nil {
		t.Fatal("prb of d disappeared")
	}
	if got := prbD.Block().ValueName(); got != "check" {
		t.Errorf("prb d hoisted to %q, want check (TR-limited)", got)
	}
}

func TestTCMAccFF(t *testing.T) {
	m := parseAcc(t)
	mustRun(t, ECM(), m)
	mustRun(t, TCM(), m)
	ff := m.Unit("acc_ff")

	// Figure 5d: the drive moved into the auxiliary exit block with the
	// %posedge condition attached.
	var drv *ir.Inst
	ff.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpDrv {
			drv = in
		}
	})
	if drv == nil {
		t.Fatal("drive disappeared")
	}
	if len(drv.Args) != 4 {
		t.Fatalf("moved drive lacks a condition: %d args", len(drv.Args))
	}
	if cond, ok := drv.Args[3].(*ir.Inst); !ok || cond.ValueName() != "posedge" {
		t.Errorf("drive condition = %v, want %%posedge", drv.Args[3])
	}
	// The block holding the drive must be the single TR1 exit.
	trs := ir.TemporalRegions(ir.NewDomTree(ff))
	exits := trs.ExitBlocks()
	tr := trs.Of(drv.Block())
	if len(exits[tr]) != 1 || exits[tr][0] != drv.Block() {
		t.Error("drive is not in the unique exiting block of its TR")
	}
}

func TestTCMAccCombCoalesce(t *testing.T) {
	m := parseAcc(t)
	mustRun(t, ECM(), m)
	mustRun(t, TCM(), m)
	comb := m.Unit("acc_comb")

	// Figure 5f/g: exactly one drive remains, selecting via mux, and it is
	// unconditional (control always reaches it).
	var drives []*ir.Inst
	comb.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpDrv {
			drives = append(drives, in)
		}
	})
	if len(drives) != 1 {
		t.Fatalf("%d drives after TCM, want 1 (coalesced)", len(drives))
	}
	drv := drives[0]
	if len(drv.Args) != 3 {
		t.Errorf("coalesced drive should be unconditional, has %d args", len(drv.Args))
	}
	mux, ok := drv.Args[1].(*ir.Inst)
	if !ok || mux.Op != ir.OpMux {
		t.Fatalf("coalesced drive value is %v, want mux", drv.Args[1])
	}
	if sel, ok := mux.Args[1].(*ir.Inst); !ok || sel.ValueName() != "enp" {
		t.Errorf("mux selector = %v, want %%enp", mux.Args[1])
	}
}

func TestTCFEAccComb(t *testing.T) {
	m := parseAcc(t)
	mustRun(t, ECM(), m)
	mustRun(t, TCM(), m)
	mustRun(t, DCE(), m)
	mustRun(t, TCFE(), m)
	comb := m.Unit("acc_comb")
	if len(comb.Blocks) != 1 {
		t.Fatalf("acc_comb has %d blocks after TCFE, want 1 (Figure 5g)", len(comb.Blocks))
	}
	ff := m.Unit("acc_ff")
	if len(ff.Blocks) != 2 {
		t.Fatalf("acc_ff has %d blocks after TCFE, want 2 (Figure 5d)", len(ff.Blocks))
	}
}

func TestProcessLoweringAccComb(t *testing.T) {
	m := parseAcc(t)
	mustRun(t, ECM(), m)
	mustRun(t, TCM(), m)
	mustRun(t, DCE(), m)
	mustRun(t, TCFE(), m)
	mustRun(t, ProcessLowering(), m)
	comb := m.Unit("acc_comb")
	if comb.Kind != ir.UnitEntity {
		t.Fatalf("acc_comb is still a %s, want entity (Figure 5h)", comb.Kind)
	}
	if err := ir.VerifyUnit(comb, ir.Structural); err != nil {
		t.Errorf("lowered acc_comb not structural: %v", err)
	}
	// acc_ff must not lower via PL: it is sequential.
	if m.Unit("acc_ff").Kind != ir.UnitProc {
		t.Error("acc_ff wrongly lowered by PL")
	}
}

func TestDeseqAccFF(t *testing.T) {
	m := parseAcc(t)
	mustRun(t, ECM(), m)
	mustRun(t, TCM(), m)
	mustRun(t, DCE(), m)
	mustRun(t, TCFE(), m)
	mustRun(t, Desequentialize(), m)
	ff := m.Unit("acc_ff")
	if ff.Kind != ir.UnitEntity {
		t.Fatalf("acc_ff not desequentialized")
	}
	var reg *ir.Inst
	ff.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpReg {
			reg = in
		}
	})
	if reg == nil {
		t.Fatal("no reg in desequentialized acc_ff")
	}
	if len(reg.Triggers) != 1 {
		t.Fatalf("reg has %d triggers, want 1", len(reg.Triggers))
	}
	tr := reg.Triggers[0]
	if tr.Mode != ir.RegRise {
		t.Errorf("trigger mode = %v, want rise (¬clk0 ∧ clk1)", tr.Mode)
	}
	if tr.Gate != nil {
		t.Errorf("trigger gate = %v, want none", tr.Gate)
	}
	if trig, ok := tr.Trigger.(*ir.Inst); !ok || trig.Op != ir.OpPrb {
		t.Errorf("trigger must be a probe of clk, got %v", tr.Trigger)
	}
	if reg.Delay == nil {
		t.Error("reg lost the 1ns delay")
	}
	if err := ir.VerifyUnit(ff, ir.Structural); err != nil {
		t.Errorf("desequentialized acc_ff not structural: %v", err)
	}
}

// TestFullLoweringFigure5 runs the complete pipeline and checks the final
// form of Figure 5k: a single @acc entity containing a reg with a rise
// trigger on clk, gated by en, storing q+x.
func TestFullLoweringFigure5(t *testing.T) {
	m := parseAcc(t)
	if err := LoweringPipeline().RunFixpoint(m); err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := ir.Verify(m, ir.Structural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	acc := m.Unit("acc")
	if acc == nil || acc.Kind != ir.UnitEntity {
		t.Fatal("@acc missing or not an entity")
	}
	// The children were inlined and removed.
	if m.Unit("acc_ff") != nil || m.Unit("acc_comb") != nil {
		t.Error("children not inlined away (Figure 5 Inline step)")
	}
	var reg *ir.Inst
	acc.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpReg {
			reg = in
		}
	})
	if reg == nil {
		t.Fatalf("no reg in final @acc:\n%s", assembly.StringUnit(acc))
	}
	if len(reg.Triggers) != 1 {
		t.Fatalf("reg has %d triggers, want 1", len(reg.Triggers))
	}
	tr := reg.Triggers[0]
	if tr.Mode != ir.RegRise {
		t.Errorf("trigger mode = %v, want rise", tr.Mode)
	}
	// Figure 5k: value is the sum q+x, gate is en.
	sum, ok := tr.Value.(*ir.Inst)
	if !ok || sum.Op != ir.OpAdd {
		t.Errorf("reg value = %v, want add (q+x):\n%s", tr.Value, assembly.StringUnit(acc))
	}
	if tr.Gate == nil {
		t.Errorf("reg gate missing, want en probe:\n%s", assembly.StringUnit(acc))
	} else if g, ok := tr.Gate.(*ir.Inst); !ok || g.Op != ir.OpPrb {
		t.Errorf("reg gate = %v, want prb en", tr.Gate)
	}
	// The intermediate %d signal was forwarded away.
	for _, in := range acc.Body().Insts {
		if in.Op == ir.OpSig {
			t.Errorf("local signal %s survived forwarding", in)
		}
	}
	// Printed form contains the reg clause of Figure 5k.
	text := assembly.StringUnit(acc)
	if !strings.Contains(text, "rise") || !strings.Contains(text, "if") {
		t.Errorf("final @acc missing rise/if clause:\n%s", text)
	}
}
