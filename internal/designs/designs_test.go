package designs_test

import (
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/oracle"
)

// TestAllDesignsCompile checks that every Table 2 design maps to valid
// Behavioural LLHD.
func TestAllDesignsCompile(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			m, err := moore.Compile(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if err := ir.Verify(m, ir.Behavioural); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if m.Unit(d.Top) == nil {
				t.Fatalf("testbench %s missing", d.Top)
			}
		})
	}
}

// sourceLegs are the oracle legs a user reaches with `llhd-sim d.sv`: each
// engine handed the SystemVerilog source itself, so the Interp and Blaze
// legs run Moore inside the session (TestFarmDifferentialMatrix compiles
// once and hands the LLHD legs the module).
func sourceLegs(d designs.Design, kinds ...llhd.EngineKind) []oracle.Leg {
	legs := make([]oracle.Leg, len(kinds))
	for i, k := range kinds {
		legs[i] = oracle.Leg{Name: k.String(), Options: []llhd.SessionOption{
			llhd.FromSystemVerilog(d.Source), llhd.Top(d.Top), llhd.Backend(k)}}
	}
	return legs
}

// TestAllDesignsSelfCheck runs every design's self-checking testbench from
// source on all three simulators and requires zero assertion failures.
func TestAllDesignsSelfCheck(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			for _, r := range oracle.Run(0, sourceLegs(d, llhd.Interp, llhd.Blaze, llhd.SVSim)...) {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Name, r.Err)
				}
				if r.Finish.AssertionFailures != 0 {
					t.Errorf("%s: %d assertion failures", r.Name, r.Finish.AssertionFailures)
				}
			}
		})
	}
}

// TestTracesMatchAllDesigns is the §6.1 claim as a user meets it: "Traces
// match between the two simulators for all designs". Every design's source
// is simulated by the reference interpreter and the compiled simulator;
// the signal-change traces must be delta-exact.
func TestTracesMatchAllDesigns(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			rs := oracle.Run(0, sourceLegs(d, llhd.Interp, llhd.Blaze)...)
			for _, r := range rs {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Name, r.Err)
				}
			}
			a, b := rs[0], rs[1]
			if len(a.Trace.Entries) == 0 {
				t.Fatal("no signal changes traced")
			}
			if diff := oracle.Diff(a.Name, a.Trace, b.Name, b.Trace); diff != "" {
				t.Error(diff)
			}
			if a.Finish.AssertionFailures != b.Finish.AssertionFailures {
				t.Errorf("failure counts differ: %d vs %d", a.Finish.AssertionFailures, b.Finish.AssertionFailures)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := designs.ByName("riscv"); err != nil {
		t.Fatalf("ByName(riscv): %v", err)
	}
	if _, err := designs.ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}
