package designs_test

import (
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/fuzz"
	"llhd/internal/ir"
	"llhd/internal/pass"
)

// TestLowerProducesValidIR pins the §4 pipeline on the full benchmark
// suite: lowering any Table 2 design must yield IR that passes the
// verifier — including the phi-placement and phi-edge-dominance rules the
// execution engines rely on. It runs the pipeline with VerifyEach on, so
// an invariant break anywhere inside the fixpoint is attributed to the
// pass that introduced it rather than surfacing as a post-hoc failure.
func TestLowerProducesValidIR(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			pipeline := pass.LoweringPipeline()
			pipeline.VerifyEach = true
			if err := pipeline.RunFixpoint(m); err != nil {
				t.Fatalf("Lower: %v", err)
			}
			if err := ir.Verify(m, ir.Behavioural); err != nil {
				t.Errorf("Verify after Lower: %v", err)
			}
		})
	}
}

// TestFarmDifferentialMatrix is the full §6.1 cross-backend matrix: every
// Table 2 design through fuzz.CheckSV — {Interp, Blaze} × {unlowered,
// lowered via llhd.Lower} plus SVSim, one concurrent farm per design.
// Both copies must verify (the lowered one after lowering), every leg
// must finish with zero assertion failures, interpreter and compiled
// engine must trace identically within each lowering level, and the
// top-level signals must settle identically across lowering levels.
func TestFarmDifferentialMatrix(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			if f := fuzz.CheckSV(d.Name, d.Source, d.Top, fuzz.Options{}); f != nil {
				t.Errorf("%s: %s", f.Class, f.Reason)
			}
		})
	}
}

// TestCompileDeterministic pins frontend determinism: compiling the same
// source repeatedly must print byte-identical assembly. The riscv design
// used to flake here — its %rf and %imem array vars were emitted in map
// iteration order — which broke the fuzzer's mk-determinism oracle and
// would give the content-addressed design cache distinct keys for the
// same source. Fifty recompiles caught that reliably before the fix
// (sorted map iteration in the process generator).
func TestCompileDeterministic(t *testing.T) {
	for _, d := range designs.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			ref := llhd.AssemblyString(m)
			for i := 0; i < 50; i++ {
				m2, err := llhd.CompileSystemVerilog(d.Name, d.Source)
				if err != nil {
					t.Fatalf("recompile %d: %v", i, err)
				}
				if got := llhd.AssemblyString(m2); got != ref {
					t.Fatalf("recompile %d printed differently than the first compile", i)
				}
			}
		})
	}
}
