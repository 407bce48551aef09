package designs_test

import (
	"context"
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/pass"
	"llhd/internal/simtest"
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
			if err := pipeline.RunFixpoint(m, 8); err != nil {
				t.Fatalf("Lower: %v", err)
			}
			if err := ir.Verify(m, ir.Behavioural); err != nil {
				t.Errorf("Verify after Lower: %v", err)
			}
		})
	}
}

// TestFarmDifferentialMatrix is the full §6.1 cross-backend matrix, run as
// one concurrent farm per design: all ten Table 2 designs × {Interp,
// Blaze, SVSim} × {unlowered, lowered via llhd.Lower}. Within each
// lowering level the interpreter and the compiled engine must produce
// identical signal-change traces; across every cell the self-checking
// testbenches must report zero assertion failures (the SVSim and
// lowered-vs-unlowered legs compare through those embedded checks, since
// their signal sets legitimately differ). The farm shares one frozen
// module per (design, lowering) between the LLHD engines.
func TestFarmDifferentialMatrix(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			unlowered, err := llhd.CompileSystemVerilog(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			lowered, err := llhd.CompileSystemVerilog(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if err := llhd.Lower(lowered); err != nil {
				t.Fatalf("Lower: %v", err)
			}

			obs := make([]*llhd.TraceObserver, 4)
			var jobs []llhd.FarmJob
			for i, leg := range []struct {
				name string
				m    *llhd.Module
				kind llhd.EngineKind
			}{
				{"interp/unlowered", unlowered, llhd.Interp},
				{"blaze/unlowered", unlowered, llhd.Blaze},
				{"interp/lowered", lowered, llhd.Interp},
				{"blaze/lowered", lowered, llhd.Blaze},
			} {
				obs[i] = &llhd.TraceObserver{}
				opts := []llhd.SessionOption{
					llhd.FromModule(leg.m), llhd.Top(d.Top),
					llhd.Backend(leg.kind), llhd.WithObserver(obs[i]),
				}
				jobs = append(jobs, llhd.FarmJob{Name: leg.name, Options: opts})
			}
			jobs = append(jobs, llhd.FarmJob{
				Name: "svsim",
				Options: []llhd.SessionOption{
					llhd.FromSystemVerilog(d.Source), llhd.Top(d.Top),
					llhd.Backend(llhd.SVSim),
				},
			})

			var farm llhd.Farm
			results := farm.Run(context.Background(), jobs...)
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Name, r.Err)
				}
				if r.Stats.AssertionFailures != 0 {
					t.Errorf("%s: %d assertion failures", r.Name, r.Stats.AssertionFailures)
				}
			}

			// Interp vs Blaze per lowering level: identical traces.
			simtest.CompareTraces(t, simtest.Strings(obs[0]), simtest.Strings(obs[1]))
			simtest.CompareTraces(t, simtest.Strings(obs[2]), simtest.Strings(obs[3]))
			if !unlowered.Frozen() || !lowered.Frozen() {
				t.Error("farm must have frozen both shared modules")
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
