// Benchmarks and smoke tests over the paper's evaluation (§6): size and
// lowering benchmarks for Table 4 and Figure 5, and one regeneration of
// each table cmd/llhd-bench prints. Simulation performance (Table 2) is
// measured by the repository benchmark (go run ./benchmark, workload
// table2_sweep). Run the benchmarks here with:
//
//	go test -bench=. -benchmem
package llhd_test

import (
	"os"
	"path/filepath"
	"testing"

	"llhd"
	"llhd/internal/bench"
	"llhd/internal/bitcode"
	"llhd/internal/designs"
	"llhd/internal/moore"
	"llhd/internal/pass"
	"llhd/internal/riscv"
)

// BenchmarkTable4 measures the serialization paths behind Table 4: text
// printing and bitcode encoding of every design.
func BenchmarkTable4(b *testing.B) {
	for _, d := range designs.All() {
		d := d
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name+"/Text", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = llhd.AssemblyString(m)
			}
		})
		b.Run(d.Name+"/Bitcode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bitcode.Encode(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMooreCompile measures the frontend per design, source text to
// Behavioural LLHD (ns/op and allocs/op). It is the inner-loop view of
// cold_start_ms and moore.parse_ms / moore.codegen_ms of
// `go run ./benchmark`, which stay the record.
func BenchmarkMooreCompile(b *testing.B) {
	for _, d := range designs.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := moore.Compile(d.Name, d.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// accSrc is the Figure 5 behavioural accumulator used by the lowering
// benchmark.
const accSrc = `
module acc (input clk, input [31:0] x, input en, output [31:0] q);
  bit [31:0] d;
  always_ff @(posedge clk) q <= #1ns d;
  always_comb begin
    d <= #2ns q;
    if (en) d <= #2ns q+x;
  end
endmodule
`

// BenchmarkFigure5Lowering measures the full §4 lowering pipeline on the
// paper's running example.
func BenchmarkFigure5Lowering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := moore.Compile("acc", accSrc)
		if err != nil {
			b.Fatal(err)
		}
		if err := pass.LoweringPipeline().RunFixpoint(m); err != nil {
			b.Fatal(err)
		}
	}
}

// loweringInputs returns what the lowering benchmark and the fixpoint test
// run on: the ten Table 2 designs and the RV32I core, the latter loading a
// one-instruction image written under the test's temp dir.
func loweringInputs(tb testing.TB) []designs.Design {
	tb.Helper()
	words, err := riscv.Assemble("j 0")
	if err != nil {
		tb.Fatal(err)
	}
	hexPath := filepath.Join(tb.TempDir(), "rv32i.hex")
	f, err := os.Create(hexPath)
	if err != nil {
		tb.Fatal(err)
	}
	if err := riscv.WriteHex(f, words); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return append(designs.All(), designs.RV32I(hexPath))
}

// fabricInput returns testdata/fabric_4x40.sv, the fabric_wide
// workload's design at 4 lanes and 40 cycles.
func fabricInput(tb testing.TB) designs.Design {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "fabric_4x40.sv"))
	if err != nil {
		tb.Fatal(err)
	}
	return designs.Design{Name: "fabric_4x40", Top: "fabric_tb", Source: string(src)}
}

// BenchmarkLower measures llhd.Lower per design (ns/op and allocs/op), the
// module built outside the timer. It is the inner-loop view of the
// lower_ms metric of `go run ./benchmark`, which stays the record.
func BenchmarkLower(b *testing.B) {
	for _, d := range loweringInputs(b) {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := moore.Compile(d.Name, d.Source)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := llhd.Lower(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlazeCompile measures llhd.CompileBlaze — elaboration plus the
// bytecode lowering with its forwarding plan — per design: the ten Table 2
// designs and the RV32I core, as the frontend emits them and after
// llhd.Lower (ns/op and allocs/op; every iteration compiles a fresh module
// decoded from bitcode outside the timer, because a compile freezes its
// module). It is the inner-loop view of cold_start_ms and blaze.compile_ms
// of `go run ./benchmark`, which stay the record.
func BenchmarkBlazeCompile(b *testing.B) {
	for _, d := range loweringInputs(b) {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []string{"behavioural", "lowered"} {
			if form == "lowered" {
				if err := llhd.Lower(m); err != nil {
					b.Fatal(err)
				}
			}
			image, err := llhd.EncodeBitcode(m)
			if err != nil {
				b.Fatal(err)
			}
			top := d.Top
			b.Run(d.Name+"/"+form, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fresh, err := llhd.DecodeBitcode(image)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := llhd.CompileBlaze(fresh, top); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBlazeRun measures Blaze sessions per design: the ten Table 2
// designs, the RV32I core and fabric_4x40 (testdata/fabric_4x40.sv, the
// fabric_wide workload's shape at 4 lanes and 40 cycles), as the frontend
// emits them and after llhd.Lower, one session from the precompiled design
// elaborated and run to the end per op (ns/op and allocs/op), the design
// compiled once outside the timer. It is the inner-loop view of
// blaze_cycles_per_s and blaze_lowered_cycles_per_s of `go run
// ./benchmark`, which stay the record.
func BenchmarkBlazeRun(b *testing.B) {
	for _, d := range append(loweringInputs(b), fabricInput(b)) {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			b.Fatal(err)
		}
		image, err := llhd.EncodeBitcode(m)
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []string{"behavioural", "lowered"} {
			fresh, err := llhd.DecodeBitcode(image)
			if err != nil {
				b.Fatal(err)
			}
			if form == "lowered" {
				if err := llhd.Lower(fresh); err != nil {
					b.Fatal(err)
				}
			}
			cd, err := llhd.CompileBlaze(fresh, d.Top)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(d.Name+"/"+form, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := llhd.NewSession(llhd.FromCompiled(cd))
					if err != nil {
						b.Fatal(err)
					}
					if err := s.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInterp measures the reference interpreter per Table 2 design:
// one session elaborated and run to the end per op (ns/op and allocs/op),
// the design compiled once outside the timer (every session shares the
// frozen module). It is the inner-loop view of interp_cycles_per_s of
// `go run ./benchmark`, which stays the record.
func BenchmarkInterp(b *testing.B) {
	for _, d := range designs.All() {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			b.Fatal(err)
		}
		top := d.Top
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := llhd.NewSession(llhd.FromModule(m), llhd.Top(top), llhd.Backend(llhd.Interp))
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSVSim measures the AST-level simulator per Table 2 design: one
// session from source text, run to the end and finished per op (ns/op and
// allocs/op), so svsim.Compile, elaboration and the run are all on the
// clock. It is the inner-loop view of svsim_cycles_per_s of
// `go run ./benchmark`, which stays the record.
func BenchmarkSVSim(b *testing.B) {
	for _, d := range designs.All() {
		src, top := d.Source, d.Top
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := llhd.NewSession(llhd.FromSystemVerilog(src), llhd.Top(top), llhd.Backend(llhd.SVSim))
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				s.Finish()
			}
		})
	}
}

// TestFarmBenchSmoke runs the farm throughput measurement once at -j 1
// and -j 2 and checks that every session completed cleanly.
func TestFarmBenchSmoke(t *testing.T) {
	rows, err := bench.RunFarmBench([]int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Sims != 20 || r.SimsPerSec <= 0 {
			t.Errorf("degenerate row: %+v", r)
		}
	}
}

// TestTable2Smoke regenerates Table 2 once and checks its shape claims:
// zero assertion failures everywhere and compiled simulation faster than
// interpretation on the large designs.
func TestTable2Smoke(t *testing.T) {
	rows, err := bench.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	fasterCount := 0
	for _, r := range rows {
		if r.Failures != 0 {
			t.Errorf("%s: %d assertion failures", r.Design, r.Failures)
		}
		if r.BlazeS < r.InterpS {
			fasterCount++
		}
	}
	// Shape: compiled simulation wins on most designs (paper: ~1000x; the
	// margin here is smaller because both share the event kernel).
	if fasterCount < 6 {
		t.Errorf("compiled simulator faster on only %d/10 designs", fasterCount)
	}
}

// TestTable4Smoke regenerates Table 4 and checks the paper's shape:
// text > SV source (unoptimized codegen), bitcode < text, linear in-memory
// footprint with the RISC-V core the largest.
func TestTable4Smoke(t *testing.T) {
	rows, err := bench.RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	var riscv, smallest bench.Table4Row
	smallest = rows[0]
	for _, r := range rows {
		if r.Bitcode >= r.Text {
			t.Errorf("%s: bitcode (%d) not smaller than text (%d)", r.Design, r.Bitcode, r.Text)
		}
		if r.InMem <= r.Text {
			t.Errorf("%s: in-memory (%d) should exceed text (%d)", r.Design, r.InMem, r.Text)
		}
		if r.Design == "RISC-V Core" {
			riscv = r
		}
		if r.InMem < smallest.InMem {
			smallest = r
		}
	}
	if riscv.InMem <= smallest.InMem {
		t.Error("RISC-V core should have the largest footprint")
	}
}

// TestTable3Shape checks the feature matrix: LLHD is the only IR covering
// every column (the paper's headline for Table 3).
func TestTable3Shape(t *testing.T) {
	rows := bench.Table3()
	llhdRow := rows[0]
	if !(llhdRow.Turing && llhdRow.Verification && llhdRow.NineValued &&
		llhdRow.FourValued && llhdRow.Behavioural && llhdRow.Structural && llhdRow.Netlist) {
		t.Error("LLHD row must cover every capability")
	}
	if llhdRow.Levels != 3 {
		t.Errorf("LLHD levels = %d, want 3", llhdRow.Levels)
	}
	for _, r := range rows[1:] {
		full := r.Turing && r.Verification && r.NineValued && r.FourValued &&
			r.Behavioural && r.Structural && r.Netlist
		if full {
			t.Errorf("%s unexpectedly covers the full flow", r.IR)
		}
	}
}

// TestPublicFacade exercises the root package API end to end.
func TestPublicFacade(t *testing.T) {
	m, err := llhd.CompileSystemVerilog("acc", accSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := llhd.LevelOf(m); got != llhd.Behavioural {
		t.Errorf("fresh compile level = %v, want behavioural", got)
	}
	if err := llhd.Lower(m); err != nil {
		t.Fatal(err)
	}
	if err := llhd.Verify(m, llhd.Structural); err != nil {
		t.Errorf("lowered accumulator not structural: %v", err)
	}
	text := llhd.AssemblyString(m)
	m2, err := llhd.ParseAssembly("rt", text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	data, err := llhd.EncodeBitcode(m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := llhd.DecodeBitcode(data); err != nil {
		t.Fatal(err)
	}
}
