package llhd_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/fuzz"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/pass"
)

// TestPassIdempotence pins per-pass convergence: every registered pass,
// run twice in a row on the same module, must report changed == false on
// the second run. A pass that keeps reporting change on its own output
// would oscillate under RunFixpoint until its iteration cap fails the
// lowering. Each pass is checked from two starting states per input —
// the freshly built behavioural module and the fully lowered one — over
// every Table 2 design and every checked-in corpus entry.
func TestPassIdempotence(t *testing.T) {
	type input struct {
		name string
		mk   func(t *testing.T) *llhd.Module
	}
	var inputs []input
	for _, d := range designs.All() {
		d := d
		inputs = append(inputs, input{name: d.Name, mk: func(t *testing.T) *llhd.Module {
			m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			return m
		}})
	}
	entries, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.llhd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range entries {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".llhd")
		inputs = append(inputs, input{name: "corpus/" + name, mk: func(t *testing.T) *llhd.Module {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := llhd.ParseAssembly(name, string(data))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			return m
		}})
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries found; idempotence coverage lost")
	}

	// Pipeline states: the idempotence bugs found by the pipeline fuzzer
	// only reproduce on pass orderings the fixed lowering pipeline never
	// visits, so fresh and fully-lowered modules alone can't pin the
	// fixes. A corpus entry that carries a "; pipeline:" directive is also
	// replayed through exactly that pipeline, and the loop below demands
	// every pass be idempotent on the resulting state.
	for _, path := range entries {
		path := path
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pipe := fuzz.PipelineDirective(string(data))
		if len(pipe) == 0 {
			continue
		}
		name := strings.TrimSuffix(filepath.Base(path), ".llhd") + "-" + strings.Join(pipe, ",")
		inputs = append(inputs, input{name: name, mk: func(t *testing.T) *llhd.Module {
			m, err := llhd.ParseAssembly(name, string(data))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			pl, err := pass.FromNames(pipe)
			if err != nil {
				t.Fatalf("FromNames: %v", err)
			}
			if _, err := pl.Run(m); err != nil {
				t.Fatalf("prep pipeline: %v", err)
			}
			return m
		}})
	}

	states := []struct {
		name string
		prep func(t *testing.T, m *llhd.Module)
	}{
		{"behavioural", func(t *testing.T, m *llhd.Module) {}},
		{"lowered", func(t *testing.T, m *llhd.Module) {
			if err := llhd.Lower(m); err != nil {
				t.Fatalf("Lower: %v", err)
			}
		}},
	}
	for _, in := range inputs {
		for _, st := range states {
			for _, info := range pass.Registry() {
				info := info
				t.Run(in.name+"/"+st.name+"/"+info.Name, func(t *testing.T) {
					m := in.mk(t)
					st.prep(t, m)
					p := info.New()
					if _, err := p.Run(m); err != nil {
						t.Fatalf("first run: %v", err)
					}
					changed, err := p.Run(m)
					if err != nil {
						t.Fatalf("second run: %v", err)
					}
					if changed {
						t.Errorf("pass %q reported change on its own output", info.Name)
					}
				})
			}
		}
	}
}

// TestLowerReachesFixpoint: llhd.Lower runs the pipeline until an
// iteration changes nothing, and fails if its cap of eight iterations comes
// first. On the Table 2 designs and on the RV32I core it must succeed.
func TestLowerReachesFixpoint(t *testing.T) {
	for _, d := range loweringInputs(t) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if err := llhd.Lower(m); err != nil {
				t.Fatalf("Lower: %v", err)
			}
		})
	}
}

// TestLoweringCoverage counts what the paper's §4 is for: after llhd.Lower,
// which processes of the ten Table 2 designs are still processes. 33 go
// in, these 28 come out; the testbench processes (`_tb_`, timed waits) stay
// by nature, the others are the work list of ROADMAP item 10. Pinned by
// name: the list may only shrink, and a change that shrinks it edits it.
func TestLoweringCoverage(t *testing.T) {
	survivors := map[string][]string{
		"gray":           {"gray_enc$W8_p0", "gray_dec$W8_p0", "gray_tb_p0"},
		"fir":            {"fir$W16_p0", "fir$W16_p1", "fir_tb_p0"},
		"lfsr":           {"lfsr_p0", "lfsr_tb_p0"},
		"lzc":            {"lzc$W16_p0", "lzc_tb_p0"},
		"fifo":           {"fifo$W16_p2", "fifo_tb_p0"},
		"cdc_gray":       {"cdc_gray_tb_p0", "cdc_gray_tb_p1", "cdc_gray_tb_p2", "cdc_gray_tb_p3", "cdc_gray_tb_p4"},
		"cdc_strobe":     {"cdc_strobe_tb_p1", "cdc_strobe_tb_p2", "cdc_strobe_tb_p3"},
		"rr_arbiter":     {"rr_arbiter_p0", "rr_arbiter_p1", "rr_arbiter_tb_p0"},
		"stream_delayer": {"stream_delayer$W8_p0", "stream_delayer$W8_p1", "stream_delayer_tb_p0"},
		"riscv":          {"riscv_core_p0", "riscv_tb_p0"},
	}
	before, after := 0, 0
	for _, d := range designs.All() {
		m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
		if err != nil {
			t.Fatalf("%s: Compile: %v", d.Name, err)
		}
		procs := func() (names []string) {
			for _, u := range m.Units {
				if u.Kind == ir.UnitProc {
					names = append(names, u.Name)
				}
			}
			return names
		}
		before += len(procs())
		if err := llhd.Lower(m); err != nil {
			t.Fatalf("%s: Lower: %v", d.Name, err)
		}
		got := procs()
		after += len(got)
		if want := survivors[d.Name]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: processes after Lower: %v, pinned %v", d.Name, got, want)
		}
	}
	if before != 33 || after != 28 {
		t.Errorf("processes before -> after Lower: %d -> %d, pinned 33 -> 28", before, after)
	}
}

// TestLowerAllocRatchet pins the allocations of llhd.Lower on the RV32I
// core, the way TestBytecodeSizeRatchet pins code sizes: the limit may
// only come down. Lower made 34.7 k allocations when mem2reg kept its
// tables in per-block maps (about 8 k of them), constant-fold had
// engine.EvalPure format an error for every instruction with an operand
// not yet known (about 6 k) and the phi-edge pruning under constant-fold
// and DCE copied the entries of every phi it looked at (about 5 k); any
// one of them coming back fails here. It reads 15.8 k with go1.24 on
// linux/amd64; the limit leaves room for other toolchains.
func TestLowerAllocRatchet(t *testing.T) {
	const limit = 20000
	var core designs.Design
	for _, d := range loweringInputs(t) {
		if d.Name == "rv32i" {
			core = d
		}
	}
	// AllocsPerRun makes one warm-up call before the measured ones, and
	// each call lowers a module of its own, compiled up front.
	const runs = 3
	mods := make([]*llhd.Module, runs+1)
	for i := range mods {
		m, err := llhd.CompileSystemVerilog(core.Name, core.Source)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		mods[i] = m
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := llhd.Lower(mods[next]); err != nil {
			t.Fatalf("Lower: %v", err)
		}
		next++
	})
	t.Logf("llhd.Lower on %s: %.0f allocations", core.Name, allocs)
	if allocs > limit {
		t.Errorf("llhd.Lower on %s made %.0f allocations, limit %d", core.Name, allocs, limit)
	}
}

// TestMooreCompileAllocRatchet pins the allocations of moore.Compile on
// the riscv design and the RV32I core, as TestLowerAllocRatchet pins
// llhd.Lower's: the limit may only come down. Together they made 9.1 k
// allocations while the type table formatted a string key and allocated
// a candidate type per lookup (1 671 of them), every binary expression
// built its opcode map (369), every assignment target listed its nets in
// a fresh slice (245), blocks were named with fmt (166), the token slice
// grew from empty (22) and readsWrites grew its two lists one name at a
// time (14). The limit sits less than the smallest of these above the
// reading, so taking back any one fails here; the lexer's byte classes
// and operator dispatch and the parser's precedence switch save time, not
// allocations, and cannot be held here. It reads 6 630 with go1.24 on
// linux/amd64 (6 645 before one walk summarized each process and the
// blocking set became a sorted list); other toolchains count maps and
// escapes differently and are held below the 9.1 k alone.
func TestMooreCompileAllocRatchet(t *testing.T) {
	limit := 6640.0
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		limit = 9000
	}
	var total float64
	for _, d := range loweringInputs(t) {
		if d.Name != "riscv" && d.Name != "rv32i" {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := moore.Compile(d.Name, d.Source); err != nil {
				t.Fatalf("%s: Compile: %v", d.Name, err)
			}
		})
		t.Logf("moore.Compile on %s: %.0f allocations", d.Name, allocs)
		total += allocs
	}
	if total > limit {
		t.Errorf("moore.Compile on riscv and rv32i made %.0f allocations, limit %.0f", total, limit)
	}
}
