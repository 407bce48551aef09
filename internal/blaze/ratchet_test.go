package blaze_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"llhd/internal/blaze"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/riscv"
)

// compileDesign compiles a design from source and returns its module and
// lowered units.
func compileDesign(t *testing.T, d designs.Design) (*ir.Module, *blaze.CompiledDesign) {
	t.Helper()
	m, err := moore.Compile(d.Name, d.Source)
	if err != nil {
		t.Fatalf("%s: Compile: %v", d.Name, err)
	}
	cd, err := blaze.Compile(m, d.Top)
	if err != nil {
		t.Fatalf("%s: blaze.Compile: %v", d.Name, err)
	}
	return m, cd
}

// rv32iDesign returns the RV32I core over a one-instruction image.
func rv32iDesign(t *testing.T) designs.Design {
	t.Helper()
	words, err := riscv.Assemble("j 0")
	if err != nil {
		t.Fatal(err)
	}
	var hex strings.Builder
	if err := riscv.WriteHex(&hex, words); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rv32i.hex")
	if err := os.WriteFile(path, []byte(hex.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return designs.RV32I(path)
}

// TestBytecodeSizeRatchet pins how many instructions each unit of the ten
// Table 2 designs and of the RV32I core lowers to, the way
// TestLoweringCoverage pins the surviving processes: the forwarding plan
// (bytecode/plan.go) is what the numbers measure, they may only shrink,
// and a change that shrinks one edits it here. Transcribed one Instr per
// IR instruction, rv32i_core_p1 was 824. In that unit, the one the RV32I
// workload spends its time in, every ld of a private var must also be
// forwarded, and only the three memories, whose initial contents are read,
// may be initialised: the always block's automatic locals are stored
// before they are loaded. In no unit may a jump land on a branch.
func TestBytecodeSizeRatchet(t *testing.T) {
	pinned := map[string]string{
		"gray":           "gray_dec$W8_p0=16 gray_enc$W8_p0=10 gray_tb_p0=23",
		"fir":            "fir$W16_p0=27 fir$W16_p1=18 fir_tb_p0=47",
		"lfsr":           "lfsr_p0=27 lfsr_tb_p0=41",
		"lzc":            "lzc$W16_p0=24 lzc_tb_p0=44",
		"fifo":           "fifo$W16_p0=6 fifo$W16_p1=6 fifo$W16_p2=93 fifo_tb_p0=130",
		"cdc_gray":       "cdc_gray_tb_p0=16 cdc_gray_tb_p1=10 cdc_gray_tb_p2=16 cdc_gray_tb_p3=15 cdc_gray_tb_p4=25 sync2$W8_p0=12",
		"cdc_strobe":     "cdc_strobe_tb_p0=14 cdc_strobe_tb_p1=24 cdc_strobe_tb_p2=25 cdc_strobe_tb_p3=23",
		"rr_arbiter":     "rr_arbiter_p0=26 rr_arbiter_p1=41 rr_arbiter_tb_p0=71",
		"stream_delayer": "stream_delayer$W8_p0=26 stream_delayer$W8_p1=5 stream_delayer$W8_p2=4 stream_delayer_tb_p0=50",
		"riscv":          "riscv_core_p0=136 riscv_tb_p0=28",
		"rv32i":          "rv32i_core_p0=1 rv32i_core_p1=352 rv32i_tb_p0=28",
	}
	for _, d := range append(designs.All(), rv32iDesign(t)) {
		m, cd := compileDesign(t, d)
		var sizes []string
		for name, u := range cd.LoweredUnits() {
			sizes = append(sizes, fmt.Sprintf("%s=%d", name, len(u.Code)))
		}
		sort.Strings(sizes)
		if got := strings.Join(sizes, " "); got != pinned[d.Name] {
			t.Errorf("%s: lowered code sizes\n  got    %s\n  pinned %s", d.Name, got, pinned[d.Name])
		}
		if d.Name == "rv32i" {
			checkLoadsForwarded(t, m, cd, "rv32i_core_p1")
			if n := countOps(cd, "rv32i_core_p1", "clone"); n != 3 {
				t.Errorf("@rv32i_core_p1 initialises %d vars, want 3 (imem, rf, dmem)", n)
			}
		}
		for name, u := range cd.LoweredUnits() {
			for pc, i := range u.Code {
				if i.Op.String() != "jump" {
					continue
				}
				switch target := u.Code[i.A].Op.String(); target {
				case "branch", "br.eq", "br.ult":
					t.Errorf("@%s pc %d: jump to a %s", name, pc, target)
				}
			}
		}
	}
}

// countOps returns how many instructions of the lowered unit have the
// mnemonic.
func countOps(cd *blaze.CompiledDesign, unit, mnemonic string) int {
	n := 0
	for _, i := range cd.LoweredUnits()[unit].Code {
		if i.Op.String() == mnemonic {
			n++
		}
	}
	return n
}

// checkLoadsForwarded holds one unit to the point of load forwarding: no
// transcribed ld of a private var — a move out of the var's register into
// a plain value register — is left in it. What may stay is the var-to-var
// copy of a st whose value is a forwarded load. (A var is private when ld,
// st and free address it and nothing else names it.)
func checkLoadsForwarded(t *testing.T, m *ir.Module, cd *blaze.CompiledDesign, name string) {
	t.Helper()
	escaped := map[int]bool{}
	vars := map[int]bool{}
	m.Unit(name).ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpVar || in.Op == ir.OpAlloc {
			vars[ir.ValueID(in)] = true
		}
		addr := in.Op == ir.OpLd || in.Op == ir.OpSt || in.Op == ir.OpFree
		k := 0
		in.Operands(func(v ir.Value) {
			if !(addr && k == 0) {
				escaped[ir.ValueID(v)] = true
			}
			k++
		})
	})
	private := 0
	for id := range vars {
		if !escaped[id] {
			private++
		}
	}
	if private == 0 {
		t.Fatalf("@%s has no private var: the check looks at nothing", name)
	}
	for pc, i := range cd.LoweredUnits()[name].Code {
		if i.Op.String() == "move" && vars[int(i.A)] && !escaped[int(i.A)] && !vars[int(i.Dst)] {
			t.Errorf("@%s pc %d: move r%d, r%d is a ld of a private var, transcribed", name, pc, i.Dst, i.A)
		}
	}
}
