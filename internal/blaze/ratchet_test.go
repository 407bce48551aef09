package blaze_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"llhd/internal/blaze"
	"llhd/internal/blaze/bytecode"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/pass"
	"llhd/internal/riscv"
)

// compileDesign compiles a design from source, lowered by the §4 pipeline
// when asked, and returns its module and lowered units.
func compileDesign(t *testing.T, d designs.Design, lowered bool) (*ir.Module, *blaze.CompiledDesign) {
	t.Helper()
	m, err := moore.Compile(d.Name, d.Source)
	if err != nil {
		t.Fatalf("%s: Compile: %v", d.Name, err)
	}
	if lowered {
		if err := pass.LoweringPipeline().RunFixpoint(m); err != nil {
			t.Fatalf("%s: lowering: %v", d.Name, err)
		}
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
// Table 2 designs, of the RV32I core and of fabric_4x40 (the fabric_wide
// workload's shape, testdata/fabric_4x40.sv) lowers to, as the frontend
// emits them and after the §4 lowering, the way TestLoweringCoverage pins the
// surviving processes: the forwarding plan (bytecode/plan.go) is what the
// numbers measure, they may only shrink, and a change that shrinks one
// edits it here. Transcribed one Instr per IR instruction, rv32i_core_p1
// was 824. In that unit, the one the RV32I workload spends its time in,
// every ld of a private var must also be forwarded, and only the three
// memories, whose initial contents are read, may be initialised: the
// always block's automatic locals are stored before they are loaded. In no
// unit may a jump land on a branch, an edge move copy a register onto
// itself, or a block probe a signal that it or a dominating block of its
// temporal region probed already. The copies the edge moves
// of each lowered unit make are pinned too (rule 11 of plan.go keeps
// them down), so that they cannot grow back unseen.
func TestBytecodeSizeRatchet(t *testing.T) {
	pinned := map[string]string{
		"gray":           "gray_dec$W8_p0=13 gray_enc$W8_p0=6 gray_tb_p0=22",
		"fir":            "fir$W16_p0=24 fir$W16_p1=13 fir_tb_p0=41",
		"lfsr":           "lfsr_p0=20 lfsr_tb_p0=39",
		"lzc":            "lzc$W16_p0=22 lzc_tb_p0=41",
		"fifo":           "fifo$W16_p0=5 fifo$W16_p1=5 fifo$W16_p2=58 fifo_tb_p0=118",
		"cdc_gray":       "cdc_gray_tb_p0=10 cdc_gray_tb_p1=6 cdc_gray_tb_p2=13 cdc_gray_tb_p3=15 cdc_gray_tb_p4=22 sync2$W8_p0=9",
		"cdc_strobe":     "cdc_strobe_tb_p0=10 cdc_strobe_tb_p1=17 cdc_strobe_tb_p2=25 cdc_strobe_tb_p3=20",
		"rr_arbiter":     "rr_arbiter_p0=24 rr_arbiter_p1=30 rr_arbiter_tb_p0=67",
		"stream_delayer": "stream_delayer$W8_p0=23 stream_delayer$W8_p1=5 stream_delayer$W8_p2=4 stream_delayer_tb_p0=49",
		"riscv":          "riscv_core_p0=105 riscv_tb_p0=27",
		"rv32i":          "rv32i_core_p0=1 rv32i_core_p1=276 rv32i_tb_p0=26",
		"fabric_4x40":    "fabric_tb_p0=5 fabric_tb_p10=5 fabric_tb_p11=5 fabric_tb_p12=12 fabric_tb_p13=42 fabric_tb_p1=5 fabric_tb_p2=5 fabric_tb_p3=5 fabric_tb_p4=5 fabric_tb_p5=5 fabric_tb_p6=5 fabric_tb_p7=5 fabric_tb_p8=5 fabric_tb_p9=5 fifo$W16_p0=5 fifo$W16_p1=5 fifo$W16_p2=58 fir$W16_p0=24 fir$W16_p1=13 gray_dec$W8_p0=13 gray_enc$W8_p0=6 lfsr_p0=20 lzc$W16_p0=22 rr_arbiter_p0=24 rr_arbiter_p1=30 stream_delayer$W8_p0=23 stream_delayer$W8_p1=5 stream_delayer$W8_p2=4",
	}
	pinnedLowered := map[string]string{
		"gray":           "gray_dec$W8_p0=12 gray_enc$W8_p0=6 gray_tb_p0=33",
		"fir":            "fir$W16_p0=29 fir$W16_p1=13 fir_tb_p0=37",
		"lfsr":           "lfsr_p0=24 lfsr_tb_p0=38",
		"lzc":            "lzc$W16_p0=18 lzc_tb_p0=54",
		"fifo":           "fifo$W16=6 fifo$W16_p2=59 fifo_tb_p0=115",
		"cdc_gray":       "cdc_gray_tb_p0=13 cdc_gray_tb_p1=6 cdc_gray_tb_p2=12 cdc_gray_tb_p3=14 cdc_gray_tb_p4=19 sync2$W8=6",
		"cdc_strobe":     "cdc_strobe_tb=6 cdc_strobe_tb_p1=21 cdc_strobe_tb_p2=23 cdc_strobe_tb_p3=19",
		"rr_arbiter":     "rr_arbiter_p0=22 rr_arbiter_p1=33 rr_arbiter_tb_p0=84",
		"stream_delayer": "stream_delayer$W8=3 stream_delayer$W8_p0=31 stream_delayer$W8_p1=5 stream_delayer_tb_p0=40",
		"riscv":          "riscv_core_p0=122 riscv_tb_p0=26",
		"rv32i":          "rv32i_core_p0=1 rv32i_core_p1=306 rv32i_tb_p0=24",
		"fabric_4x40":    "fabric_tb=13 fabric_tb_p0=5 fabric_tb_p11=5 fabric_tb_p12=12 fabric_tb_p13=42 fabric_tb_p2=5 fabric_tb_p3=5 fabric_tb_p5=5 fabric_tb_p6=5 fabric_tb_p8=5 fabric_tb_p9=5 fifo$W16=6 fifo$W16_p2=59 fir$W16_p0=29 fir$W16_p1=13 gray_dec$W8_p0=12 gray_enc$W8_p0=6 lfsr_p0=24 lzc$W16_p0=18 rr_arbiter_p0=22 rr_arbiter_p1=33 stream_delayer$W8=3 stream_delayer$W8_p0=31 stream_delayer$W8_p1=5",
	}
	// The copies the edge moves of each unit make after the §4 lowering,
	// which turns vars into phis (the behavioural units have no phi). They
	// are what rule 11 leaves: the moves of constants, and of values whose
	// live ranges meet the phi's.
	pinnedCopies := map[string]string{
		"gray":           "gray_dec$W8_p0=1 gray_enc$W8_p0=0 gray_tb_p0=7",
		"fir":            "fir$W16_p0=0 fir$W16_p1=0 fir_tb_p0=4",
		"lfsr":           "lfsr_p0=0 lfsr_tb_p0=2",
		"lzc":            "lzc$W16_p0=1 lzc_tb_p0=4",
		"fifo":           "fifo$W16=0 fifo$W16_p2=1 fifo_tb_p0=6",
		"cdc_gray":       "cdc_gray_tb_p0=0 cdc_gray_tb_p1=0 cdc_gray_tb_p2=1 cdc_gray_tb_p3=1 cdc_gray_tb_p4=1 sync2$W8=0",
		"cdc_strobe":     "cdc_strobe_tb=0 cdc_strobe_tb_p1=0 cdc_strobe_tb_p2=2 cdc_strobe_tb_p3=1",
		"rr_arbiter":     "rr_arbiter_p0=1 rr_arbiter_p1=0 rr_arbiter_tb_p0=18",
		"stream_delayer": "stream_delayer$W8=0 stream_delayer$W8_p0=0 stream_delayer$W8_p1=0 stream_delayer_tb_p0=7",
		"riscv":          "riscv_core_p0=48 riscv_tb_p0=1",
		"rv32i":          "rv32i_core_p0=0 rv32i_core_p1=131 rv32i_tb_p0=1",
		"fabric_4x40":    "fabric_tb=0 fabric_tb_p0=0 fabric_tb_p11=0 fabric_tb_p12=0 fabric_tb_p13=1 fabric_tb_p2=0 fabric_tb_p3=0 fabric_tb_p5=0 fabric_tb_p6=0 fabric_tb_p8=0 fabric_tb_p9=0 fifo$W16=0 fifo$W16_p2=1 fir$W16_p0=0 fir$W16_p1=0 gray_dec$W8_p0=1 gray_enc$W8_p0=0 lfsr_p0=0 lzc$W16_p0=1 rr_arbiter_p0=1 rr_arbiter_p1=0 stream_delayer$W8=0 stream_delayer$W8_p0=0 stream_delayer$W8_p1=0",
	}
	fabric, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fabric_4x40.sv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(designs.All(), rv32iDesign(t), designs.Design{Name: "fabric_4x40", Top: "fabric_tb", Source: string(fabric)}) {
		for _, lowered := range []bool{false, true} {
			m, cd := compileDesign(t, d, lowered)
			want, form := pinned[d.Name], "behavioural"
			if lowered {
				want, form = pinnedLowered[d.Name], "lowered"
			}
			var sizes, copies []string
			for name, u := range cd.LoweredUnits() {
				sizes = append(sizes, fmt.Sprintf("%s=%d", name, len(u.Code)))
				copies = append(copies, fmt.Sprintf("%s=%d", name, countCopies(u)))
			}
			sort.Strings(sizes)
			sort.Strings(copies)
			if got := strings.Join(sizes, " "); got != want {
				t.Errorf("%s (%s): lowered code sizes\n  got    %s\n  pinned %s", d.Name, form, got, want)
			}
			if got := strings.Join(copies, " "); lowered && got != pinnedCopies[d.Name] {
				t.Errorf("%s (lowered): edge-move copies\n  got    %s\n  pinned %s", d.Name, got, pinnedCopies[d.Name])
			}
			if d.Name == "rv32i" && !lowered {
				checkLoadsForwarded(t, m, cd, "rv32i_core_p1")
				if n := countOps(cd, "rv32i_core_p1", "clone"); n != 3 {
					t.Errorf("@rv32i_core_p1 initialises %d vars, want 3 (imem, rf, dmem)", n)
				}
			}
			for name, u := range cd.LoweredUnits() {
				checkTransfersAndMoves(t, name, u)
				checkProbesOncePerRegion(t, m.Unit(name), u)
			}
		}
	}
}

// countCopies returns how many copies the edge moves of u make: the
// pairs its moves instructions hold.
func countCopies(u *bytecode.Unit) int {
	n := 0
	for _, i := range u.Code {
		if i.Op.String() == "moves" {
			n += int(i.B)
		}
	}
	return n
}

// checkTransfersAndMoves holds a lowered unit to rule 7 and the edge
// moves of plan.go: no jump lands on a branch, and no edge move copies a
// register onto itself.
func checkTransfersAndMoves(t *testing.T, name string, u *bytecode.Unit) {
	t.Helper()
	for pc, i := range u.Code {
		switch i.Op.String() {
		case "jump":
			switch target := u.Code[i.A].Op.String(); target {
			case "branch", "br.eq", "br.ult", "br.rise":
				t.Errorf("@%s pc %d: jump to a %s", name, pc, target)
			}
		case "moves":
			for k := i.A; k < i.A+2*i.B; k += 2 {
				if u.Aux[k] == u.Aux[k+1] {
					t.Errorf("@%s pc %d: edge move r%d -> r%d", name, pc, u.Aux[k], u.Aux[k+1])
				}
			}
		}
	}
}

// checkProbesOncePerRegion holds a lowered unit to rule 9 of plan.go:
// it holds one prb per signal and block of its IR unit, but for a block
// whose nearest dominator probing the signal lies in its temporal region.
// So no block probes a signal twice, none probes one that a dominating
// block of its region probed, and no probe went missing.
func checkProbesOncePerRegion(t *testing.T, unit *ir.Unit, u *bytecode.Unit) {
	t.Helper()
	type probe struct {
		block *ir.Block
		sig   ir.Value
	}
	probed := map[probe]bool{}
	unit.ForEachInst(func(b *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpPrb {
			probed[probe{b, in.Args[0]}] = true
		}
	})
	dom := ir.NewDomTree(unit)
	trs := ir.TemporalRegions(dom)
	want := 0
	for p := range probed {
		want++
		for b := p.block; dom.Reachable(b) && b != unit.Entry(); {
			if b = dom.IDom(b); probed[probe{b, p.sig}] {
				if trs.SameTR(b, p.block) {
					want--
				}
				break
			}
		}
	}
	got := 0
	for _, i := range u.Code {
		switch i.Op.String() {
		case "prb", "br.rise": // an edge wait's test probes too (rule 13)
			got++
		}
	}
	if got != want {
		t.Errorf("@%s holds %d prb, want %d: one per signal and temporal region", unit.Name, got, want)
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
