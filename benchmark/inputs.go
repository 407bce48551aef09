package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"llhd/internal/designs"
	"llhd/internal/riscv"
)

// design is one simulation input: SystemVerilog text plus the top to
// elaborate. Everything a correct run must reproduce (cycles, final
// time, final signal values, verdicts) is attached by set-up in
// reference.go.
type design struct {
	name   string
	top    string
	source string
	// cycleSig is the signal whose activity defines one testbench
	// cycle: rising edges for a 1-bit clock, every change for a stimulus
	// vector (the clockless gray and lzc benches).
	cycleSig string
	// short is the simulated-time limit of the design's requests to the
	// server ("" = run to the end): a request is a millisecond or two of
	// work on every workload, because what the server legs measure is
	// the server, and the engine legs already run the design in full.
	short string
	// watch lists signals every leg observes; their streams are part of
	// the correctness check (the RV32I verdict and dump stream).
	watch []string
	// iss is the reference instruction-set run of the design's program
	// image (RV32I designs only).
	iss *riscv.ISS
	// seeded marks generated designs: what they produce depends on the
	// seed and, through the name, on their dimensions.
	seeded bool
	// asm is the design as LLHD assembly, set when it survives a
	// print/parse round trip and the workload submits kind:"llhd".
	asm string
	// ref is what set-up learned a correct run produces.
	ref *reference
}

// sizes are the workload dimensions. They are inputs, fixed per size
// class: a regression bound is only meaningful at a stated input size,
// so time budgets scale repetitions, never these.
type sizes struct {
	rvOuter     int // memloop outer trips (98 cycles each)
	rvAlu       int // alumix loop trips (15 cycles each)
	fabricLanes int // fabric_wide lanes (multiple of 4)
	fabricCyc   int // fabric_wide clock cycles
	mixLanes    int // serve_mix long-stream fabric lanes
	mixCyc      int // serve_mix long-stream fabric cycles
}

var (
	fullSizes = sizes{rvOuter: 50, rvAlu: 325, fabricLanes: 16, fabricCyc: 500, mixLanes: 4, mixCyc: 300}
	// tinySizes keep benchmark_test.go inside the tier-1 time budget.
	tinySizes = sizes{rvOuter: 3, rvAlu: 20, fabricLanes: 4, fabricCyc: 40, mixLanes: 4, mixCyc: 20}
)

// table2Designs returns the paper's ten Table 2 designs, unmodified.
func table2Designs() []*design {
	var out []*design
	for _, d := range designs.All() {
		sig := d.Top + ".clk"
		switch d.Name {
		case "gray":
			sig = d.Top + ".b"
		case "lzc":
			sig = d.Top + ".x"
		case "cdc_gray", "cdc_strobe":
			sig = d.Top + ".clk_a"
		}
		out = append(out, &design{name: d.Name, top: d.Top, source: d.Source, cycleSig: sig})
	}
	return out
}

// ---- rv32i_long --------------------------------------------------------

// memloopAsm is the aggregate-heavy kernel: the inner loop does a
// load-modify-store over a 16-word window of data memory, so every
// cycle reads and writes the core's unpacked-array state. The seed sets
// only the two mixing constants; trip counts are fixed.
func memloopAsm(outer int, k1, k2 uint32) string {
	return fmt.Sprintf(`
  li x5, %d
  li x6, %d
  li x20, %d
outer:
  li x1, 0
  li x2, 64
inner:
  lw x3, 0(x1)
  add x3, x3, x5
  xor x3, x3, x6
  sw x3, 0(x1)
  addi x1, x1, 4
  bne x1, x2, inner
  sw x3, %d(x0)
  addi x20, x20, -1
  bne x20, x0, outer
  li x1, 0
  li x10, 0
sum:
  lw x3, 0(x1)
  add x10, x10, x3
  addi x1, x1, 4
  bne x1, x2, sum
  sw x10, %d(x0)
  li x3, 1
  sw x3, %d(x0)
`, int32(k1), int32(k2), outer, riscv.DumpAddr, riscv.DumpAddr, riscv.TohostAddr)
}

// alumixAsm is the scalar kernel: xorshift32 plus a data-dependent
// branch whose two arms take the same number of cycles, so the cycle
// count does not depend on the seeded constants. No data memory.
func alumixAsm(trips int, k1, k2 uint32) string {
	return fmt.Sprintf(`
  li x5, %d
  li x6, %d
  li x20, %d
loop:
  slli x7, x5, 13
  xor x5, x5, x7
  srli x7, x5, 17
  xor x5, x5, x7
  slli x7, x5, 5
  xor x5, x5, x7
  add x6, x6, x5
  andi x7, x5, 1
  beq x7, x0, even
  sub x6, x6, x20
  j join
even:
  add x6, x6, x20
  nop
join:
  andi x7, x20, 63
  bne x7, x0, nodump
  sw x6, %d(x0)
nodump:
  addi x20, x20, -1
  bne x20, x0, loop
  sw x6, %d(x0)
  li x3, 1
  sw x3, %d(x0)
`, int32(k1|1), int32(k2), trips, riscv.DumpAddr, riscv.DumpAddr, riscv.TohostAddr)
}

// rv32iBenchTB is rv32i_tb with the cycle bound raised and the verdict
// asserted; clocking is identical.
const rv32iBenchTB = `
module rv32i_bench_tb;
  bit clk, rst;
  bit [31:0] tohost;
  bit [63:0] dump;
  bit done;
  rv32i_core i_core (.clk(clk), .rst(rst), .tohost(tohost),
                     .done(done), .dump(dump));

  initial begin
    automatic int i;
    rst <= 1;
    clk <= #1ns 1;
    clk <= #2ns 0;
    #2ns;
    rst <= 0;
    for (i = 0; i < 100000; i = i + 1) begin
      if (!done) begin
        clk <= #1ns 1;
        clk <= #2ns 0;
        #2ns;
      end
    end
    assert(done == 1);
    assert(tohost == 1);
    $finish;
  end
endmodule
`

// rv32iDesigns assembles the two kernels, runs each on the reference
// ISS, writes the hex images under dir and returns the core elaborated
// against them.
func rv32iDesigns(sz sizes, seed int64, dir string) ([]*design, error) {
	rng := rand.New(rand.NewSource(seed))
	kernels := []struct {
		name  string
		trips int
		asm   string
	}{
		{"memloop", sz.rvOuter, memloopAsm(sz.rvOuter, rng.Uint32(), rng.Uint32())},
		{"alumix", sz.rvAlu, alumixAsm(sz.rvAlu, rng.Uint32(), rng.Uint32())},
	}
	var out []*design
	for _, k := range kernels {
		words, err := riscv.Assemble(k.asm)
		if err != nil {
			return nil, fmt.Errorf("assembling %s: %w", k.name, err)
		}
		iss := riscv.NewISS(words)
		if err := iss.Run(1_000_000); err != nil {
			return nil, fmt.Errorf("ISS on %s: %w", k.name, err)
		}
		var hex strings.Builder
		if err := riscv.WriteHex(&hex, words); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.hex", k.name, seed))
		if err := os.WriteFile(path, []byte(hex.String()), 0o644); err != nil {
			return nil, err
		}
		const top = "rv32i_bench_tb"
		out = append(out, &design{
			name:     fmt.Sprintf("rv32i_%s_%d", k.name, k.trips),
			seeded:   true,
			top:      top,
			source:   designs.RV32I(path).Source + rv32iBenchTB,
			cycleSig: top + ".clk",
			short:    "1000ns",
			watch:    []string{top + ".tohost", top + ".dump"},
			iss:      iss,
		})
	}
	return out, nil
}

// ---- fabric_wide -------------------------------------------------------

// dutModules returns the DUT modules of a Table 2 design: its source up
// to the self-checking testbench.
func dutModules(name string) (string, error) {
	d, err := designs.ByName(name)
	if err != nil {
		return "", err
	}
	i := strings.Index(d.Source, "module "+d.Top)
	if i < 0 {
		return "", fmt.Errorf("design %s: no testbench module %s", name, d.Top)
	}
	return d.Source[:i], nil
}

// fabricDesign generates the wide scalar design: lanes of
// lfsr → gray_enc → gray_dec → stream_delayer → fir → fifo → lzc with one
// rr_arbiter per four lanes, on one clock. The seed picks which LFSR
// bits gate each lane's valid and pop inputs and the order lanes are
// emitted in; lane and cycle counts never vary. Port connections are
// plain nets because both frontends reject expressions there.
func fabricDesign(lanes, cycles int, seed int64) (*design, error) {
	var b strings.Builder
	for _, dut := range []string{"lfsr", "gray", "stream_delayer", "fir", "fifo", "lzc", "rr_arbiter"} {
		src, err := dutModules(dut)
		if err != nil {
			return nil, err
		}
		b.WriteString(src)
	}
	rng := rand.New(rand.NewSource(seed))
	const top = "fabric_tb"
	fmt.Fprintf(&b, "module %s;\n  bit clk, rst;\n", top)
	for _, l := range rng.Perm(lanes) {
		vb, pb := rng.Intn(8), rng.Intn(8)
		fmt.Fprintf(&b, `
  bit [7:0] q%[1]d, g%[1]d, dec%[1]d, sd%[1]d;
  bit vin%[1]d, vout%[1]d, pop%[1]d, full%[1]d, empty%[1]d;
  bit [15:0] x%[1]d, y%[1]d, fo%[1]d;
  bit [4:0] n%[1]d;
  lfsr i_lfsr%[1]d (.clk(clk), .rst(rst), .q(q%[1]d));
  gray_enc #(.W(8)) i_enc%[1]d (.bin(q%[1]d), .g(g%[1]d));
  gray_dec #(.W(8)) i_dec%[1]d (.g(g%[1]d), .bin(dec%[1]d));
  assign vin%[1]d = q%[1]d[%[2]d];
  stream_delayer #(.W(8)) i_sd%[1]d (.clk(clk), .rst(rst), .vin(vin%[1]d), .din(dec%[1]d),
                                 .vout(vout%[1]d), .dout(sd%[1]d));
  assign x%[1]d = {8'd%[1]d, sd%[1]d};
  fir #(.W(16)) i_fir%[1]d (.clk(clk), .rst(rst), .x(x%[1]d), .y(y%[1]d));
  assign pop%[1]d = q%[1]d[%[3]d];
  fifo #(.W(16)) i_fifo%[1]d (.clk(clk), .rst(rst), .push(vout%[1]d), .din(y%[1]d), .pop(pop%[1]d),
                          .dout(fo%[1]d), .full(full%[1]d), .empty(empty%[1]d));
  lzc #(.W(16)) i_lzc%[1]d (.x(fo%[1]d), .n(n%[1]d));
`, l, vb, pb)
	}
	for a := 0; a < lanes/4; a++ {
		fmt.Fprintf(&b, `
  bit [3:0] req%[1]d, gnt%[1]d;
  assign req%[1]d = {n%[2]d[0], n%[3]d[0], n%[4]d[0], n%[5]d[0]};
  rr_arbiter i_arb%[1]d (.clk(clk), .rst(rst), .req(req%[1]d), .gnt(gnt%[1]d));
`, a, 4*a+3, 4*a+2, 4*a+1, 4*a)
	}
	fmt.Fprintf(&b, `
  initial begin
    automatic int i;
    rst <= 1;
    clk <= #1ns 1;
    clk <= #2ns 0;
    #2ns;
    rst <= 0;
    for (i = 0; i < %d; i = i + 1) begin
      clk <= #1ns 1;
      clk <= #2ns 0;
      #2ns;
`, cycles)
	for l := 0; l < lanes; l++ {
		fmt.Fprintf(&b, "      assert(dec%[1]d == q%[1]d);\n", l)
	}
	for a := 0; a < lanes/4; a++ {
		fmt.Fprintf(&b, "      assert((gnt%[1]d & (gnt%[1]d - 1)) == 0);\n", a)
	}
	b.WriteString("    end\n    $finish;\n  end\nendmodule\n")
	return &design{name: fmt.Sprintf("fabric_%dx%d", lanes, cycles), seeded: true, top: top,
		source: b.String(), cycleSig: top + ".clk"}, nil
}
