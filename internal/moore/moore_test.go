package moore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
	"llhd/internal/sim"
)

// figure3 is the SystemVerilog source of Figure 3 (testbench + accumulator),
// with the iteration count reduced to keep the test fast.
const figure3 = `
module acc_tb;
  bit clk, en;
  bit [31:0] x, q;
  acc i_dut (.*);
  initial begin
    automatic bit [31:0] i = 0;
    en <= #2ns 1;
    do begin
      x <= #2ns i;
      clk <= #1ns 1;
      clk <= #2ns 0;
      #2ns;
      check(i, q);
    end while (i++ < 100);
  end
  function check(bit [31:0] i, bit [31:0] q);
    assert(q == i*(i+1)/2);
  endfunction
endmodule

module acc (input clk, input [31:0] x, input en, output [31:0] q);
  bit [31:0] d;
  always_ff @(posedge clk) q <= #1ns d;
  always_comb begin
    d <= #2ns q;
    if (en) d <= #2ns q+x;
  end
endmodule
`

func TestCompileFigure3(t *testing.T) {
	m, err := Compile("acc_tb", figure3)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("Verify: %v\n%s", err, assembly.String(m))
	}
	// Expected units: acc_tb entity, its initial process, the check
	// function, acc entity, its two processes.
	if m.Unit("acc_tb") == nil || m.Unit("acc") == nil {
		t.Fatal("module entities missing")
	}
	if m.Unit("acc_tb_check") == nil {
		t.Fatal("function acc_tb_check missing")
	}
	procs := 0
	for _, u := range m.Units {
		if u.Kind == ir.UnitProc {
			procs++
		}
	}
	if procs != 3 {
		t.Errorf("%d processes, want 3 (initial, always_ff, always_comb)", procs)
	}
}

func TestFigure3Simulates(t *testing.T) {
	m, err := Compile("acc_tb", figure3)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s, err := sim.New(m, "acc_tb")
	if err != nil {
		t.Fatalf("sim.New: %v\n%s", err, assembly.String(m))
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The testbench runs 101 iterations of 2ns.
	if s.Engine.Now.Fs < 200*ir.Nanosecond {
		t.Errorf("simulation ended early at %v", s.Engine.Now)
	}
	q := s.Engine.SignalByName("acc_tb.q")
	if q == nil || q.Value().Bits == 0 {
		t.Error("q never accumulated")
	}
}

func TestCompileCounterAndSimulate(t *testing.T) {
	src := `
module counter #(parameter int W = 8) (input clk, input rst, output [W-1:0] count);
  always_ff @(posedge clk) begin
    if (rst) count <= '0;
    else count <= count + 1;
  end
endmodule

module counter_tb;
  bit clk, rst;
  bit [7:0] count;
  counter #(.W(8)) i_dut (.clk(clk), .rst(rst), .count(count));
  initial begin
    automatic int i;
    rst <= 1;
    #2ns;
    clk <= 1;
    #2ns;
    clk <= 0;
    rst <= 0;
    for (i = 0; i < 20; i = i + 1) begin
      #2ns;
      clk <= 1;
      #2ns;
      clk <= 0;
    end
    #2ns;
    assert(count == 20);
    $finish;
  end
endmodule
`
	m, err := Compile("counter", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("Verify: %v\n%s", err, assembly.String(m))
	}
	s, err := sim.New(m, "counter_tb")
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", s.Engine.Failures)
	}
	count := s.Engine.SignalByName("counter_tb.count")
	if got := count.Value().Bits; got != 20 {
		t.Errorf("count = %d, want 20", got)
	}
}

func TestParameterSpecialization(t *testing.T) {
	src := `
module fifo #(parameter int DEPTH = 4) (input clk, output [31:0] n);
  assign n = DEPTH;
endmodule
module top (input clk);
  bit [31:0] a, b;
  fifo #(.DEPTH(2)) f2 (.clk(clk), .n(a));
  fifo #(.DEPTH(8)) f8 (.clk(clk), .n(b));
endmodule
`
	m, err := Compile("t", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if m.Unit("fifo$DEPTH2") == nil || m.Unit("fifo$DEPTH8") == nil {
		names := []string{}
		for _, u := range m.Units {
			names = append(names, u.Name)
		}
		t.Fatalf("specializations missing; have %v", names)
	}
}

func TestCaseStatement(t *testing.T) {
	src := `
module dec (input [1:0] sel, output [3:0] y);
  always_comb begin
    case (sel)
      2'd0: y = 4'b0001;
      2'd1: y = 4'b0010;
      2'd2: y = 4'b0100;
      default: y = 4'b1000;
    endcase
  end
endmodule
module dec_tb;
  bit [1:0] sel;
  bit [3:0] y;
  dec i_dut (.*);
  initial begin
    sel <= 0;
    #2ns;
    assert(y == 1);
    sel <= 2;
    #2ns;
    assert(y == 4);
    sel <= 3;
    #2ns;
    assert(y == 8);
    $finish;
  end
endmodule
`
	m, err := Compile("t", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s, err := sim.New(m, "dec_tb")
	if err != nil {
		t.Fatalf("sim.New: %v\n%s", err, assembly.String(m))
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", s.Engine.Failures)
	}
}

func TestUnpackedArrayMemory(t *testing.T) {
	src := `
module memtest;
  bit clk;
  bit [31:0] out;
  bit [31:0] mem [0:7];
  initial begin
    automatic int i;
    for (i = 0; i < 8; i = i + 1) begin
      mem[i] = i * 10;
    end
    out <= mem[5];
    #1ns;
    assert(out == 50);
    $finish;
  end
endmodule
`
	m, err := Compile("t", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s, err := sim.New(m, "memtest")
	if err != nil {
		t.Fatalf("sim.New: %v\n%s", err, assembly.String(m))
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", s.Engine.Failures)
	}
}

func TestConcatSliceReduction(t *testing.T) {
	src := `
module bits_tb;
  bit [7:0] a;
  bit [3:0] hi, lo;
  bit [7:0] cat;
  bit anyset, allset, parity;
  initial begin
    a <= 8'hA5;
    #1ns;
    hi <= a[7:4];
    lo <= a[3:0];
    cat <= {a[3:0], a[7:4]};
    anyset <= |a;
    allset <= &a;
    parity <= ^a;
    #1ns;
    assert(hi == 4'hA);
    assert(lo == 4'h5);
    assert(cat == 8'h5A);
    assert(anyset == 1);
    assert(allset == 0);
    assert(parity == 0);
    $finish;
  end
endmodule
`
	m, err := Compile("t", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s, err := sim.New(m, "bits_tb")
	if err != nil {
		t.Fatalf("sim.New: %v\n%s", err, assembly.String(m))
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", s.Engine.Failures)
	}
}

func TestSignedOps(t *testing.T) {
	src := `
module signed_tb;
  bit [7:0] a, b;
  bit lt;
  bit [7:0] sr;
  initial begin
    a <= 8'hFF; // -1 signed
    b <= 8'h01;
    #1ns;
    lt <= $signed(a) < $signed(b);
    sr <= $signed(a) >>> 4;
    #1ns;
    assert(lt == 1);
    assert(sr == 8'hFF);
    $finish;
  end
endmodule
`
	m, err := Compile("t", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s, err := sim.New(m, "signed_tb")
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", s.Engine.Failures)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // a substring of the error, if not empty
	}{
		{"modul x; endmodule", ""},
		{"module x (inpu clk); endmodule", ""},
		{"module x; always_ff q <= 1; endmodule", ""},
		{"module x; bit a endmodule", ""},
		{"module x; logic [7:0] q; always_comb q = $clog2(); endmodule", ""},
		// Identifiers are ASCII: a UTF-8 character outside a string or a
		// comment is named whole, whatever Latin-1 makes of its bytes.
		{"module t; bit ª; endmodule", `line 1: unexpected character "ª"`},
		{"module t; bit aé; endmodule", `line 1: unexpected character "é"`},
		{"module t; bit a–; endmodule", `line 1: unexpected character "–"`},
	} {
		_, err := Compile("t", tc.src)
		switch {
		case err == nil:
			t.Errorf("Compile(%q) unexpectedly succeeded", tc.src)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("Compile(%q) = %v, want an error containing %s", tc.src, err, tc.want)
		}
	}
}

func TestCompiledTextContainsProcesses(t *testing.T) {
	m, err := Compile("acc_tb", figure3)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	text := assembly.String(m)
	for _, want := range []string{"entity @acc_tb", "entity @acc", "proc @", "func @acc_tb_check", "wait", "drv"} {
		if !strings.Contains(text, want) {
			t.Errorf("compiled text lacks %q", want)
		}
	}
	// Round trip through the assembly parser.
	if _, err := assembly.Parse("rt", text); err != nil {
		t.Errorf("compiled text does not reparse: %v", err)
	}
}

// runZeroFailures compiles src, simulates top on the reference
// interpreter, and requires a clean run with no assertion failures.
func runZeroFailures(t *testing.T, src, top string) {
	t.Helper()
	m, err := Compile("t", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s, err := sim.New(m, top)
	if err != nil {
		t.Fatalf("sim.New: %v\n%s", err, assembly.String(m))
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", s.Engine.Failures)
	}
}

// TestArithmeticShiftVariableAmount pins >>> with a runtime shift amount
// and the interaction with signed comparison chains — the expression
// forms the RV32I core leans on for sra/srai and slt/blt.
func TestArithmeticShiftVariableAmount(t *testing.T) {
	runZeroFailures(t, `
module sra_tb;
  bit [31:0] a, sr, srl_r;
  bit [4:0] n;
  bit ge, lt_s, lt_u;
  initial begin
    a <= 32'h80000000;
    n <= 5'd4;
    #1ns;
    sr <= $signed(a) >>> n;       // arithmetic: smears the sign bit
    srl_r <= a >> n;              // logical: zero fill
    lt_s <= $signed(a) < $signed(32'd1);
    lt_u <= a < 32'd1;
    ge <= $signed(32'd1) >= $signed(a);
    #1ns;
    assert(sr == 32'hF8000000);
    assert(srl_r == 32'h08000000);
    assert(lt_s == 1);            // INT_MIN < 1 signed
    assert(lt_u == 0);            // 0x80000000 > 1 unsigned
    assert(ge == 1);
    $finish;
  end
endmodule
`, "sra_tb")
}

// TestIndexedPartSelect covers x[base +: width] with a computed base, on
// both the read and the write side, including the out-of-range behaviour
// the engines must agree on: reads beyond the vector return zeros and
// writes truncate at the vector boundary.
func TestIndexedPartSelect(t *testing.T) {
	runZeroFailures(t, `
module ips_tb;
  bit [31:0] w, r0, r1, r3, wr;
  bit [4:0] sh;
  initial begin
    automatic bit [31:0] v;
    w <= 32'h12345678;
    #1ns;
    sh <= {w[1:0], 3'b000};       // computed base: 0
    #1ns;
    r0 <= {24'b0, w[sh +: 8]};
    r1 <= {24'b0, w[{5'd1, 3'b000} +: 8]};
    r3 <= {16'b0, w[24 +: 16]};   // top half: only 8 bits exist -> zero pad
    v = 32'hAABBCCDD;
    v[8 +: 16] = 16'hBEEF;        // dynamic-width field write on a local
    v[24 +: 16] = 16'h7788;       // truncates at bit 31
    wr <= v;
    #1ns;
    assert(r0 == 32'h78);
    assert(r1 == 32'h56);
    assert(r3 == 32'h12);
    assert(wr == 32'h88BEEFDD);
    $finish;
  end
endmodule
`, "ips_tb")
}

// TestIndexedPartSelectOnNet exercises the read-modify-write path for a
// +: assignment whose target is a module-level net rather than a local.
func TestIndexedPartSelectOnNet(t *testing.T) {
	runZeroFailures(t, `
module ipsnet_tb;
  bit [31:0] w;
  bit [4:0] b;
  initial begin
    w <= 32'hFFFF0000;
    b <= 5'd8;
    #1ns;
    w[b +: 8] <= 8'hA5;
    #1ns;
    assert(w == 32'hFFFFA500);
    $finish;
  end
endmodule
`, "ipsnet_tb")
}

// TestReadmemh loads a hex image at elaboration time: the values must be
// visible at time zero, before any process runs, and the image syntax
// (comments, underscores, @address directives) must be honoured.
func TestReadmemh(t *testing.T) {
	hex := filepath.Join(t.TempDir(), "rom.hex")
	img := `// line comment
11 22   /* block
comment */ 3_3
@6
AB_C  // lands at index 6
`
	if err := os.WriteFile(hex, []byte(img), 0o644); err != nil {
		t.Fatal(err)
	}
	runZeroFailures(t, fmt.Sprintf(`
module rom_tb;
  bit [15:0] o0, o1, o2, o3, o6;
  bit [15:0] rom [0:7];
  initial $readmemh(%q, rom);
  initial begin
    o0 <= rom[0];               // reads at t=0: load must already be done
    o1 <= rom[1];
    o2 <= rom[2];
    o3 <= rom[3];
    o6 <= rom[6];
    #1ns;
    assert(o0 == 16'h11);
    assert(o1 == 16'h22);
    assert(o2 == 16'h33);
    assert(o3 == 16'h0);        // skipped by @6: stays zero
    assert(o6 == 16'hABC);
    $finish;
  end
endmodule
`, hex), "rom_tb")
}

// TestReadmemhDiagnostics pins the compile-time diagnostics: a missing
// file, an out-of-range @address, an over-wide word, an overflowing
// image, and use outside an initial block are all hard errors rather
// than silent no-ops.
func TestReadmemhDiagnostics(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mod := func(path, kind string) string {
		return fmt.Sprintf(`
module t_tb;
  bit [15:0] rom [0:3];
  %s $readmemh(%q, rom);
endmodule
`, kind, path)
	}
	cases := []struct {
		name, src, want string
	}{
		{"missing file", mod(filepath.Join(dir, "nope.hex"), "initial"), "cannot read"},
		{"address out of range", mod(write("far.hex", "@8 11"), "initial"), "out of range"},
		{"word too wide", mod(write("wide.hex", "FFFFF"), "initial"), "wider than"},
		{"image overflow", mod(write("over.hex", "1 2 3 4 5"), "initial"), "past the end"},
		{"non-initial block", mod(write("ok.hex", "1"), "always_comb"), "only supported in initial"},
		{"scalar target", `
module t_tb;
  bit [15:0] rom;
  initial $readmemh("x.hex", rom);
endmodule
`, "not an unpacked array"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile("t", c.src)
			if err == nil {
				t.Fatalf("Compile unexpectedly succeeded")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestOpenAndTiedPortWidths pins the width of the signal an open and a
// tied port get when the port's width depends on the child's parameter:
// the width of the specialized child's port, not of its default.
func TestOpenAndTiedPortWidths(t *testing.T) {
	src := `
module child #(parameter int W = 4) (input [W-1:0] a, input [2*W-1:0] b, output [W:0] y);
  assign y = a + b;
endmodule
module top;
  bit [8:0] y;
  child #(.W(8)) u (.a(), .b(5), .y(y));
  child #(.W(3)) v (.a(2), .y());
endmodule
`
	m, err := Compile("t", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := map[string]int{"u_a_nc": 8, "u_b_tie": 16, "v_a_tie": 3, "v_b_nc": 6, "v_y_nc": 4}
	m.Unit("top").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op != ir.OpSig {
			return
		}
		w, ok := want[in.ValueName()]
		if !ok {
			return
		}
		if got := in.Type().Elem.Width; got != w {
			t.Errorf("%s is i%d, want i%d", in.ValueName(), got, w)
		}
		delete(want, in.ValueName())
	})
	for name := range want {
		t.Errorf("no signal %s", name)
	}
}

// TestLocalparamFromCompares folds every comparison operator in an
// elaboration-time constant.
func TestLocalparamFromCompares(t *testing.T) {
	runZeroFailures(t, `
module cmp_tb;
  localparam int W = 8;
  localparam int N = (W > 4) + (W == 8) + (W != 3) + (W < 2) + (W <= 8) + (W >= 9);
  bit [N-1:0] v;
  initial begin
    assert(N == 4);
    v <= '1;
    #1ns;
    assert(v == 4'hf);
    $finish;
  end
endmodule
`, "cmp_tb")
}

// TestFunctionWritesModuleVariable: Moore rejects a function that assigns
// a module variable other than its own name. It used to store the value
// into the function's result whenever the variable's name was the text
// after the last "_" of the function's unit name ("add" in "t_do_add"),
// while SVSim writes the module variable.
func TestFunctionWritesModuleVariable(t *testing.T) {
	_, err := Compile("t", `
module t;
  int add, r;
  function int do_add(int a);
    add = a + 1;
  endfunction
  initial begin
    r = do_add(4);
  end
endmodule
`)
	// Named like a process's errors: the module, then the unit.
	if want := `moore: t: t_do_add: net "add" is not writable here`; err == nil || err.Error() != want {
		t.Fatalf("Compile = %v, want %q", err, want)
	}
}
