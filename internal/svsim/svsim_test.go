package svsim_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"llhd/internal/designs"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/oracle"
	"llhd/internal/sim"
	"llhd/internal/svsim"
	"llhd/internal/val"
)

// build compiles the source and elaborates it on a fresh simulator, the
// two steps a session takes.
func build(src, top string) (*svsim.Simulator, error) {
	d, err := svsim.Compile(src, top)
	if err != nil {
		return nil, err
	}
	return d.NewSimulator(), nil
}

// run returns the run of s up to a time limit (zero: to quiescence) as the
// Session drives it: Init, then Run.
func run(s *svsim.Simulator) func(ir.Time) error {
	return func(limit ir.Time) error {
		s.Engine.Init()
		s.Engine.Run(limit)
		return s.Engine.Err()
	}
}

// TestAllDesignsSelfCheckSVSim runs every Table 2 design on the AST-level
// simulator: all testbench assertions must pass, independently of LLHD.
func TestAllDesignsSelfCheckSVSim(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			s, err := build(d.Source, d.Top)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := run(s)(ir.Time{}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if s.Engine.Failures != 0 {
				t.Errorf("%d assertion failures", s.Engine.Failures)
			}
		})
	}
}

// TestSVSimAgreesWithLLHDSim cross-validates the final state of every
// design between the AST-level simulator and the LLHD interpreter: the
// §6.1 "cycle-accurate results agree" claim against the commercial-style
// baseline. Signal names are compared on shared nets of the top module.
func TestSVSimAgreesWithLLHDSim(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			sv, err := build(d.Source, d.Top)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := run(sv)(ir.Time{}); err != nil {
				t.Fatalf("svsim run: %v", err)
			}

			m, err := moore.Compile(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			li, err := sim.New(m, d.Top)
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			if err := li.Run(ir.Time{}); err != nil {
				t.Fatalf("llhd run: %v", err)
			}

			if sv.Engine.Failures != li.Engine.Failures {
				t.Errorf("failure counts differ: svsim %d vs llhd %d",
					sv.Engine.Failures, li.Engine.Failures)
			}
			// Compare final values of the top module's nets.
			for _, sig := range sv.Engine.Signals() {
				other := li.Engine.SignalByName(sig.Name)
				if other == nil {
					continue // hierarchy naming differs below the top
				}
				if !sig.Value().Eq(other.Value()) {
					t.Errorf("final value of %s differs: svsim %s vs llhd %s",
						sig.Name, sig.Value(), other.Value())
				}
			}
			if sv.Engine.Now.Fs != li.Engine.Now.Fs {
				t.Errorf("end times differ: svsim %v vs llhd %v", sv.Engine.Now, li.Engine.Now)
			}
		})
	}
}

// TestUndeclaredNamesAreInputErrors pins that a name which resolves to
// nothing is reported by Compile or NewSimulator, in one plain line, for
// every place a process can mention one. A module name declared twice is
// rejected in Moore's words; the second copy used to run silently.
// Before, the edge and event shapes handed the kernel the zero SigRef of
// a failed map lookup (a nil-pointer panic at time zero, exit 3) and the
// identifier shape surfaced as an internal runtime error.
func TestUndeclaredNamesAreInputErrors(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"always_ff edge", "always_ff @(posedge nosuch) q <= q + 1;",
			`svsim: bad_tb.p1: edge net "nosuch" not visible to process`},
		{"event wait in initial", "initial begin q <= 0; @(posedge nosuch); q <= 1; end",
			`svsim: bad_tb.p1: event net "nosuch" not visible to process`},
		{"identifier in always_comb", "always_comb q = q + nosuch;",
			`svsim: bad_tb.p1: unknown identifier "nosuch"`},
		{"identifier in function", "function logic [7:0] f(input logic [7:0] x); f = x + nosuch; endfunction",
			`svsim: bad_tb: function f: unknown identifier "nosuch"`},
		{"call of undeclared function", "always_comb q = nosuch(q);",
			`svsim: bad_tb.p1: unknown function "nosuch"`},
		{"$signed without its argument", "always_comb q = $signed();",
			`svsim: bad_tb.p1: $signed takes one argument`},
		{"$unsigned with two arguments", "always_comb q = $unsigned(q, q);",
			`svsim: bad_tb.p1: $unsigned takes one argument`},
		{"$clog2 without its argument", "always_comb q = $clog2();",
			`svsim: bad_tb.p1: $clog2 takes one argument`},
		{"plain always without sensitivity", "always #1ns q = ~q;",
			`svsim: bad_tb.p1: plain always without sensitivity is unsupported`},
		{"duplicate module", "endmodule\nmodule bad_tb;",
			`svsim: duplicate module "bad_tb"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := build("module bad_tb;\n  logic [7:0] q;\n  "+tc.body+"\nendmodule\n", "bad_tb")
			if err == nil {
				t.Fatal("the design was accepted")
			}
			var re *engine.RuntimeError
			if errors.As(err, &re) {
				t.Errorf("a *RuntimeError (class %s), want a plain input error", engine.KindName(err))
			}
			if err.Error() != tc.want {
				t.Errorf("%q, want %q", err, tc.want)
			}
		})
	}
}

// TestCompileReadsReadmemhOnce: Compile reads every $readmemh image, so
// the simulators built from its Design touch no disk — the file is gone
// before the first of them — and each starts from the image. An image
// that cannot be read fails Compile, in Moore's words.
func TestCompileReadsReadmemhOnce(t *testing.T) {
	dir := t.TempDir()
	rom := func(path string) string {
		return fmt.Sprintf(`module rom_tb;
  logic [7:0] rom [0:3];
  logic [7:0] sum;
  initial $readmemh(%q, rom);
  initial begin
    #1ns;
    sum = rom[0] + rom[1] + rom[3];
  end
endmodule
`, path)
	}
	hex := filepath.Join(dir, "rom.hex")
	if err := os.WriteFile(hex, []byte("0a 0b\n@3 0d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := svsim.Compile(rom(hex), "rom_tb")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := os.Remove(hex); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s := d.NewSimulator()
		if err := run(s)(ir.Time{}); err != nil {
			t.Fatalf("simulator %d: run: %v", i, err)
		}
		if sum := s.Engine.SignalByName("rom_tb.sum").Value().Bits; sum != 0x0a+0x0b+0x0d {
			t.Errorf("simulator %d: sum = %#x, want %#x", i, sum, 0x0a+0x0b+0x0d)
		}
	}

	_, err = svsim.Compile(rom(filepath.Join(dir, "nope.hex")), "rom_tb")
	if err == nil || !strings.HasPrefix(err.Error(), "svsim: rom_tb: $readmemh: cannot read") {
		t.Errorf("Compile: %v, want svsim: rom_tb: $readmemh: cannot read ...", err)
	}
}

// TestRuntimeErrorNamesProcessOnce pins the wording of a failure inside a
// running process: "svsim: <process>: <cause>", the process named once.
func TestRuntimeErrorNamesProcessOnce(t *testing.T) {
	s, err := build("module bad_tb;\n  logic [7:0] q;\n  always_comb q = 8'd1 / (q - q);\nendmodule\n", "bad_tb")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	err = run(s)(ir.Time{})
	if err == nil || !strings.HasPrefix(err.Error(), "svsim: bad_tb.p1: division by zero") {
		t.Errorf("Run: %v, want svsim: bad_tb.p1: division by zero ...", err)
	}
}

// TestSVSimWakeAllocBudget pins the steady-state cost of a clock cycle on
// SVSim's wake path: a rising edge of an input clock the test drives runs
// every block of the design once, and together with the falling edge that
// follows it may not allocate at all — drives, wakes, passes, function
// calls and re-arms included. "scalar" is one always_ff block and two
// always_comb blocks; "realistic" adds what a real block holds: automatic
// locals, a for loop, a function call, a concat, a +: select and an
// always_ff that writes an unpacked array. Before its locals and function
// frames were slots, "realistic" read 10 allocations per cycle.
func TestSVSimWakeAllocBudget(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"scalar", `
module ab_tb(input logic clk);
  logic [7:0] q, a, b;
  always_ff @(posedge clk) q <= b;
  always_comb a = q + 8'd1;
  always_comb b = a ^ 8'h5a;
endmodule
`},
		{"realistic", `
module ab_tb(input logic clk);
  logic [7:0] q, b;
  logic [7:0] mem [0:3];
  logic [1:0] wp;
  function logic [7:0] rot(input logic [7:0] x, input logic [2:0] n);
    rot = (x << n) | (x >> (8 - n));
  endfunction
  always_ff @(posedge clk) begin
    mem[wp] <= b;
    wp <= wp + 2'd1;
    q <= b ^ mem[wp + 2'd1];
  end
  always_comb begin
    automatic int i;
    automatic logic [7:0] acc;
    acc = rot(q, 3'd3) + 8'd1;
    for (i = 0; i < 4; i = i + 1)
      acc = acc ^ {q[i +: 4], acc[7:4]};
    b = acc;
  end
endmodule
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := build(tc.src, "ab_tb")
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			e := s.Engine
			clk, q := e.SignalByName("ab_tb.clk"), e.SignalByName("ab_tb.q")
			edge := func(level uint64) {
				e.Drive(engine.SigRef{Sig: clk}, val.Int(1, level), ir.Time{})
				for e.Step() {
				}
			}
			var qChanges changeCount
			e.Observe(&qChanges, q)
			e.Init()
			for i := 0; i < 8; i++ { // let every list and buffer reach its size
				edge(1)
				edge(0)
			}
			qChanges = 0
			perCycle := testing.AllocsPerRun(100, func() {
				edge(1)
				edge(0)
			})
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			if qChanges < 100 {
				t.Fatalf("q changed %d times in 101 cycles: the blocks did not run every cycle", qChanges)
			}
			t.Logf("%.2f allocations per clock cycle", perCycle)
			if perCycle > 0 {
				t.Errorf("%.2f allocations per clock cycle, budget 0", perCycle)
			}
		})
	}
}

// changeCount is an observer that counts the changes it is shown.
type changeCount int

func (c *changeCount) OnChange(ir.Time, *engine.Signal, val.Value) { *c++ }

// changes runs an engine to quiescence and returns every signal change
// as "time name=value" lines, sorted within the run: signal IDs, and so
// the order inside one instant, differ between the two flows.
func changes(t *testing.T, e *engine.Engine, run func(ir.Time) error) []string {
	t.Helper()
	var obs engine.TraceObserver
	e.Observe(&obs)
	if err := run(ir.Time{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := oracle.Lines(&obs)
	sort.Strings(lines)
	return lines
}

// TestBlockingWritesReachTheNet: a blocking write to a module net is
// driven when the process next hands control back, wherever that is, and
// the waveform is the one the Moore flow produces on the reference
// interpreter. Before, only the end of an always_comb / always_ff pass
// flushed: in an initial block the write stayed in the process's pending
// map for good, a clock made with "clk = ~clk" never toggled, and the run
// reported no failure because nothing ran.
func TestBlockingWritesReachTheNet(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"blocking then delay", `
  bit clk;
  bit [7:0] n;
  initial begin
    clk = 0;
    n = 8'd5;
    repeat (3) begin
      #1ns;
      clk = ~clk;
      n = n + 8'd1;
    end
    #1ns;
    assert(n == 8'd8);
  end`},
		{"blocking then event", `
  bit clk, go;
  bit [7:0] seen;
  initial begin
    clk <= #1ns 1;
    clk <= #2ns 0;
    clk <= #3ns 1;
  end
  initial begin
    go = 1;
    @(posedge clk);
    seen = 8'd1;
    @(negedge clk);
    seen = 8'd2;
    @(posedge clk);
    seen = seen + 8'd1;
  end
  initial begin
    #4ns;
    assert(go == 1);
    assert(seen == 8'd3);
  end`},
		{"end of initial", `
  bit [7:0] x, y, z, sum;
  initial begin
    z = 8'd1;
    y = 8'd2;
    x = 8'd3;
  end
  always_comb sum = x + y + z;
  initial begin
    #1ns;
    assert(sum == 8'd6);
  end`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "module flush_tb;" + tc.body + "\nendmodule\n"
			sv, err := build(src, "flush_tb")
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			m, err := moore.Compile("flush", src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			li, err := sim.New(m, "flush_tb")
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			got, want := changes(t, sv.Engine, run(sv)), changes(t, li.Engine, li.Run)
			if !slices.Equal(got, want) {
				t.Errorf("waveforms differ:\n svsim  %q\n interp %q", got, want)
			}
			if len(want) < 3 {
				t.Errorf("interp saw only %d changes; the row tests nothing", len(want))
			}
			if sv.Engine.Failures != 0 || li.Engine.Failures != 0 {
				t.Errorf("assertion failures: svsim %d, interp %d", sv.Engine.Failures, li.Engine.Failures)
			}
		})
	}
}

// TestFunctionWaitBesideBodyWait: a process keeps the state of its
// module's function @(...) lists first and of its own body's after them,
// so a body wait on one net and a function wait on another each wake on
// their own net. Moore does not let a function wait on a module net, so
// the test checks SVSim against the expected waveform.
func TestFunctionWaitBesideBodyWait(t *testing.T) {
	const src = `
module fwait_tb;
  bit a, b;
  bit [7:0] n, m;
  function bit [7:0] after_a(input bit [7:0] x);
    @(posedge a);
    after_a = x + 8'd1;
  endfunction
  initial begin
    a <= #1ns 1;
    b <= #3ns 1;
    a <= #4ns 0;
    a <= #5ns 1;
  end
  initial begin
    @(posedge b);
    n = 8'd7;
    m = after_a(n);
  end
  initial begin
    #2ns;
    assert(n == 8'd0);
    #2ns;
    assert(n == 8'd7 && m == 8'd0);
    #2ns;
    assert(m == 8'd8);
  end
endmodule
`
	sv, err := build(src, "fwait_tb")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want := []string{
		"1ns fwait_tb.a=1",
		"3ns 1d fwait_tb.n=7", // the body's wait, on b
		"3ns fwait_tb.b=1",
		"4ns fwait_tb.a=0",
		"5ns 1d fwait_tb.m=8", // the function's wait, on a
		"5ns fwait_tb.a=1",
	}
	if got := changes(t, sv.Engine, run(sv)); !slices.Equal(got, want) {
		t.Errorf("waveform:\n got  %q\n want %q", got, want)
	}
	if sv.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", sv.Engine.Failures)
	}
}

// TestFunctionReturn: return x leaves the function at once with x as its
// result, from inside a loop too, a bare return leaves with the value of
// the variable named like the function, and a call inside a return
// expression runs in a frame of its own. The waveform is the
// interpreter's.
func TestFunctionReturn(t *testing.T) {
	const src = `
module ret_tb;
  bit [7:0] x, first, sum, bare;
  function bit [7:0] first_set(input bit [7:0] v);
    for (int i = 0; i < 8; i++)
      if (v[i]) return i + 1;
    return 0;
  endfunction
  function bit [7:0] plus(input bit [7:0] v);
    return first_set(v) + v;
  endfunction
  function bit [7:0] keep(input bit [7:0] v);
    keep = v ^ 8'hff;
    if (v != 0) return;
    keep = 8'h11;
  endfunction
  always_comb first = first_set(x);
  always_comb sum = plus(x);
  always_comb bare = keep(x);
  initial begin
    x <= 8'h28;
    #1ns;
    assert(first == 8'd4 && sum == 8'h2c && bare == 8'hd7);
    x <= 8'h00;
    #1ns;
    assert(first == 8'd0 && sum == 8'h00 && bare == 8'h11);
    x <= 8'h81;
    #1ns;
    assert(first == 8'd1 && sum == 8'h82 && bare == 8'h7e);
  end
endmodule
`
	sv, err := build(src, "ret_tb")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, err := moore.Compile("ret", src)
	if err != nil {
		t.Fatalf("moore.Compile: %v", err)
	}
	li, err := sim.New(m, "ret_tb")
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	got, want := changes(t, sv.Engine, run(sv)), changes(t, li.Engine, li.Run)
	if !slices.Equal(got, want) {
		t.Errorf("waveforms differ:\n svsim  %q\n interp %q", got, want)
	}
	if len(want) < 10 {
		t.Errorf("interp saw only %d changes; the test checks nothing", len(want))
	}
	if sv.Engine.Failures != 0 || li.Engine.Failures != 0 {
		t.Errorf("assertion failures: svsim %d, interp %d", sv.Engine.Failures, li.Engine.Failures)
	}
}

// TestParametersPerInstance: every instance sees its own parameter values,
// and Compile resolves one body per distinct (module, parameters) pair —
// two gray_enc bodies for W = 4 (two instances) and W = 8 (one explicit,
// one by default) — whose waveform is the interpreter's, where Moore emits
// one unit per pair.
func TestParametersPerInstance(t *testing.T) {
	const src = `
module gray_enc #(parameter int W = 8) (input [W-1:0] bin, output [W-1:0] g);
  assign g = bin ^ (bin >> 1);
endmodule

module params_tb;
  bit [3:0] a4, b4, ga4, gb4;
  bit [7:0] c8, d8, gc8, gd8;
  gray_enc #(.W(4)) i_a (.bin(a4), .g(ga4));
  gray_enc #(.W(4)) i_b (.bin(b4), .g(gb4));
  gray_enc #(.W(8)) i_c (.bin(c8), .g(gc8));
  gray_enc i_d (.bin(d8), .g(gd8));
  initial begin
    a4 <= 4'hb;
    b4 <= 4'hf;
    c8 <= 8'hc5;
    d8 <= 8'hff;
    #1ns;
    a4 <= 4'h8;
    b4 <= 4'h1;
    c8 <= 8'h80;
    d8 <= 8'h3a;
    #1ns;
    assert(ga4 == 4'hc);
    assert(gd8 == 8'h27);
  end
endmodule
`
	d, err := svsim.Compile(src, "params_tb")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if n := d.Programs("gray_enc"); n != 2 {
		t.Errorf("%d resolved gray_enc bodies, want 2 (W = 4 and W = 8)", n)
	}
	sv := d.NewSimulator()
	m, err := moore.Compile("params", src)
	if err != nil {
		t.Fatalf("moore.Compile: %v", err)
	}
	li, err := sim.New(m, "params_tb")
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	got, want := changes(t, sv.Engine, run(sv)), changes(t, li.Engine, li.Run)
	if !slices.Equal(got, want) {
		t.Errorf("waveforms differ:\n svsim  %q\n interp %q", got, want)
	}
	if len(want) < 16 {
		t.Errorf("interp saw only %d changes; the row tests nothing", len(want))
	}
	if sv.Engine.Failures != 0 || li.Engine.Failures != 0 {
		t.Errorf("assertion failures: svsim %d, interp %d", sv.Engine.Failures, li.Engine.Failures)
	}
}
