package svsim_test

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"llhd/internal/designs"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/sim"
	"llhd/internal/svsim"
)

// TestAllDesignsSelfCheckSVSim runs every Table 2 design on the AST-level
// simulator: all testbench assertions must pass, independently of LLHD.
func TestAllDesignsSelfCheckSVSim(t *testing.T) {
	for _, d := range designs.All() {
		t.Run(d.Name, func(t *testing.T) {
			s, err := svsim.New(d.Source, d.Top)
			if err != nil {
				t.Fatalf("svsim.New: %v", err)
			}
			if err := s.Run(ir.Time{}); err != nil {
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
			sv, err := svsim.New(d.Source, d.Top)
			if err != nil {
				t.Fatalf("svsim.New: %v", err)
			}
			if err := sv.Run(ir.Time{}); err != nil {
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
// nothing is reported by New, in one plain line, for every place a process
// can mention one. Before, the edge and event shapes handed the kernel the
// zero SigRef of a failed map lookup (a nil-pointer panic at time zero,
// exit 3) and the identifier shape surfaced as an internal runtime error.
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svsim.New("module bad_tb;\n  logic [7:0] q;\n  "+tc.body+"\nendmodule\n", "bad_tb")
			if err == nil {
				t.Fatal("New accepted the design")
			}
			var re *engine.RuntimeError
			if errors.As(err, &re) {
				t.Errorf("New returned a *RuntimeError (class %s), want a plain input error", engine.KindName(err))
			}
			if err.Error() != tc.want {
				t.Errorf("New: %q, want %q", err, tc.want)
			}
		})
	}
}

// TestRuntimeErrorNamesProcessOnce pins the wording of a failure inside a
// running process: "svsim: <process>: <cause>", the process named once.
func TestRuntimeErrorNamesProcessOnce(t *testing.T) {
	s, err := svsim.New("module bad_tb;\n  logic [7:0] q;\n  always_comb q = 8'd1 / (q - q);\nendmodule\n", "bad_tb")
	if err != nil {
		t.Fatalf("svsim.New: %v", err)
	}
	err = s.Run(ir.Time{})
	if err == nil || !strings.HasPrefix(err.Error(), "svsim: bad_tb.p1: division by zero") {
		t.Errorf("Run: %v, want svsim: bad_tb.p1: division by zero ...", err)
	}
}

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
	var lines []string
	for _, c := range obs.Entries {
		lines = append(lines, fmt.Sprintf("%v %s=%s", c.Time, c.Sig.Name, c.Value))
	}
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
			sv, err := svsim.New(src, "flush_tb")
			if err != nil {
				t.Fatalf("svsim.New: %v", err)
			}
			m, err := moore.Compile("flush", src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			li, err := sim.New(m, "flush_tb")
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			got, want := changes(t, sv.Engine, sv.Run), changes(t, li.Engine, li.Run)
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
