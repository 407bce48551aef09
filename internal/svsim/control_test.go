package svsim_test

import (
	"slices"
	"strings"
	"testing"

	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/sim"
	"llhd/internal/svsim"
)

// TestControlFlow holds SVSim's statements that steer control — loops
// whose bodies wait, case arms, return, $finish, waiting functions — to a
// waveform of their own: the reference interpreter's where Moore accepts
// the source, a written one where it does not (a return outside a
// function, a function that waits on a module net). Lines of the nets in
// drop (the clocks) are left out of both sides.
func TestControlFlow(t *testing.T) {
	const clock = `
  initial repeat (20) begin
    #1ns;
    clk = ~clk;
  end`
	for _, tc := range []struct {
		name, src string
		drop      []string
		want      []string // nil: the interpreter's waveform
	}{
		{name: "for loop waiting on an edge", drop: []string{"clk"}, src: `
module ctl_tb;
  bit clk;
  bit [7:0] n, k;` + clock + `
  initial begin
    for (int i = 0; i < 4; i++) begin
      @(posedge clk);
      n = n + 8'd3;
      k = i;
    end
    #1ns;
    assert(n == 8'd12 && k == 8'd3);
  end
endmodule
`},
		{name: "while and repeat with delays", src: `
module ctl_tb;
  bit [7:0] a, b;
  initial begin
    automatic int n = 0;
    while (n < 5) begin
      #2ns;
      n = n + 1;
      a = n;
    end
    repeat (3) begin
      #1ns b = b + a;
    end
    #1ns;
    assert(a == 8'd5 && b == 8'd15);
  end
endmodule
`},
		{name: "do while", src: `
module ctl_tb;
  bit [7:0] c, d, e;
  initial begin
    automatic int n = 0;
    do begin
      #1ns;
      n = n + 2;
      c = n;
    end while (n < 7);
    do begin
      #1ns;
      e = e + 8'd1;
    end while (1'b0);
    #1ns;
    d = c;
  end
endmodule
`},
		{name: "case with multi-label arms and a default", src: `
module ctl_tb;
  bit [2:0] sel;
  bit [7:0] y, z;
  always_comb
    case (sel)
      3'd0, 3'd1: y = 8'h10;
      3'd2: y = 8'h20;
      3'd3, 3'd5, 3'd6: y = 8'h30;
      default: y = 8'hff;
    endcase
  initial
    for (int i = 1; i < 9; i++) begin
      #1ns;
      sel = i;
      case (i[2:0])
        3'd1, 3'd4: begin
          #1ns;
          z = z + 8'd1;
        end
        default: z = z + 8'h10;
      endcase
    end
endmodule
`},
		{name: "return from a loop in a function", src: `
module ctl_tb;
  bit [7:0] x, top;
  function bit [7:0] highest(input bit [7:0] v);
    int i;
    i = 8;
    while (i > 0) begin
      i = i - 1;
      if (v[i]) return i;
    end
    highest = 8'hff;
  endfunction
  always_comb top = highest(x);
  initial begin
    x <= 8'h05;
    #1ns;
    x <= 8'h00;
    #1ns;
    x <= 8'h90;
  end
endmodule
`},
		{name: "return from a loop in a process", src: `
module ctl_tb;
  bit [7:0] x, y;
  initial begin
    for (int i = 0; i < 10; i++) begin
      #1ns;
      x = x + 8'd1;
      if (x == 8'd3) return;
    end
    x = 8'hee;
  end
  always_comb begin
    y = 8'hff;
    for (int j = 0; j < 8; j++)
      if (x[j]) begin
        y = j;
        return;
      end
  end
endmodule
`, want: []string{
			"0s 1d ctl_tb.y=255",
			"1ns 1d ctl_tb.x=1",
			"1ns 2d ctl_tb.y=0",
			"2ns 1d ctl_tb.x=2",
			"2ns 2d ctl_tb.y=1",
			"3ns 1d ctl_tb.x=3",
			"3ns 2d ctl_tb.y=0",
		}},
		{name: "waiting function twice in a row and in a loop", drop: []string{"clk"}, src: `
module ctl_tb;
  bit clk;
  bit [7:0] a, b, s;
  function bit [7:0] next_edge(input bit [7:0] x);
    @(posedge clk);
    next_edge = x + 8'd1;
  endfunction` + clock + `
  initial begin
    a = next_edge(8'd10);
    b = next_edge(a);
    for (int i = 0; i < 3; i++)
      s = next_edge(s);
    next_edge(s);
    a = 8'hff;
  end
endmodule
`, want: []string{
			"1ns 2d ctl_tb.a=11",
			"3ns 2d ctl_tb.b=12",
			"5ns 2d ctl_tb.s=1",
			"7ns 2d ctl_tb.s=2",
			"9ns 2d ctl_tb.s=3",
			"11ns 2d ctl_tb.a=255",
		}},
		{name: "$finish in a nested loop of an always block", drop: []string{"clk"}, src: `
module ctl_tb;
  bit clk;
  bit [7:0] cnt, seen;` + clock + `
  always_ff @(posedge clk) begin
    cnt <= cnt + 8'd1;
    for (int i = 0; i < 4; i++)
      for (int j = 0; j < 4; j++) begin
        if (cnt == 8'd3 && i == 2 && j == 1)
          $finish;
        seen <= {i[3:0], j[3:0]};
      end
  end
endmodule
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv, err := build(tc.src, "ctl_tb")
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			got := dropNets(changes(t, sv.Engine, run(sv)), tc.drop)
			if sv.Engine.Failures != 0 {
				t.Errorf("svsim: %d assertion failures", sv.Engine.Failures)
			}
			want := slices.Clone(tc.want)
			slices.Sort(want) // changes sorts the run's lines
			if want == nil {
				m, err := moore.Compile("ctl", tc.src)
				if err != nil {
					t.Fatalf("moore.Compile: %v", err)
				}
				li, err := sim.New(m, "ctl_tb")
				if err != nil {
					t.Fatalf("sim.New: %v", err)
				}
				want = dropNets(changes(t, li.Engine, li.Run), tc.drop)
				if li.Engine.Failures != 0 {
					t.Errorf("interp: %d assertion failures", li.Engine.Failures)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("waveforms differ:\n svsim %q\n want  %q", got, want)
			}
			if len(want) < 5 {
				t.Errorf("the reference has only %d changes; the row tests nothing", len(want))
			}
		})
	}
}

// dropNets removes the lines of the named nets of ctl_tb from a
// waveform of "time name=value" lines.
func dropNets(lines []string, nets []string) []string {
	return slices.DeleteFunc(lines, func(l string) bool {
		return slices.ContainsFunc(nets, func(n string) bool { return strings.Contains(l, " ctl_tb."+n+"=") })
	})
}

// TestRuntimeErrorAfterSuspension: an array index that leaves its range
// in a later activation of an initial block, after several suspensions,
// stops the run at that instant with an error that names the process,
// and the writes before it stand.
func TestRuntimeErrorAfterSuspension(t *testing.T) {
	const src = `
module oob_tb;
  logic [7:0] mem [0:3];
  bit [7:0] last;
  initial begin
    for (int i = 0; i < 8; i++) begin
      #1ns;
      mem[i] = i + 1;
      last = mem[i];
    end
  end
endmodule
`
	s, err := build(src, "oob_tb")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	err = run(s)(ir.Time{})
	const want = `svsim: oob_tb.p1: array index 4 out of range on "mem"`
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("run: %v, want %s ...", err, want)
	}
	if now := s.Engine.Now; now.Fs != 5_000_000 {
		t.Errorf("stopped at %v, want 5ns", now)
	}
	if last := s.Engine.SignalByName("oob_tb.last").Value().Bits; last != 4 {
		t.Errorf("last = %d, want 4", last)
	}
}

// TestWaitingCallShapes: a function that may wait — it holds an @(...)
// or a # delay, or calls one that does — runs under a call op, so it may
// be called only as a statement or as the whole right side of a blocking
// assignment. Every other place, and $finish inside a function, is a
// Compile error that names the process or the function.
func TestWaitingCallShapes(t *testing.T) {
	const funcs = `
  function bit [7:0] after_a(input bit [7:0] x);
    @(posedge a);
    after_a = x + 8'd1;
  endfunction
  function bit [7:0] via(input bit [7:0] x);
    via = after_a(x);
  endfunction
`
	for _, tc := range []struct{ name, body, want string }{
		{"nonblocking", "initial m <= after_a(n);",
			`svsim: wc_tb.p1: after_a may wait: call it as a statement or as the right side of a blocking assignment`},
		{"inside an expression", "initial m = after_a(n) + 8'd1;",
			`svsim: wc_tb.p1: after_a may wait: call it as a statement or as the right side of a blocking assignment`},
		{"through a caller", "always_comb m = via(n) ^ n;",
			`svsim: wc_tb.p1: via may wait: call it as a statement or as the right side of a blocking assignment`},
		{"in a condition", "initial if (after_a(n) == 8'd0) m = 8'd1;",
			`svsim: wc_tb.p1: after_a may wait: call it as a statement or as the right side of a blocking assignment`},
		{"$finish in a function", "function bit f(input bit x); $finish; endfunction",
			`svsim: wc_tb: function f: $finish inside a function`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "module wc_tb;\n  bit a;\n  bit [7:0] n, m;\n" + funcs + "  " + tc.body + "\nendmodule\n"
			_, err := svsim.Compile(src, "wc_tb")
			if err == nil || err.Error() != tc.want {
				t.Errorf("Compile: %v, want %s", err, tc.want)
			}
		})
	}
	ok := "module wc_tb;\n  bit a;\n  bit [7:0] n, m;\n" + funcs +
		"  initial begin\n    m = via(n);\n    after_a(m);\n    n = after_a(m);\n  end\nendmodule\n"
	if _, err := svsim.Compile(ok, "wc_tb"); err != nil {
		t.Errorf("Compile of the allowed shapes: %v", err)
	}
}
