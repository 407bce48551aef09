package main

import (
	"bytes"
	"strings"
	"testing"

	"llhd"
)

const displaySrc = `module disp_tb;
  logic [7:0] q;
  initial begin
    q <= 0;
    repeat (100) begin
      #1ns;
      $display(q, q, q, q);
      q <= q + 1;
    end
  end
endmodule
`

// TestSweepDisplayLinesWhole runs the -j sweep over a design that
// displays: the sessions print from the farm's worker goroutines into the
// one stdout writer, so every line must still come out whole. make
// test-race runs it under the race detector.
func TestSweepDisplayLinesWhole(t *testing.T) {
	const jobs = 4
	var buf bytes.Buffer
	saved := stdout
	stdout = newOutput(&buf, false)
	defer func() { stdout = saved }()

	for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
		buf.Reset()
		runSweep(jobs, llhd.Time{}, []llhd.SessionOption{
			llhd.Backend(kind),
			llhd.Top("disp_tb"),
			llhd.FromSystemVerilog(displaySrc),
			llhd.WithDisplay(stdout.println),
		})
		if err := stdout.flush(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		shown := 0
		for _, l := range lines[:len(lines)-2] { // the sweep's two summary lines close the output
			if f := strings.Fields(l); len(f) != 4 || f[0] != f[1] || f[0] != f[2] || f[0] != f[3] {
				t.Fatalf("%v: torn display line %q", kind, l)
			}
			shown++
		}
		if shown != jobs*100 {
			t.Errorf("%v: %d display lines, want %d", kind, shown, jobs*100)
		}
	}
}
