package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"llhd"
)

// TestMain lets a test run llhd-sim itself, for what only the process
// shows (the exit status, the whole of stderr): with beMainEnv set, the
// test binary is llhd-sim.
func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

const beMainEnv = "LLHD_SIM_TEST_BE_MAIN"

// runSelf runs llhd-sim with the arguments and returns its exit status and
// stderr.
func runSelf(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("running llhd-sim: %v", err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestMalformedDesignIsExitOne: a design an engine must not be built on —
// an instruction illegal for its unit kind in assembly, an operand count
// the bitcode decoder let through — is one diagnostic line and exit
// status 1 on both engines. Before sessions checked shape at construction
// the first was exit 3 on interp and a silently wrong run on blaze, the
// second an uncontained Go panic (exit 2, a goroutine dump) on both.
func TestMalformedDesignIsExitOne(t *testing.T) {
	dir := t.TempDir()
	const regInProc = `
entity @top () -> () {
  %z = const i1 0
  %a = sig i1 %z
  %q = sig i1 %z
  inst @p (i1$ %a) -> (i1$ %q)
}
proc @p (i1$ %a) -> (i1$ %q) {
 entry:
  %x = prb i1$ %a
  reg i1$ %q, %x rise %x
  halt
}
`
	m, err := llhd.ParseAssembly("m", "entity @top () -> () {\n  inst @top () -> ()\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	m.Unit("top").Body().Insts[0].NumIns = 7
	bc, err := llhd.EncodeBitcode(m)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file string
		data []byte
		want string
	}{
		{"reg_in_proc.llhd", []byte(regInProc), "llhd-sim: ir: @p: %<reg> (reg) in %entry: illegal in proc units\n"},
		{"numins.bc", bc, "llhd-sim: ir: @top: %<inst> (inst) in %body: inst counts 7 inputs among 0 operands\n"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.file)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"interp", "blaze"} {
			code, stderr := runSelf(t, "-top", "top", "-engine", engine, path)
			if code != 1 || stderr != c.want {
				t.Errorf("%s on %s: exit %d, stderr %q; want exit 1, stderr %q", c.file, engine, code, stderr, c.want)
			}
		}
	}
}

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
