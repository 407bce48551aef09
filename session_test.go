package llhd_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/oracle"
)

// updateGolden regenerates testdata golden files instead of comparing:
//
//	go test -run VCDGolden -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// toggleSrc is a tiny self-contained design used by the session tests: a
// clock generator plus a rising-edge counter.
const toggleSrc = `
module toggle_tb;
  bit clk;
  bit [7:0] count;
  initial begin
    automatic int i;
    for (i = 0; i < 10; i = i + 1) begin
      clk <= #5ns 1;
      clk <= #10ns 0;
      #10ns;
    end
  end
  always_ff @(posedge clk) count <= count + 1;
endmodule
`

func sessionFor(t *testing.T, kind llhd.EngineKind, extra ...llhd.SessionOption) *llhd.Session {
	t.Helper()
	opts := append([]llhd.SessionOption{
		llhd.FromSystemVerilog(toggleSrc),
		llhd.Top("toggle_tb"),
		llhd.Backend(kind),
	}, extra...)
	s, err := llhd.NewSession(opts...)
	if err != nil {
		t.Fatalf("NewSession(%v): %v", kind, err)
	}
	return s
}

// TestSessionAllEngines runs the same design through NewSession on all
// three engines and checks they agree on the result and the probe API.
func TestSessionAllEngines(t *testing.T) {
	for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze, llhd.SVSim} {
		t.Run(kind.String(), func(t *testing.T) {
			s := sessionFor(t, kind)
			if err := s.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			count, ok := s.Probe("toggle_tb.count")
			if !ok {
				t.Fatal("Probe(toggle_tb.count): signal not found")
			}
			if count.Bits != 10 {
				t.Errorf("count = %d, want 10", count.Bits)
			}
			if _, ok := s.Probe("toggle_tb.nope"); ok {
				t.Error("Probe of unknown path must report false")
			}
			st := s.Finish()
			if st.DeltaSteps == 0 || st.Events == 0 {
				t.Errorf("empty statistics: %+v", st)
			}
			if st.AssertionFailures != 0 {
				t.Errorf("%d assertion failures", st.AssertionFailures)
			}
			if st.Now.Fs != 100*1_000_000 { // 100ns in fs
				t.Errorf("finished at %v, want 100ns", st.Now)
			}
		})
	}
}

// TestErrorTasksCountAsAssertions pins one meaning of $error and $fatal
// on both SystemVerilog flows: each is one assertion failure, and neither
// stops the run. Before, SVSim ignored $error (one failure here where the
// Moore flow counts two) and failed $fatal at run time as an internal
// error.
func TestErrorTasksCountAsAssertions(t *testing.T) {
	for _, task := range []string{`$error("bad")`, `$fatal(1, "bad")`} {
		t.Run(task[:6], func(t *testing.T) {
			src := "module e_tb;\n  bit [7:0] b;\n  initial begin\n    b = 5;\n    #1ns;\n" +
				"    if (b != 7) " + task + ";\n    assert (b == 7);\n  end\nendmodule\n"
			for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze, llhd.SVSim} {
				s, err := llhd.NewSession(llhd.FromSystemVerilog(src), llhd.Top("e_tb"), llhd.Backend(kind))
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if err := s.Run(); err != nil {
					t.Fatalf("%v: Run: %v", kind, err)
				}
				if st := s.Finish(); st.AssertionFailures != 2 {
					t.Errorf("%v: %d assertion failures, want 2", kind, st.AssertionFailures)
				}
			}
		})
	}
}

// TestSessionStep single-steps a session to completion and checks the
// instant count against a batch run's statistics.
func TestSessionStep(t *testing.T) {
	batch := sessionFor(t, llhd.Interp)
	if err := batch.Run(); err != nil {
		t.Fatal(err)
	}
	want := batch.Finish().DeltaSteps

	s := sessionFor(t, llhd.Interp)
	steps := 0
	for {
		more, err := s.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		steps++
		if !more {
			break
		}
	}
	if steps != want {
		t.Errorf("stepped %d instants, batch run executed %d", steps, want)
	}
	if got := s.Finish().DeltaSteps; got != want {
		t.Errorf("stepped DeltaSteps = %d, want %d", got, want)
	}
}

// TestSessionSVSimLeavesNoGoroutine: an SVSim process keeps its control
// state as data and runs only inside Init and Wake, so a session holds no
// goroutine of its own between calls — stepped part of the way, stopped by
// a step-limit quota, or abandoned without Finish alike. Before, every
// initial block and every body that waits was a coroutine parked on a
// goroutine until Finish ended it.
func TestSessionSVSimLeavesNoGoroutine(t *testing.T) {
	const src = `
module park_tb;
  bit clk;
  bit [7:0] n;
  initial while (1) begin
    #5ns;
    clk <= ~clk;
  end
  initial while (1) begin
    @(posedge clk);
    n <= n + 8'd1;
  end
endmodule
`
	open := func(extra ...llhd.SessionOption) *llhd.Session {
		s, err := llhd.NewSession(append([]llhd.SessionOption{
			llhd.FromSystemVerilog(src), llhd.Top("park_tb"), llhd.Backend(llhd.SVSim),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := runtime.NumGoroutine()
	var sessions []*llhd.Session
	for i := 0; i < 4; i++ {
		s := open()
		for j := 0; j < 10+i; j++ {
			if _, err := s.Step(); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		if v, _ := s.Probe("park_tb.n"); v.Bits == 0 {
			t.Fatalf("n = 0 after %d steps: the blocks did not run", 10+i)
		}
		sessions = append(sessions, s)
	}
	quota := open(llhd.WithStepLimit(5))
	if err := quota.Run(); llhd.ErrorClass(err) != "step-limit" {
		t.Fatalf("Run under a step limit: %v, want class step-limit", err)
	}
	sessions = append(sessions, quota)
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines with %d sessions open and none finished, baseline %d", n, len(sessions), base)
	}
	runtime.KeepAlive(sessions)
}

// TestSessionRunUntil checks bounded execution: time must not pass the
// limit, remaining events stay queued, and a later unbounded Run picks up
// where the bounded one stopped.
func TestSessionRunUntil(t *testing.T) {
	s := sessionFor(t, llhd.Blaze)
	if err := s.RunUntil(llhd.Time{Fs: 42 * 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if now := s.Now(); now.Fs > 42*1_000_000 {
		t.Errorf("RunUntil(42ns) stopped at %v", now)
	}
	count, _ := s.Probe("toggle_tb.count")
	if count.Bits != 4 {
		t.Errorf("count at 42ns = %d, want 4", count.Bits)
	}
	if s.Pending() == 0 {
		t.Error("events beyond the limit must stay queued")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	count, _ = s.Probe("toggle_tb.count")
	if count.Bits != 10 {
		t.Errorf("count after resume = %d, want 10", count.Bits)
	}
	s.Finish()
}

// TestSessionObserver checks observer wiring through the session options:
// an all-signals observer and a path-filtered one.
func TestSessionObserver(t *testing.T) {
	all := &llhd.TraceObserver{}
	var clkChanges int
	counting := observerFunc(func(tm llhd.Time, sig *llhd.Signal, v llhd.Value) { clkChanges++ })
	s := sessionFor(t, llhd.Interp,
		llhd.WithObserver(all),
		llhd.WithObserver(counting, "toggle_tb.clk"),
	)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	if len(all.Entries) == 0 {
		t.Fatal("buffering observer saw nothing")
	}
	if clkChanges != 20 {
		t.Errorf("clk observer fired %d times, want 20 (10 cycles)", clkChanges)
	}
	if clkChanges >= len(all.Entries) {
		t.Errorf("filtered observer (%d) must see fewer changes than the full stream (%d)",
			clkChanges, len(all.Entries))
	}
}

type observerFunc func(llhd.Time, *llhd.Signal, llhd.Value)

func (f observerFunc) OnChange(t llhd.Time, s *llhd.Signal, v llhd.Value) { f(t, s, v) }

// TestConstructionErrorsBothDoors pins the misuse diagnostics of the one
// prepare/open path through both of its doors: every illegal option
// combination and every design that cannot be built fails NewSession, and
// fails a farm job with the same diagnosis without poisoning the healthy
// job queued next to it.
func TestConstructionErrorsBothDoors(t *testing.T) {
	m, err := llhd.CompileSystemVerilog("toggle", toggleSrc)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := llhd.CompileBlaze(m, "toggle_tb")
	if err != nil {
		t.Fatal(err)
	}
	dc, err := llhd.NewDesignCache()
	if err != nil {
		t.Fatal(err)
	}
	sv, top := llhd.FromSystemVerilog(toggleSrc), llhd.Top("toggle_tb")
	cases := []struct {
		name string
		opts []llhd.SessionOption
	}{
		{"no source", []llhd.SessionOption{llhd.Top("x")}},
		{"both sources", []llhd.SessionOption{llhd.FromModule(m), sv}},
		{"svsim needs source", []llhd.SessionOption{llhd.FromModule(m), llhd.Backend(llhd.SVSim)}},
		{"svsim needs top", []llhd.SessionOption{sv, llhd.Backend(llhd.SVSim)}},
		{"unknown engine", []llhd.SessionOption{sv, top, llhd.Backend(llhd.EngineKind(99))}},
		{"compiled with a module", []llhd.SessionOption{llhd.FromCompiled(cd), llhd.FromModule(m)}},
		{"compiled with another top", []llhd.SessionOption{llhd.FromCompiled(cd), llhd.Top("other_tb")}},
		{"compiled on svsim", []llhd.SessionOption{llhd.FromCompiled(cd), llhd.Backend(llhd.SVSim)}},
		{"cache with compiled", []llhd.SessionOption{llhd.FromCompiled(cd), llhd.WithDesignCache(dc)}},
		{"cache on svsim", []llhd.SessionOption{sv, top, llhd.Backend(llhd.SVSim), llhd.WithDesignCache(dc)}},
		{"cache on interp", []llhd.SessionOption{sv, top, llhd.Backend(llhd.Interp), llhd.WithDesignCache(dc)}},
		{"unknown top", []llhd.SessionOption{llhd.FromModule(m), llhd.Top("nope")}},
		{"unknown top, blaze", []llhd.SessionOption{sv, llhd.Top("nope"), llhd.Backend(llhd.Blaze)}},
		{"unknown observer path", []llhd.SessionOption{
			llhd.FromModule(m), top,
			llhd.WithObserver(&llhd.TraceObserver{}, "toggle_tb.nope")}},
	}
	good := llhd.FarmJob{Name: "good", Options: []llhd.SessionOption{llhd.FromModule(m), top}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, serr := llhd.NewSession(c.opts...)
			if serr == nil {
				t.Fatal("NewSession unexpectedly succeeded")
			}
			var f llhd.Farm
			results := f.Run(context.Background(), llhd.FarmJob{Name: "bad", Options: c.opts}, good)
			if results[0].Err == nil {
				t.Error("the farm job unexpectedly succeeded")
			} else if !strings.HasSuffix(results[0].Err.Error(), serr.Error()) {
				t.Errorf("the doors disagree:\n  session: %v\n  farm:    %v", serr, results[0].Err)
			}
			if results[1].Err != nil {
				t.Errorf("healthy job failed next to a broken one: %v", results[1].Err)
			}
		})
	}
}

// TestSessionsFreezeTheirModule pins the freeze contract of construction:
// a session indexes its state by the module's value numbering, so building
// one on either LLHD engine freezes the module and a later pass run
// panics instead of corrupting it; a construction that fails leaves the
// module as mutable as it found it.
func TestSessionsFreezeTheirModule(t *testing.T) {
	for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := llhd.CompileSystemVerilog("toggle", toggleSrc)
			if err != nil {
				t.Fatal(err)
			}
			if m.Frozen() {
				t.Fatal("CompileSystemVerilog must not freeze")
			}
			if _, err := llhd.NewSession(llhd.FromModule(m), llhd.Top("nope"), llhd.Backend(kind)); err == nil {
				t.Fatal("NewSession with an unknown top must fail")
			}
			if m.Frozen() {
				t.Fatal("a failed construction must leave the module unfrozen")
			}
			s, err := llhd.NewSession(llhd.FromModule(m), llhd.Top("toggle_tb"), llhd.Backend(kind))
			if err != nil {
				t.Fatal(err)
			}
			if !m.Frozen() {
				t.Fatal("a successful construction must freeze the module")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("llhd.Lower on the module of a live session must panic")
					}
				}()
				llhd.Lower(m) //nolint:errcheck // expected to panic
			}()
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			first := s.Finish()
			// The frozen module keeps serving sessions.
			s, err = llhd.NewSession(llhd.FromModule(m), llhd.Top("toggle_tb"), llhd.Backend(kind))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if again := s.Finish(); again != first {
				t.Errorf("second session over the frozen module disagrees: %+v vs %+v", again, first)
			}
		})
	}
}

// failAfterWriter accepts n Write calls, then errors: a disk-full
// stand-in.
type failAfterWriter struct{ n int }

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.n--
	return len(p), nil
}

// TestSessionVCDErrorSurfacesOnFinish checks that a stepped-only session
// (which never flushes mid-run) still reports a failed waveform write:
// Finish flushes and Err surfaces the error.
func TestSessionVCDErrorSurfacesOnFinish(t *testing.T) {
	// One successful Write covers the header flush in NewSession; the
	// change-stream flush in Finish must then fail.
	s := sessionFor(t, llhd.Interp, llhd.WithVCD(&failAfterWriter{n: 1}))
	for {
		more, err := s.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			break
		}
	}
	s.Finish()
	if s.Err() == nil {
		t.Error("Err must report the VCD write failure flushed by Finish")
	}
}

// TestSessionTraceEquivalence is the §6.1 cross-engine claim expressed
// through the public API: identical buffered traces from the interpreter
// and the compiled engine for the same module, over the same number of
// instants.
func TestSessionTraceEquivalence(t *testing.T) {
	run := func(kind llhd.EngineKind) (*llhd.TraceObserver, llhd.Finish) {
		obs := &llhd.TraceObserver{}
		s := sessionFor(t, kind, llhd.WithObserver(obs))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return obs, s.Finish()
	}
	a, fa := run(llhd.Interp)
	b, fb := run(llhd.Blaze)
	if len(a.Entries) == 0 {
		t.Fatal("interp trace is empty")
	}
	if d := oracle.Diff("interp", a, "blaze", b); d != "" {
		t.Fatal(d)
	}
	if fa.DeltaSteps != fb.DeltaSteps {
		t.Errorf("interp and blaze executed different instant counts: %d vs %d", fa.DeltaSteps, fb.DeltaSteps)
	}
}

// checkVCDGolden validates the full waveform pipeline on a Table 2
// design: SystemVerilog in, session with WithVCD, byte-exact standard VCD
// out. Regenerate with -update-golden after intentional format or
// elaboration-naming changes.
func checkVCDGolden(t *testing.T, designName string) {
	t.Helper()
	d, err := designs.ByName(designName)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	s, err := llhd.NewSession(
		llhd.FromSystemVerilog(d.Source),
		llhd.Top(d.Top),
		llhd.Backend(llhd.Interp),
		llhd.WithVCD(&got),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.Finish(); st.AssertionFailures != 0 {
		t.Fatalf("%d assertion failures", st.AssertionFailures)
	}

	golden := filepath.Join("testdata", designName+".vcd")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("VCD diverges from golden at line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("VCD length differs from golden: got %d lines, want %d", len(gl), len(wl))
	}
}

func TestVCDGoldenRRArbiter(t *testing.T) { checkVCDGolden(t, "rr_arbiter") }

// TestVCDGoldenFifo pins scope naming on a second, deeper hierarchy (the
// FIFO queue), so elaboration renames cannot slip through on a design the
// rr_arbiter golden happens not to cover.
func TestVCDGoldenFifo(t *testing.T) { checkVCDGolden(t, "fifo") }
