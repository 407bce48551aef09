package llhd_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"llhd"
)

// farmTrace runs one job list through a farm and fails on any job error.
func farmRun(t *testing.T, f *llhd.Farm, jobs ...llhd.FarmJob) []llhd.FarmResult {
	t.Helper()
	results := f.Run(context.Background(), jobs...)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("farm job %d (%s): %v", r.Index, r.Name, r.Err)
		}
	}
	return results
}

// TestFarmThreeBackendSweep is the quickstart scenario: one design, three
// engines, run as a farm, traces and statistics compared across backends.
func TestFarmThreeBackendSweep(t *testing.T) {
	m, err := llhd.CompileSystemVerilog("toggle", toggleSrc)
	if err != nil {
		t.Fatal(err)
	}
	interpObs, blazeObs := &llhd.TraceObserver{}, &llhd.TraceObserver{}
	jobs := []llhd.FarmJob{
		{Name: "interp", Options: []llhd.SessionOption{
			llhd.FromModule(m), llhd.Top("toggle_tb"),
			llhd.Backend(llhd.Interp), llhd.WithObserver(interpObs)}},
		{Name: "blaze", Options: []llhd.SessionOption{
			llhd.FromModule(m), llhd.Top("toggle_tb"),
			llhd.Backend(llhd.Blaze), llhd.WithObserver(blazeObs)}},
		{Name: "svsim", Options: []llhd.SessionOption{
			llhd.FromSystemVerilog(toggleSrc), llhd.Top("toggle_tb"),
			llhd.Backend(llhd.SVSim)}},
	}
	results := farmRun(t, &llhd.Farm{}, jobs...)

	if !m.Frozen() {
		t.Error("the farm must freeze shared modules before fanning out")
	}
	for _, r := range results {
		if r.Stats.AssertionFailures != 0 {
			t.Errorf("%s: %d assertion failures", r.Name, r.Stats.AssertionFailures)
		}
		if r.Stats.DeltaSteps == 0 {
			t.Errorf("%s: empty statistics %+v", r.Name, r.Stats)
		}
	}
	if results[0].Stats.DeltaSteps != results[1].Stats.DeltaSteps {
		t.Errorf("interp and blaze executed different instant counts: %d vs %d",
			results[0].Stats.DeltaSteps, results[1].Stats.DeltaSteps)
	}
	// The §6.1 differential check: identical observer streams.
	if len(interpObs.Entries) == 0 || len(interpObs.Entries) != len(blazeObs.Entries) {
		t.Fatalf("trace lengths: interp %d, blaze %d", len(interpObs.Entries), len(blazeObs.Entries))
	}
	for i := range interpObs.Entries {
		a, b := interpObs.Entries[i], blazeObs.Entries[i]
		as := fmt.Sprintf("%v %s=%s", a.Time, a.Sig.Name, a.Value)
		bs := fmt.Sprintf("%v %s=%s", b.Time, b.Sig.Name, b.Value)
		if as != bs {
			t.Fatalf("traces diverge at %d: %s vs %s", i, as, bs)
		}
	}
}

// TestFarmSharesOneCompiledDesign pins the blaze sharing contract for an
// explicitly precompiled design: every FromCompiled job runs over that one
// immutable design and they all agree.
func TestFarmSharesOneCompiledDesign(t *testing.T) {
	m, err := llhd.CompileSystemVerilog("toggle", toggleSrc)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := llhd.CompileBlaze(m, "toggle_tb")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	jobs := make([]llhd.FarmJob, n)
	for i := range jobs {
		jobs[i] = llhd.FarmJob{
			Name:    fmt.Sprintf("shared-%d", i),
			Options: []llhd.SessionOption{llhd.FromCompiled(cd)},
		}
	}
	results := farmRun(t, &llhd.Farm{Workers: 4}, jobs...)
	want := results[0].Stats
	for _, r := range results {
		if r.Stats != want {
			t.Errorf("%s: statistics diverge: %+v vs %+v", r.Name, r.Stats, want)
		}
		if r.Stats.AssertionFailures != 0 {
			t.Errorf("%s: %d assertion failures", r.Name, r.Stats.AssertionFailures)
		}
	}
}

// TestCompileBlazeFailureLeavesModuleUnfrozen pins the error contract of
// the compile-then-freeze order: a failed compile must not brick the
// caller's module, since freezing is irreversible.
func TestCompileBlazeFailureLeavesModuleUnfrozen(t *testing.T) {
	const badCall = `
proc @p () -> (i1$ %q) {
 entry:
  call void @missing ()
  halt
}
entity @bad_tb () -> () {
  %z = const i1 0
  %q = sig i1 %z
  inst @p () -> (i1$ %q)
}
`
	m, err := llhd.ParseAssembly("bad", badCall)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := llhd.CompileBlaze(m, "bad_tb"); err == nil {
		t.Fatal("CompileBlaze of a design calling an undefined function must fail")
	}
	if m.Frozen() {
		t.Error("failed CompileBlaze must leave the module unfrozen")
	}
}

// spinSrc never quiesces: a 1ns self-retriggering clock, for cancellation
// and run-length tests.
const spinSrc = `
proc @spin () -> (i1$ %q) {
 entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %d = const time 1ns
  br %hi
 hi:
  drv i1$ %q, %b1 after %d
  wait %lo for %d
 lo:
  drv i1$ %q, %b0 after %d
  wait %hi for %d
}
entity @spin_tb () -> () {
  %z = const i1 0
  %q = sig i1 %z
  inst @spin () -> (i1$ %q)
}
`

// TestFarmUntilBoundsJobs checks the per-job run length: a never-ending
// design stops at its Until limit.
func TestFarmUntilBoundsJobs(t *testing.T) {
	m, err := llhd.ParseAssembly("spin", spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	limit := llhd.Time{Fs: 100 * 1_000_000} // 100ns
	results := farmRun(t, &llhd.Farm{}, llhd.FarmJob{
		Options: []llhd.SessionOption{llhd.FromModule(m), llhd.Top("spin_tb")},
		Until:   limit,
	})
	if now := results[0].Stats.Now; now.Fs > limit.Fs {
		t.Errorf("job ran past its limit: %v", now)
	}
	if results[0].Stats.DeltaSteps == 0 {
		t.Error("bounded job executed nothing")
	}
}

// TestFarmContextCancellation checks that a cancelled context stops
// unbounded jobs promptly and surfaces ctx.Err in their results.
func TestFarmContextCancellation(t *testing.T) {
	m, err := llhd.ParseAssembly("spin", spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan []llhd.FarmResult, 1)
	go func() {
		var f llhd.Farm
		done <- f.Run(ctx, llhd.FarmJob{
			Options: []llhd.SessionOption{llhd.FromModule(m), llhd.Top("spin_tb")},
		})
	}()
	select {
	case results := <-done:
		if results[0].Err == nil {
			t.Fatal("cancelled unbounded job must report an error")
		}
		if !strings.Contains(results[0].Err.Error(), "context canceled") {
			t.Errorf("unexpected error: %v", results[0].Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("farm did not stop after cancellation")
	}
}

// TestFarmSharesOneSourceDesign pins what FarmJob and llhd-sim -j promise
// for source input: N jobs naming one SystemVerilog source string run the
// Moore frontend once and, on blaze, compile once; the sessions then run
// over that one design and agree.
func TestFarmSharesOneSourceDesign(t *testing.T) {
	for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
		t.Run(kind.String(), func(t *testing.T) {
			phases := map[string]int{} // written during the farm's serial preparation only
			const n = 6
			jobs := make([]llhd.FarmJob, n)
			for i := range jobs {
				jobs[i] = llhd.FarmJob{Options: []llhd.SessionOption{
					llhd.FromSystemVerilog(toggleSrc), llhd.Top("toggle_tb"), llhd.Backend(kind),
					llhd.WithPhaseHook(func(p string) { phases[p]++ }),
				}}
			}
			results := farmRun(t, &llhd.Farm{Workers: 3}, jobs...)
			for _, r := range results {
				if r.Stats != results[0].Stats || r.Stats.DeltaSteps == 0 {
					t.Errorf("job %d: statistics %+v, job 0 has %+v", r.Index, r.Stats, results[0].Stats)
				}
			}
			want := map[string]int{"frontend": 1}
			if kind == llhd.Blaze {
				want["compile"] = 1
			}
			if fmt.Sprint(phases) != fmt.Sprint(want) {
				t.Errorf("%d jobs over one source ran %v, want %v", n, phases, want)
			}
		})
	}
}
