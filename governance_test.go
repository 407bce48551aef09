package llhd_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"llhd"
)

// spinSession builds a session over the never-quiescing spin design —
// the subject for every quota test, since it only stops when governance
// stops it. The batch granularity is forced to 1 so each test observes
// the very first poll that can trip its limit.
func spinSession(t *testing.T, kind llhd.EngineKind, extra ...llhd.SessionOption) *llhd.Session {
	t.Helper()
	m, err := llhd.ParseAssembly("spin", spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]llhd.SessionOption{
		llhd.FromModule(m), llhd.Backend(kind), llhd.WithGovernBatch(1),
	}, extra...)
	s, err := llhd.NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGovernanceQuotas exercises each resource-governance option against
// a design that never quiesces, on both kernel-based backends, and
// checks that the run stops with the matching taxonomy sentinel.
func TestGovernanceQuotas(t *testing.T) {
	until := llhd.Time{Fs: 1_000_000_000} // 1ms: far beyond any quota below
	for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
		t.Run(kind.String()+"/event-limit", func(t *testing.T) {
			s := spinSession(t, kind, llhd.WithEventLimit(3))
			err := s.RunUntil(until)
			if !errors.Is(err, llhd.ErrEventLimit) {
				t.Fatalf("err = %v, want ErrEventLimit", err)
			}
			if got := llhd.ErrorClass(err); got != "event-limit" {
				t.Fatalf("class = %q", got)
			}
		})
		t.Run(kind.String()+"/deadline", func(t *testing.T) {
			s := spinSession(t, kind, llhd.WithDeadline(time.Now().Add(-time.Second)))
			err := s.RunUntil(until)
			if !errors.Is(err, llhd.ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
		})
		t.Run(kind.String()+"/canceled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s := spinSession(t, kind, llhd.WithContext(ctx))
			err := s.RunUntil(until)
			if !errors.Is(err, llhd.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, must also match context.Canceled", err)
			}
		})
		t.Run(kind.String()+"/memory-limit", func(t *testing.T) {
			s := spinSession(t, kind, llhd.WithMemoryLimit(1)) // 1 byte: trips at first poll
			err := s.RunUntil(until)
			if !errors.Is(err, llhd.ErrMemoryLimit) {
				t.Fatalf("err = %v, want ErrMemoryLimit", err)
			}
		})
		t.Run(kind.String()+"/step-limit", func(t *testing.T) {
			s := spinSession(t, kind, llhd.WithStepLimit(5))
			err := s.RunUntil(until)
			if !errors.Is(err, llhd.ErrStepLimit) {
				t.Fatalf("err = %v, want ErrStepLimit", err)
			}
			if got := llhd.ErrorClass(err); got != "step-limit" {
				t.Fatalf("class = %q", got)
			}
		})
	}
}

// TestRunawayFunctionIsStepLimit pins the classification of a function
// that never returns, by looping or by recursing without end: like the
// same loop in a process it is a step-limit quota failure (llhd-sim exit
// 2, HTTP 429), not an internal error — and, for the recursion, not a Go
// stack overflow that no recover can contain — on both LLHD engines.
func TestRunawayFunctionIsStepLimit(t *testing.T) {
	const caller = `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  call void @spin ()
  halt
}
`
	cases := []struct {
		name, src string
		slow      bool // spins each engine's full per-call step budget
	}{
		{"loop", caller + `
func @spin () void {
 entry:
  br %entry
}
`, true},
		{"recursion", caller + `
func @spin () void {
 entry:
  call void @spin ()
  ret
}
`, false},
	}
	for _, c := range cases {
		for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
			t.Run(c.name+"/"+kind.String(), func(t *testing.T) {
				if c.slow && testing.Short() {
					t.Skip("spins each engine's full per-call step budget")
				}
				m, err := llhd.ParseAssembly("runaway", c.src)
				if err != nil {
					t.Fatal(err)
				}
				s, err := llhd.NewSession(llhd.FromModule(m), llhd.Backend(kind))
				if err != nil {
					t.Fatal(err)
				}
				err = s.Run()
				if got := llhd.ErrorClass(err); got != "step-limit" {
					t.Fatalf("class = %q (err = %v), want step-limit", got, err)
				}
			})
		}
	}
}

// TestRunawaySystemVerilogIsStepLimit pins the same classification for
// SystemVerilog input, where SVSim runs the source itself: a function
// that calls itself without a base case is a step-limit failure on all
// three engines (SVSim bounds its call chain by engine.MaxCallDepth, as
// the interpreter does), and so is a loop in an initial block that never
// ends, which SVSim stops at its iteration budget.
func TestRunawaySystemVerilogIsStepLimit(t *testing.T) {
	cases := []struct {
		name, src string
		kinds     []llhd.EngineKind
		slow      bool // spins SVSim's full loop budget
	}{
		{"recursion", `
module runaway_tb;
  bit [31:0] r;
  function bit [31:0] f(bit [31:0] n);
    f = f(n + 1);
  endfunction
  initial begin
    r = f(0);
  end
endmodule
`, []llhd.EngineKind{llhd.Interp, llhd.Blaze, llhd.SVSim}, false},
		{"loop", `
module runaway_tb;
  bit [31:0] r;
  initial begin
    r = 0;
    while (1) r = r + 1;
  end
endmodule
`, []llhd.EngineKind{llhd.SVSim}, true},
	}
	for _, c := range cases {
		for _, kind := range c.kinds {
			t.Run(c.name+"/"+kind.String(), func(t *testing.T) {
				if c.slow && testing.Short() {
					t.Skip("spins SVSim's full loop budget")
				}
				s, err := llhd.NewSession(llhd.FromSystemVerilog(c.src), llhd.Top("runaway_tb"), llhd.Backend(kind))
				if err != nil {
					t.Fatal(err)
				}
				err = s.Run()
				if got := llhd.ErrorClass(err); got != "step-limit" {
					t.Fatalf("class = %q (err = %v), want step-limit", got, err)
				}
			})
		}
	}
}

// TestJumpOnlyCycleIsStepLimit pins what is left of a process that does
// nothing but jump, in one block or in two: blaze's lowering drops the
// fall-through br and threads the rest (bytecode/plan.go, rule 3), and the
// cycle must still hold a transfer that counts against the activation's
// step budget, so that it ends as the same step-limit quota failure as on
// the interpreter instead of spinning forever. WithStepLimit bounds
// instants and is no help here: the process never finishes its first.
func TestJumpOnlyCycleIsStepLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("spins each engine's full per-activation step budget")
	}
	const top = `
entity @top () -> () {
  inst @p () -> ()
}
`
	cases := []struct{ name, src string }{
		{"one block", top + `
proc @p () -> () {
 spin:
  br %spin
}
`},
		{"two blocks", top + `
proc @p () -> () {
 ping:
  br %pong
 pong:
  br %ping
}
`},
	}
	for _, c := range cases {
		for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
			t.Run(c.name+"/"+kind.String(), func(t *testing.T) {
				m, err := llhd.ParseAssembly("cycle", c.src)
				if err != nil {
					t.Fatal(err)
				}
				s, err := llhd.NewSession(llhd.FromModule(m), llhd.Backend(kind), llhd.WithStepLimit(100))
				if err != nil {
					t.Fatal(err)
				}
				if got := llhd.ErrorClass(s.Run()); got != "step-limit" {
					t.Fatalf("class = %q, want step-limit", got)
				}
			})
		}
	}
}

// TestGovernanceRuntimeErrorContext checks that a quota failure carries
// the structured failure context: the instant, progress counters, and a
// kind that survives wrapping.
func TestGovernanceRuntimeErrorContext(t *testing.T) {
	s := spinSession(t, llhd.Interp, llhd.WithEventLimit(3))
	err := s.RunUntil(llhd.Time{Fs: 1_000_000_000})
	var re *llhd.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("quota error is not a *RuntimeError: %v", err)
	}
	if re.DeltaSteps <= 0 || re.Events <= 0 {
		t.Errorf("failure context has no progress: %+v", re)
	}
	st := s.Finish()
	if st.DeltaSteps != re.DeltaSteps || st.Events != re.Events {
		t.Errorf("Finish stats %+v disagree with failure context %+v", st, re)
	}
}

// TestGovernanceViaFarm checks the same quotas hold when the session is
// driven by the farm: each job stops on its own limit and reports the
// classified error through FarmResult.Err.
func TestGovernanceViaFarm(t *testing.T) {
	m, err := llhd.ParseAssembly("spin", spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	until := llhd.Time{Fs: 1_000_000_000} // 1ms: far beyond any quota below
	var farm llhd.Farm
	results := farm.Run(context.Background(),
		llhd.FarmJob{Name: "events", Until: until, Options: []llhd.SessionOption{
			llhd.FromModule(m), llhd.WithEventLimit(3), llhd.WithGovernBatch(1),
		}},
		llhd.FarmJob{Name: "deadline", Until: until, Options: []llhd.SessionOption{
			llhd.FromModule(m), llhd.WithDeadline(time.Now().Add(-time.Second)), llhd.WithGovernBatch(1),
		}},
		llhd.FarmJob{Name: "steps", Until: until, Options: []llhd.SessionOption{
			llhd.FromModule(m), llhd.WithStepLimit(5),
		}},
	)
	wants := map[string]error{
		"events":   llhd.ErrEventLimit,
		"deadline": llhd.ErrDeadline,
		"steps":    llhd.ErrStepLimit,
	}
	for _, r := range results {
		want := wants[r.Name]
		if !errors.Is(r.Err, want) {
			t.Errorf("%s: err = %v, want %v", r.Name, r.Err, want)
		}
		// The expired deadline trips at the first poll, before any
		// instant runs — zero progress is the correct partial result.
		if r.Name != "deadline" && r.Stats.DeltaSteps <= 0 {
			t.Errorf("%s: no partial stats: %+v", r.Name, r.Stats)
		}
	}
}
