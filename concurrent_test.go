package llhd_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"llhd"
	"llhd/internal/designs"
)

// concurrentSessions is the farm's race envelope: enough goroutines to
// collide on every shared artifact (numberings, bind/const tables, blaze
// code) under `go test -race`.
const concurrentSessions = 16

// TestConcurrentSessionsSharedFrozenModule spins 16 fully concurrent
// sessions per backend over one shared frozen design and requires every
// session to produce the exact single-session result. Under -race this is
// the enforcement hook for the freeze contract: ir.Numbering reads,
// engine.Instance bind/const table construction, and blaze's shared
// compiled code must all be read-only after the serial preparation.
func TestConcurrentSessionsSharedFrozenModule(t *testing.T) {
	m, err := llhd.CompileSystemVerilog("toggle", toggleSrc)
	if err != nil {
		t.Fatal(err)
	}
	m.Freeze()
	cd, err := llhd.CompileBlaze(m, "toggle_tb")
	if err != nil {
		t.Fatal(err)
	}

	source := map[llhd.EngineKind][]llhd.SessionOption{
		llhd.Interp: {llhd.FromModule(m), llhd.Top("toggle_tb"), llhd.Backend(llhd.Interp)},
		llhd.Blaze:  {llhd.FromCompiled(cd)},
		llhd.SVSim:  {llhd.FromSystemVerilog(toggleSrc), llhd.Top("toggle_tb"), llhd.Backend(llhd.SVSim)},
	}
	for kind, opts := range source {
		t.Run(kind.String(), func(t *testing.T) {
			errs := make([]error, concurrentSessions)
			var wg sync.WaitGroup
			for g := 0; g < concurrentSessions; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s, err := llhd.NewSession(opts...)
					if err != nil {
						errs[g] = err
						return
					}
					if err := s.Run(); err != nil {
						errs[g] = err
						return
					}
					count, ok := s.Probe("toggle_tb.count")
					if !ok || count.Bits != 10 {
						errs[g] = fmt.Errorf("count = %v (ok=%v), want 10", count.Bits, ok)
					}
					if st := s.Finish(); st.AssertionFailures != 0 {
						errs[g] = fmt.Errorf("%d assertion failures", st.AssertionFailures)
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Errorf("session %d: %v", g, err)
				}
			}
		})
	}
}

// TestConcurrentSessionsTable2Design repeats the race envelope on a real
// Table 2 design (rr_arbiter: hierarchy, reg storage, projections) so the
// shared blaze code paths beyond the toggle microdesign — reg histories,
// wait lists, probed sensitivity — are all exercised concurrently.
func TestConcurrentSessionsTable2Design(t *testing.T) {
	d, err := designs.ByName("rr_arbiter")
	if err != nil {
		t.Fatal(err)
	}
	m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := llhd.CompileBlaze(m, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]llhd.SessionOption{
		{llhd.FromModule(m), llhd.Top(d.Top), llhd.Backend(llhd.Interp)},
		{llhd.FromCompiled(cd)},
	} {
		opts := opts
		errs := make([]error, concurrentSessions)
		var wg sync.WaitGroup
		for g := 0; g < concurrentSessions; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s, err := llhd.NewSession(opts...)
				if err != nil {
					errs[g] = err
					return
				}
				if err := s.Run(); err != nil {
					errs[g] = err
					return
				}
				if st := s.Finish(); st.AssertionFailures != 0 {
					errs[g] = fmt.Errorf("%d assertion failures", st.AssertionFailures)
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Errorf("session %d: %v", g, err)
			}
		}
	}
}

// TestConcurrentBytecodeTierSharedDesign is blaze's race envelope: one
// frozen module, one bytecode CompiledDesign, 16
// fully concurrent sessions executing the shared flat instruction streams
// through per-session frames. Under -race this enforces that the lowered
// Units (code, aux pools, const templates, wait shapes) are never written
// after the compile — only the per-session register files are. Every
// concurrent trace must match a serial interpreter reference session
// byte for byte, so the engines are also cross-checked under contention.
func TestConcurrentBytecodeTierSharedDesign(t *testing.T) {
	d, err := designs.ByName("cdc_gray")
	if err != nil {
		t.Fatal(err)
	}
	m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := llhd.CompileBlaze(m, d.Top)
	if err != nil {
		t.Fatal(err)
	}

	// Serial interpreter reference over the same frozen module.
	refObs := &llhd.TraceObserver{}
	ref, err := llhd.NewSession(llhd.FromModule(m), llhd.Top(d.Top),
		llhd.Backend(llhd.Interp), llhd.WithObserver(refObs))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	ref.Finish()
	want := traceStrings(refObs)

	errs := make([]error, concurrentSessions)
	traces := make([][]string, concurrentSessions)
	var wg sync.WaitGroup
	for g := 0; g < concurrentSessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs := &llhd.TraceObserver{}
			s, err := llhd.NewSession(llhd.FromCompiled(cd), llhd.WithObserver(obs))
			if err != nil {
				errs[g] = err
				return
			}
			if err := s.Run(); err != nil {
				errs[g] = err
				return
			}
			if st := s.Finish(); st.AssertionFailures != 0 {
				errs[g] = fmt.Errorf("%d assertion failures", st.AssertionFailures)
				return
			}
			traces[g] = traceStrings(obs)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", g, err)
		}
	}
	for g, tr := range traces {
		if len(tr) != len(want) {
			t.Fatalf("session %d: trace length %d, interpreter reference %d", g, len(tr), len(want))
		}
		for i := range tr {
			if tr[i] != want[i] {
				t.Fatalf("session %d: trace diverges from interpreter reference at %d: %q vs %q",
					g, i, tr[i], want[i])
			}
		}
	}
}

// traceStrings renders a buffered trace for comparison.
func traceStrings(o *llhd.TraceObserver) []string {
	out := make([]string, 0, len(o.Entries))
	for _, te := range o.Entries {
		out = append(out, fmt.Sprintf("%v %s=%s", te.Time, te.Sig.Name, te.Value))
	}
	return out
}

// TestConcurrentVCDMatchesSerial checks that waveform output is oblivious
// to farm concurrency: two sessions writing VCD concurrently over one
// frozen design each produce a byte-identical file to a serial run.
func TestConcurrentVCDMatchesSerial(t *testing.T) {
	d, err := designs.ByName("rr_arbiter")
	if err != nil {
		t.Fatal(err)
	}
	m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
	if err != nil {
		t.Fatal(err)
	}
	m.Freeze()

	render := func(kind llhd.EngineKind) []byte {
		var buf bytes.Buffer
		s, err := llhd.NewSession(
			llhd.FromModule(m), llhd.Top(d.Top), llhd.Backend(kind), llhd.WithVCD(&buf))
		if err != nil {
			t.Errorf("NewSession(%v): %v", kind, err)
			return nil
		}
		if err := s.Run(); err != nil {
			t.Errorf("Run(%v): %v", kind, err)
			return nil
		}
		s.Finish()
		return buf.Bytes()
	}

	serialInterp := render(llhd.Interp)
	serialBlaze := render(llhd.Blaze)
	if len(serialInterp) == 0 || len(serialBlaze) == 0 {
		t.Fatal("serial reference runs produced no VCD")
	}

	var wg sync.WaitGroup
	concurrent := make([][]byte, 2)
	for i, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
		wg.Add(1)
		go func(i int, kind llhd.EngineKind) {
			defer wg.Done()
			concurrent[i] = render(kind)
		}(i, kind)
	}
	wg.Wait()

	if !bytes.Equal(concurrent[0], serialInterp) {
		t.Error("concurrent interp VCD differs from its serial run")
	}
	if !bytes.Equal(concurrent[1], serialBlaze) {
		t.Error("concurrent blaze VCD differs from its serial run")
	}
}
