package llhd_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"llhd"
	"llhd/internal/designs"
)

// renderTrace runs one session to quiescence with an all-signals observer
// and returns the full delta trace as one string, so equality checks are
// byte-for-byte.
func renderTrace(t *testing.T, opts ...llhd.SessionOption) string {
	t.Helper()
	obs := &llhd.TraceObserver{}
	s, err := llhd.NewSession(append(opts, llhd.WithObserver(obs))...)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	var b strings.Builder
	for _, e := range obs.Entries {
		b.WriteString(e.Time.String())
		b.WriteByte(' ')
		b.WriteString(e.Sig.Name)
		b.WriteByte('=')
		b.WriteString(e.Value.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDesignCacheWarmHitTable2 is the acceptance check for the cache:
// across all ten Table 2 designs, a warm-hit session (compile skipped
// entirely, asserted via the compile-count hook) produces a delta trace
// byte-identical to both the cold cache-miss run and a cache-free blaze
// session.
func TestDesignCacheWarmHitTable2(t *testing.T) {
	dc, err := llhd.NewDesignCache()
	if err != nil {
		t.Fatal(err)
	}
	var compiles atomic.Int64
	dc.SetCompileHook(func(string) { compiles.Add(1) })

	for _, d := range designs.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			base := []llhd.SessionOption{
				llhd.FromSystemVerilog(d.Source), llhd.Top(d.Top),
			}
			ref := renderTrace(t, append(base, llhd.Backend(llhd.Blaze))...)

			before := compiles.Load()
			cold := renderTrace(t, append(base, llhd.WithDesignCache(dc))...)
			if n := compiles.Load() - before; n != 1 {
				t.Fatalf("cold run compiled %d times, want 1", n)
			}
			warm := renderTrace(t, append(base, llhd.WithDesignCache(dc))...)
			if n := compiles.Load() - before; n != 1 {
				t.Fatalf("warm run recompiled (%d compiles for design, want 1)", n)
			}

			if ref == "" {
				t.Fatal("empty reference trace")
			}
			if cold != ref {
				t.Errorf("cold cache trace differs from cache-free blaze trace")
			}
			if warm != ref {
				t.Errorf("warm cache trace differs from cache-free blaze trace")
			}
		})
	}

	st := dc.Stats()
	if st.Compiles != int64(len(designs.All())) {
		t.Errorf("Compiles = %d, want %d (one per design)", st.Compiles, len(designs.All()))
	}
	if st.SourceHits == 0 {
		t.Errorf("SourceHits = 0, want > 0 (warm runs must skip the frontend)")
	}
}

// TestFarmDesignCacheDedup pins the Farm integration: N blaze jobs over one
// input — a shared module or a shared source string — reach a farm-level
// cache as one lookup, compile exactly once, and every job still succeeds
// with the design's normal result; a second Run finds the design warm.
func TestFarmDesignCacheDedup(t *testing.T) {
	m, err := llhd.CompileSystemVerilog("toggle", toggleSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		input llhd.SessionOption
	}{
		{"module", llhd.FromModule(m)},
		{"source", llhd.FromSystemVerilog(toggleSrc)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dc, err := llhd.NewDesignCache()
			if err != nil {
				t.Fatal(err)
			}
			const jobs = 8
			fjobs := make([]llhd.FarmJob, jobs)
			for i := range fjobs {
				fjobs[i] = llhd.FarmJob{
					Name:    "toggle",
					Options: []llhd.SessionOption{c.input, llhd.Top("toggle_tb"), llhd.Backend(llhd.Blaze)},
				}
			}
			farm := &llhd.Farm{Workers: 4, Cache: dc}
			for i, r := range farm.Run(nil, fjobs...) {
				if r.Err != nil {
					t.Fatalf("job %d: %v", i, r.Err)
				}
				if r.Stats.Now == (llhd.Time{}) {
					t.Fatalf("job %d: simulation did not advance", i)
				}
			}
			// One miss and nothing else: a second lookup would show up as a
			// hit (and, for source input, as a source-memo hit).
			if st := dc.Stats(); st != (llhd.CacheStats{Misses: 1, Compiles: 1}) {
				t.Fatalf("stats = %+v, want one miss and one compile for %d jobs", st, jobs)
			}

			// A second Run over the same farm reuses the warm design across
			// Run calls — the property the per-Run sharing cannot provide.
			for i, r := range farm.Run(nil, fjobs[:2]...) {
				if r.Err != nil {
					t.Fatalf("second run job %d: %v", i, r.Err)
				}
			}
			if st := dc.Stats(); st.Compiles != 1 || st.Hits != 1 {
				t.Fatalf("stats after the second Run = %+v, want the one compile and one hit", st)
			}
		})
	}
}

// TestDesignCacheConcurrentSessions exercises the single-flight path from
// the public API: concurrent sessions over one source compile once and all
// produce the identical trace.
func TestDesignCacheConcurrentSessions(t *testing.T) {
	dc, err := llhd.NewDesignCache()
	if err != nil {
		t.Fatal(err)
	}
	var compiles atomic.Int64
	dc.SetCompileHook(func(string) { compiles.Add(1) })

	ref := renderTrace(t,
		llhd.FromSystemVerilog(toggleSrc), llhd.Top("toggle_tb"), llhd.Backend(llhd.Blaze))

	const n = 6
	traces := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obs := &llhd.TraceObserver{}
			s, err := llhd.NewSession(
				llhd.FromSystemVerilog(toggleSrc), llhd.Top("toggle_tb"),
				llhd.WithDesignCache(dc), llhd.WithObserver(obs))
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if err := s.Run(); err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			s.Finish()
			var b strings.Builder
			for _, e := range obs.Entries {
				b.WriteString(e.Time.String() + " " + e.Sig.Name + "=" + e.Value.String() + "\n")
			}
			traces[i] = b.String()
		}(i)
	}
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("%d compiles for one design, want 1", n)
	}
	for i, tr := range traces {
		if tr != ref {
			t.Fatalf("concurrent session %d trace differs from serial reference", i)
		}
	}
}
