package fuzz

import (
	"strings"
	"testing"

	"llhd"
	"llhd/internal/assembly"
	"llhd/internal/ir"
	"llhd/internal/pass"
)

// FuzzPassPipeline is the Go-native entry point to the pass-pipeline
// differential harness: each (seed, budget) pair deterministically draws
// both a design and a random pass pipeline, and the oracle runs after
// every pass application, so any divergence is bisected to the first
// divergent pass. Run with
//
//	go test -fuzz FuzzPassPipeline ./internal/fuzz
//
// for continuous exploration; under plain `go test` the seed corpus
// below replays as regression coverage.
func FuzzPassPipeline(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, budget int) {
		if budget < 0 || budget > 4096 {
			t.Skip("budget out of the supported range")
		}
		if f := CheckGeneratedPipeline(seed, budget, Options{}); f != nil {
			t.Fatalf("pipeline differential failure:\n%s\n--- pipeline prefix\n%s\n--- design\n%s",
				f.Reason, strings.Join(f.Pipeline, ","), f.Text)
		}
	})
}

// TestPipelineOfDeterministic pins the seed-determinism half of the
// pipeline-mode contract: the drawn pipeline is a pure function of the
// seed, non-empty, made of canonical registry names, and varies across
// seeds.
func TestPipelineOfDeterministic(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 64; seed++ {
		names := PipelineOf(seed)
		if len(names) < 3 || len(names) > 12 {
			t.Fatalf("seed %d: pipeline length %d out of [3,12]", seed, len(names))
		}
		for _, n := range names {
			info, ok := pass.ByName(n)
			if !ok || info.Name != n {
				t.Fatalf("seed %d: pipeline name %q is not canonical", seed, n)
			}
		}
		again := PipelineOf(seed)
		if strings.Join(names, ",") != strings.Join(again, ",") {
			t.Fatalf("seed %d: PipelineOf is not deterministic", seed)
		}
		distinct[strings.Join(names, ",")] = true
	}
	if len(distinct) < 32 {
		t.Fatalf("only %d distinct pipelines over 64 seeds", len(distinct))
	}
}

// TestPipelineDirectiveRoundTrip pins the corpus directive format: the
// line PipelineDirectiveLine writes is the line PipelineDirective reads,
// through a full ReproHeader the way llhd-fuzz -pipeline writes repros.
func TestPipelineDirectiveRoundTrip(t *testing.T) {
	names := []string{"mem2reg", "tcm", "tcfe", "dce"}
	text := ReproHeader("seed 5 budget 48: pipeline mem2reg,tcm: divergence") +
		PipelineDirectiveLine(names) +
		"proc @p () -> () {\n}\n"
	got := PipelineDirective(text)
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("directive round trip: got %v, want %v", got, names)
	}
	if PipelineDirective("entity @top () -> () {\n}\n") != nil {
		t.Fatal("directive found in text without a header")
	}
	// The directive must live in the leading comment header, not in
	// arbitrary body text.
	if PipelineDirective("entity @top () -> () {\n}\n; pipeline: dce\n") != nil {
		t.Fatal("directive found outside the leading comment header")
	}
}

// brokenAfter wraps the registry replay with a deliberate miscompile
// appended to every prefix ending in the named pass: all drv
// instructions in the module are deleted, so nothing is ever driven and
// the settled waveform diverges from the unoptimized reference on any
// design with observable activity. The bisector must attribute the
// divergence to exactly that pass application.
func brokenAfter(passName string) func(prefix []string) func(*llhd.Module) error {
	return func(prefix []string) func(*llhd.Module) error {
		replay := PipelineLower(prefix)
		broken := len(prefix) > 0 && prefix[len(prefix)-1] == passName
		return func(m *llhd.Module) error {
			if err := replay(m); err != nil {
				return err
			}
			if !broken {
				return nil
			}
			for _, u := range m.Units {
				for _, b := range u.Blocks {
					kept := b.Insts[:0]
					for _, in := range b.Insts {
						if in.Op != ir.OpDrv {
							kept = append(kept, in)
						}
					}
					b.Insts = kept
				}
			}
			return nil
		}
	}
}

// TestPipelineBisectsReintroducedMiscompile pins the first-divergent-pass
// attribution: a miscompile deliberately injected after every application
// of one specific pass must be reported with that pass last in the
// failing prefix — and with the prefix exactly as long as the pass's
// first occurrence in the seed's pipeline.
func TestPipelineBisectsReintroducedMiscompile(t *testing.T) {
	checked := 0
	for s := int64(1); s <= 200 && checked < 3; s++ {
		first := -1
		for i, n := range PipelineOf(s) {
			if n == "dce" {
				first = i
				break
			}
		}
		if first < 0 {
			continue
		}
		f := CheckGeneratedPipeline(s, 0, Options{PipelineLower: brokenAfter("dce")})
		if f == nil {
			// This design has no observable activity to lose; try the
			// next seed whose pipeline applies dce.
			continue
		}
		if len(f.Pipeline) != first+1 {
			t.Fatalf("seed %d: failing prefix %v has length %d, want %d (first dce application)",
				s, f.Pipeline, len(f.Pipeline), first+1)
		}
		if got := f.Pipeline[len(f.Pipeline)-1]; got != "dce" {
			t.Fatalf("seed %d: first divergent pass reported as %q, want \"dce\"", s, got)
		}
		if !strings.Contains(f.Reason, `first divergent pass "dce"`) {
			t.Fatalf("seed %d: reason does not name the divergent pass: %s", s, f.Reason)
		}
		if !strings.Contains(f.Reason, ", insts ") || !strings.Contains(f.Reason, ", blocks ") {
			t.Fatalf("seed %d: reason does not carry the pass's instruction and block delta: %s", s, f.Reason)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no seed in 1..200 detected the injected miscompile")
	}
}

// TestPipelineLowerReplaysLoweringPipeline pins that the registry replay
// of the real lowering pipeline's names produces a valid module — the
// -passes replay path and llhd.Lower agree on what the names mean.
func TestPipelineLowerReplaysLoweringPipeline(t *testing.T) {
	m := Generate(Config{Seed: 3})
	if err := PipelineLower(pass.LoweringPipeline().Names())(m); err != nil {
		t.Fatalf("replaying the lowering pipeline by name: %v", err)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("replayed module fails verify: %v", err)
	}
	if _, err := assembly.Parse("replayed", assembly.String(m)); err != nil {
		t.Fatalf("replayed module fails round trip: %v", err)
	}
}
