package llhd_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/fuzz"
)

// TestCorpusReplay re-runs every checked-in repro under testdata/corpus
// through the full differential oracle: .llhd entries across {Interp,
// Blaze} × {unlowered, lowered}, .sv entries additionally through the
// SVSim AST engine. The corpus pins the five PR-4 lowering miscompiles
// (and every future fuzzer finding) as a regression net that is
// independent of the Table 2 matrix test. A file with no replay rule
// fails: a misnamed repro must not drop out of the net unnoticed.
func TestCorpusReplay(t *testing.T) {
	entries, err := filepath.Glob(filepath.Join("testdata", "corpus", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 6 {
		t.Fatalf("expected at least the five PR-4 repros plus one .sv entry, found %d", len(entries))
	}
	for _, path := range entries {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch ext := filepath.Ext(path); ext {
			case ".llhd":
				if f := fuzz.CheckText(name, string(data), fuzz.Options{}); f != nil {
					t.Errorf("corpus repro fails the differential oracle:\n%s", f.Reason)
				}
			case ".sv":
				top := svTopModule(string(data))
				if top == "" {
					t.Fatalf("cannot find a module in %s", path)
				}
				if f := fuzz.CheckSV(name, string(data), top, fuzz.Options{}); f != nil {
					t.Errorf("corpus repro fails the three-engine oracle:\n%s", f.Reason)
				}
			default:
				t.Errorf("no replay rule for %q files: corpus entries are .llhd or .sv", ext)
			}
		})
	}
}

var moduleRe = regexp.MustCompile(`(?m)^\s*module\s+(\w+)`)

// svTopModule picks the testbench module of an .sv corpus entry: the
// first *_tb module, else the last module defined.
func svTopModule(src string) string {
	last := ""
	for _, m := range moduleRe.FindAllStringSubmatch(src, -1) {
		last = m[1]
		if strings.HasSuffix(m[1], "_tb") {
			return m[1]
		}
	}
	return last
}

// TestSessionStepLimit pins the deterministic runaway guard the fuzzing
// harness relies on: a never-quiescing design stopped by WithStepLimit
// reports an error instead of hanging.
func TestSessionStepLimit(t *testing.T) {
	m, err := llhd.ParseAssembly("spin", spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := llhd.NewSession(llhd.FromModule(m), llhd.Top("spin_tb"),
		llhd.Backend(llhd.Interp), llhd.WithStepLimit(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("unbounded design under WithStepLimit(100) must error")
	} else if !strings.Contains(err.Error(), "step limit") {
		t.Errorf("unexpected error: %v", err)
	}
	if got := s.Finish().DeltaSteps; got > 100 {
		t.Errorf("executed %d instants, limit was 100", got)
	}
}
