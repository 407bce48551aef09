package llhd_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhd/internal/designs"
	"llhd/internal/fuzz"
	"llhd/internal/oracle"
	"llhd/internal/riscv"
)

// The RV32I conformance suite: every image under testdata/rv32i is
// assembled, executed on the reference ISS (the independent oracle from
// internal/riscv), and then run through the differential oracle as one
// farm of five legs — {Interp, Blaze} × {unlowered, lowered} and SVSim
// (fuzz.CheckSVLegs: every clause of fuzz.CheckSV holds). On top of that
// each leg must report the image's tohost verdict and produce the ISS's
// architectural dump stream exactly (x1..x31 followed by the first data
// words, emitted by the shared self-check epilogue). On failure each
// leg's trace is written under conformance-failures/ for CI to collect.
// Run via `make conformance`.

// conformanceVerdicts maps the images that do not pass cleanly to their
// expected riscv-tests verdict; everything else must report 1 (pass).
// fail_neg is the negative control: its test 2 is deliberately wrong, so
// every engine (and the ISS) must report (2<<1)|1 = 5 — proving a real
// regression would be caught on each leg, not just detected by trace
// disagreement.
var conformanceVerdicts = map[string]uint64{
	"fail_neg": 5,
}

const (
	// conformanceISSBudget bounds the oracle; conformanceStepBudget
	// bounds each engine leg (time instants, deterministic). Both are
	// far above any suite image and keep CI failures fast.
	conformanceISSBudget  = 10_000
	conformanceStepBudget = 100_000
)

func TestRV32IConformance(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("testdata", "rv32i", "*.s"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no conformance images found: %v", err)
	}
	if len(names) < 12 {
		t.Fatalf("conformance suite shrank: %d images, want at least 12", len(names))
	}
	for _, path := range names {
		name := strings.TrimSuffix(filepath.Base(path), ".s")
		t.Run(name, func(t *testing.T) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read image: %v", err)
			}
			words, err := riscv.Assemble(string(body) + "\n" + riscv.SelfCheckEpilogue())
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}

			// The ISS first: it fixes the expected verdict and the expected
			// architectural dump stream.
			verdict := uint64(1)
			if v, ok := conformanceVerdicts[name]; ok {
				verdict = v
			}
			iss := riscv.NewISS(words)
			if err := iss.Run(conformanceISSBudget); err != nil {
				t.Fatalf("ISS: %v", err)
			}
			if uint64(iss.ToHost) != verdict {
				t.Fatalf("ISS verdict: tohost = %d, want %d", iss.ToHost, verdict)
			}
			wantDump := make([]uint64, len(iss.Dump))
			for i, v := range iss.Dump {
				// The core tags each dump with a 1-based sequence number in
				// the upper half so equal consecutive values stay distinct
				// changes.
				wantDump[i] = uint64(i+1)<<32 | uint64(v)
			}

			hexPath := filepath.Join(t.TempDir(), name+".hex")
			f, err := os.Create(hexPath)
			if err != nil {
				t.Fatalf("create hex image: %v", err)
			}
			if err := riscv.WriteHex(f, words); err != nil {
				t.Fatalf("write hex image: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("close hex image: %v", err)
			}

			d := designs.RV32I(hexPath)
			fail, legs := fuzz.CheckSVLegs(d.Name, d.Source, d.Top, fuzz.Options{StepLimit: conformanceStepBudget})
			defer func() {
				if t.Failed() {
					writeConformanceArtifacts(t, name, legs)
				}
			}()
			if fail != nil {
				t.Errorf("%s: %s", fail.Class, fail.Reason)
			}
			for _, leg := range legs {
				final := func(sig string) (uint64, bool) {
					seq := oracle.Values(leg.Trace, d.Top+"."+sig)
					if len(seq) == 0 {
						return 0, false
					}
					return seq[len(seq)-1], true
				}
				if tohost, ok := final("tohost"); !ok || tohost != verdict {
					t.Errorf("%s: tohost = %d (seen %v), want %d", leg.Name, tohost, ok, verdict)
				}
				if done, ok := final("done"); !ok || done != 1 {
					t.Errorf("%s: done = %d (seen %v), want 1", leg.Name, done, ok)
				}
				gotDump := oracle.Values(leg.Trace, d.Top+".dump")
				if len(gotDump) != len(wantDump) {
					t.Errorf("%s: dump stream has %d entries, ISS has %d", leg.Name, len(gotDump), len(wantDump))
					continue
				}
				for j := range wantDump {
					if gotDump[j] != wantDump[j] {
						t.Errorf("%s: dump[%d] = %#x, ISS says %#x", leg.Name, j, gotDump[j], wantDump[j])
						break
					}
				}
			}
		})
	}
}

// writeConformanceArtifacts dumps each leg's rendered trace under
// conformance-failures/<image>/ so CI uploads them on red runs.
func writeConformanceArtifacts(t *testing.T, image string, legs []oracle.Result) {
	dir := filepath.Join("conformance-failures", image)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	for _, leg := range legs {
		lines := strings.Join(oracle.Lines(leg.Trace), "\n") + "\n"
		file := strings.ReplaceAll(leg.Name, "/", "-") + ".trace"
		if err := os.WriteFile(filepath.Join(dir, file), []byte(lines), 0o644); err != nil {
			t.Logf("artifacts: %v", err)
		}
	}
	t.Logf("wrote failure artifacts to %s", dir)
}
