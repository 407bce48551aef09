package llhd_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/riscv"
	"llhd/internal/simtest"
)

// The RV32I conformance suite: every image under testdata/rv32i is
// assembled, executed on the reference ISS (the independent oracle from
// internal/riscv), and then simulated on all three engines — Interp,
// Blaze, and SVSim — as one Farm. Each leg must report the image's
// tohost verdict, the two LLHD legs must produce identical
// signal-change traces, and every leg's architectural dump
// stream (x1..x31 followed by the first data words, emitted by the
// shared self-check epilogue) must match the ISS exactly. On failure the
// per-leg VCD and trace are written under conformance-failures/ for CI
// to collect. Run via `make conformance`.

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
			runConformanceImage(t, name, path)
		})
	}
}

func runConformanceImage(t *testing.T, name, path string) {
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read image: %v", err)
	}
	src := string(body) + "\n" + riscv.SelfCheckEpilogue()
	words, err := riscv.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}

	// Oracle first: the ISS fixes the expected verdict and the expected
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
		// The core tags each dump with a 1-based sequence number in the
		// upper half so equal consecutive values stay distinct changes.
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
	m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	legs := []struct {
		name string
		opts []llhd.SessionOption
	}{
		{"interp", []llhd.SessionOption{llhd.FromModule(m), llhd.Backend(llhd.Interp)}},
		{"blaze", []llhd.SessionOption{llhd.FromModule(m), llhd.Backend(llhd.Blaze)}},
		{"svsim", []llhd.SessionOption{llhd.FromSystemVerilog(d.Source), llhd.Backend(llhd.SVSim)}},
	}
	obs := make([]*llhd.TraceObserver, len(legs))
	vcds := make([]*bytes.Buffer, len(legs))
	var jobs []llhd.FarmJob
	for i, leg := range legs {
		obs[i] = &llhd.TraceObserver{}
		vcds[i] = &bytes.Buffer{}
		opts := append([]llhd.SessionOption{}, leg.opts...)
		opts = append(opts,
			llhd.Top(d.Top),
			llhd.WithObserver(obs[i]),
			llhd.WithVCD(vcds[i]),
			llhd.WithStepLimit(conformanceStepBudget),
		)
		jobs = append(jobs, llhd.FarmJob{Name: leg.name, Options: opts})
	}
	// Keep the failure artifacts around for CI whenever anything below
	// trips, including trace divergences.
	defer func() {
		if t.Failed() {
			writeConformanceArtifacts(t, name, legs, obs, vcds)
		}
	}()

	var farm llhd.Farm
	for _, r := range farm.Run(context.Background(), jobs...) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if r.Stats.AssertionFailures != 0 {
			t.Errorf("%s: %d assertion failures (machine did not halt?)", r.Name, r.Stats.AssertionFailures)
		}
	}

	// The two LLHD legs share one frozen module and must agree change
	// for change. The SVSim leg names signals by hierarchical path, so it
	// is compared through per-signal value sequences below instead.
	simtest.CompareTraces(t, simtest.Strings(obs[0]), simtest.Strings(obs[1]))
	if !m.Frozen() {
		t.Error("farm must have frozen the shared module")
	}

	for i, leg := range legs {
		tohost, ok := finalSignalValue(obs[i], "tohost")
		if !ok {
			t.Errorf("%s: tohost never changed", leg.name)
			continue
		}
		if tohost != verdict {
			t.Errorf("%s: tohost = %d, want %d", leg.name, tohost, verdict)
		}
		if done, ok := finalSignalValue(obs[i], "done"); !ok || done != 1 {
			t.Errorf("%s: done = %d (seen %v), want 1", leg.name, done, ok)
		}
		gotDump := signalValueSequence(obs[i], "dump")
		if len(gotDump) != len(wantDump) {
			t.Errorf("%s: dump stream has %d entries, ISS has %d", leg.name, len(gotDump), len(wantDump))
			continue
		}
		for j := range wantDump {
			if gotDump[j] != wantDump[j] {
				t.Errorf("%s: dump[%d] = %#x, ISS says %#x", leg.name, j, gotDump[j], wantDump[j])
				break
			}
		}
	}
}

// finalSignalValue returns the last observed value of the signal whose
// name is suffix ("tohost") or ends in ".suffix" (SVSim's hierarchical
// "rv32i_tb.tohost").
func finalSignalValue(o *llhd.TraceObserver, suffix string) (uint64, bool) {
	seq := signalValueSequence(o, suffix)
	if len(seq) == 0 {
		return 0, false
	}
	return seq[len(seq)-1], true
}

// signalValueSequence returns every observed value change of the matching
// signal, in order.
func signalValueSequence(o *llhd.TraceObserver, suffix string) []uint64 {
	var seq []uint64
	for _, te := range o.Entries {
		if te.Sig.Name == suffix || strings.HasSuffix(te.Sig.Name, "."+suffix) {
			seq = append(seq, te.Value.Bits)
		}
	}
	return seq
}

// writeConformanceArtifacts dumps each leg's VCD and rendered trace under
// conformance-failures/<image>/ so CI uploads them on red runs.
func writeConformanceArtifacts(t *testing.T, image string, legs []struct {
	name string
	opts []llhd.SessionOption
}, obs []*llhd.TraceObserver, vcds []*bytes.Buffer) {
	dir := filepath.Join("conformance-failures", image)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	for i, leg := range legs {
		if err := os.WriteFile(filepath.Join(dir, leg.name+".vcd"), vcds[i].Bytes(), 0o644); err != nil {
			t.Logf("artifacts: %v", err)
		}
		var b bytes.Buffer
		for _, line := range simtest.Strings(obs[i]) {
			fmt.Fprintln(&b, line)
		}
		if err := os.WriteFile(filepath.Join(dir, leg.name+".trace"), b.Bytes(), 0o644); err != nil {
			t.Logf("artifacts: %v", err)
		}
	}
	t.Logf("wrote failure artifacts to %s", dir)
}
