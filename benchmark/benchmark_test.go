package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// tinyConfig runs a workload at sizes that fit the tier-1 test budget:
// one round of every unit, one schedule block, one set-up.
func tinyConfig(t *testing.T, seed int64, trace bool) config {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: seed, trace: trace, sz: tinySizes, budget: budget{min: 1}, setUpReps: 1,
		dir: t.TempDir(), pins: pins}
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkloadsCleanAndNamed runs every workload untraced and one
// traced: no op may fail its check, and the names printed must be
// exactly the names BENCHMARK.json declares.
func TestWorkloadsCleanAndNamed(t *testing.T) {
	man := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(man.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", n, len(workloads))
	}
	if len(man.EndToEnd) > 16 || len(man.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics: over 16 / 128", len(man.EndToEnd), len(man.PerLayer))
	}
	var wantE2E, wantLayer []string
	for i, e := range man.EndToEnd {
		d := endToEndMetrics[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, e, d)
		}
		wantE2E = append(wantE2E, e.Name)
	}
	for _, l := range man.PerLayer {
		wantLayer = append(wantLayer, l.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	for _, n := range append(append([]string{}, wantE2E...), wantLayer...) {
		if !nameRE.MatchString(n) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", n)
		}
	}

	for i := range workloads {
		w := &workloads[i]
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program has %q", i, man.Workloads[i].Name, w.name)
		}
		r, err := runWorkload(w, tinyConfig(t, 3, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, r.Failed, r.Attempted, r.Errors)
		}
		if got := names(r.Metrics); !slices.Equal(got, wantE2E) {
			t.Errorf("%s prints end-to-end metrics\n%v\nBENCHMARK.json lists\n%v", w.name, got, wantE2E)
		}
		for n, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", w.name, n, m.Value)
			}
		}
	}

	r, err := runWorkload(&workloads[len(workloads)-1], tinyConfig(t, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Errorf("traced run: %d of %d ops failed: %v", r.Failed, r.Attempted, r.Errors)
	}
	if got := names(r.Metrics); !slices.Equal(got, wantLayer) {
		t.Errorf("the traced run prints per-layer metrics\n%v\nBENCHMARK.json lists\n%v", got, wantLayer)
	}
}

// generated returns everything a seed determines: the generated
// SystemVerilog, the program images and the first schedule blocks.
func generated(t *testing.T, w *workload, seed int64, dir string) (text []byte, cycles int) {
	in, err := setUp(w, tinySizes, seed, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.srv.close()
	var b bytes.Buffer
	for _, d := range in.sims {
		b.WriteString(d.source)
		cycles += d.ref.cycles
	}
	hexes, _ := filepath.Glob(filepath.Join(dir, "*.hex"))
	for _, h := range hexes {
		data, err := os.ReadFile(h)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	for i := 0; i < 3; i++ {
		for _, r := range in.block(i) {
			b.WriteString(r.path)
			b.Write(r.body)
		}
	}
	return b.Bytes(), cycles
}

// TestSeedDeterminesInputs: the same seed gives byte-identical inputs;
// another seed gives other bytes and the same amount of work.
func TestSeedDeterminesInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		dir := t.TempDir()
		a, ca := generated(t, w, 1, dir)
		b, cb := generated(t, w, 1, dir)
		c, cc := generated(t, w, 2, dir)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
		if ca != cb || ca != cc {
			t.Errorf("%s: cycle counts %d, %d, %d differ across seeds", w.name, ca, cb, cc)
		}
	}
}

// TestWrongPinFails: the correctness gate is live. A pinned final time
// that the design does not reach must fail every op on that design.
func TestWrongPinFails(t *testing.T) {
	cfg := tinyConfig(t, 3, false)
	p := cfg.pins["fir"]
	if p.Now == "" {
		t.Fatal("expected.json has no pin for fir")
	}
	p.Now = "1ns"
	cfg.pins["fir"] = p
	w, err := workloadByName("table2_sweep")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed == 0 {
		t.Errorf("a wrong pin failed none of %d ops", r.Attempted)
	}
}
