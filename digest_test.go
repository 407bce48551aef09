package llhd_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/oracle"
)

// TestFrontendDigests pins what the Moore frontend emits, and what
// llhd.Lower makes of it, for every SystemVerilog input in the tree: the
// ten Table 2 designs, the RV32I core (with the `j 0` image of
// loweringInputs; the output does not depend on the image path) and every
// testdata/corpus/*.sv. A row is the sha256 of llhd.AssemblyString of one
// input in one form, unlowered or lowered; the rows live in
// testdata/frontend.digests. A frontend or lowering change that moves a
// row is deliberate or a bug: regenerate with
//
//	go test -run FrontendDigests -update-golden .
//
// and say in the change which rows moved and why.
func TestFrontendDigests(t *testing.T) {
	inputs := loweringInputs(t)
	corpus, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.sv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, designs.Design{Name: "corpus/" + filepath.Base(path), Source: string(src)})
	}

	var rows []string
	for _, d := range inputs {
		m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		rows = append(rows, fmt.Sprintf("%s unlowered %x", d.Name, sha256.Sum256([]byte(llhd.AssemblyString(m)))))
		if err := llhd.Lower(m); err != nil {
			t.Fatalf("%s: Lower: %v", d.Name, err)
		}
		rows = append(rows, fmt.Sprintf("%s lowered %x", d.Name, sha256.Sum256([]byte(llhd.AssemblyString(m)))))
	}

	path := filepath.Join("testdata", "frontend.digests")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	pinned := map[string]string{} // "input form" -> digest
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			pinned[line[:i]] = line[i+1:]
		}
	}
	for _, row := range rows {
		i := strings.LastIndexByte(row, ' ')
		key, digest := row[:i], row[i+1:]
		want, ok := pinned[key]
		delete(pinned, key)
		switch {
		case !ok:
			t.Errorf("%s: no pinned digest (regenerate with -update-golden)", key)
		case digest != want:
			t.Errorf("%s: output moved: sha256 %s, pinned %s", key, digest, want)
		}
	}
	for key := range pinned {
		t.Errorf("%s: pinned, but the input is gone", key)
	}
}

// TestSVSimTraceDigests pins SVSim's waveform for the ten Table 2 designs
// and every testdata/corpus/*.sv: a row is the input, the sha256 of its
// observer trace (oracle.Lines in kernel order, every delta kept) and the
// time the run ended. SVSim is the reference the Moore flow is diffed
// against, so a change to how it runs must leave every row where it is.
// The rows live in testdata/svsim.digests; regenerate with
//
//	go test -run SVSimTraceDigests -update-golden .
//
// only for a deliberate change of SVSim's semantics, and say which rows
// moved and why.
func TestSVSimTraceDigests(t *testing.T) {
	inputs := designs.All()
	corpus, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.sv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, designs.Design{Name: "corpus/" + filepath.Base(path),
			Source: string(src), Top: svTopModule(string(src))})
	}

	var rows []string
	for _, d := range inputs {
		var trace llhd.TraceObserver
		s, err := llhd.NewSession(llhd.FromSystemVerilog(d.Source), llhd.Top(d.Top),
			llhd.Backend(llhd.SVSim), llhd.WithObserver(&trace))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		err = s.Run()
		fin := s.Finish()
		if err != nil {
			t.Fatalf("%s: Run: %v", d.Name, err)
		}
		sum := sha256.Sum256([]byte(strings.Join(oracle.Lines(&trace), "\n")))
		rows = append(rows, fmt.Sprintf("%s %x %v", d.Name, sum, fin.Now))
	}

	path := filepath.Join("testdata", "svsim.digests")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	pinned := map[string]string{} // input -> "digest end-time"
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, rest, ok := strings.Cut(line, " "); ok {
			pinned[name] = rest
		}
	}
	for _, row := range rows {
		name, got, _ := strings.Cut(row, " ")
		want, ok := pinned[name]
		delete(pinned, name)
		switch {
		case !ok:
			t.Errorf("%s: no pinned digest (regenerate with -update-golden)", name)
		case got != want:
			t.Errorf("%s: waveform moved: %s, pinned %s", name, got, want)
		}
	}
	for name := range pinned {
		t.Errorf("%s: pinned, but the input is gone", name)
	}
}
