package bitcode_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"llhd/internal/bitcode"
	"llhd/internal/designs"
	"llhd/internal/moore"
	"llhd/internal/pass"
)

// updateGolden regenerates the golden bitcode instead of comparing,
// matching the VCD goldens' idiom in the root package:
//
//	go test ./internal/bitcode -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden bitcode files")

// TestGoldenRRArbiter pins the bitcode-v2 encoding byte-for-byte for a
// Table 2 design, frontend through lowering. The content-addressed
// design cache keys on these exact bytes — an unintended encoding
// change silently invalidates every persisted cache artifact and makes
// "same design" stop deduplicating across binary versions, so the
// encoding may only change deliberately, together with this golden (and
// a version bump in the magic).
func TestGoldenRRArbiter(t *testing.T) {
	d, err := designs.ByName("rr_arbiter")
	if err != nil {
		t.Fatal(err)
	}
	m, err := moore.Compile(d.Name, d.Source)
	if err != nil {
		t.Fatalf("moore.Compile: %v", err)
	}
	if err := pass.LoweringPipeline().RunFixpoint(m); err != nil {
		t.Fatalf("lower: %v", err)
	}
	data, err := bitcode.Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	golden := filepath.Join("testdata", "rr_arbiter.bc")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(data))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(data, want) {
		i := 0
		for i < len(data) && i < len(want) && data[i] == want[i] {
			i++
		}
		t.Fatalf("bitcode encoding drifted from golden: %d vs %d bytes, first difference at offset %d\n"+
			"this breaks design-cache key stability; if intentional, regenerate with -update",
			len(data), len(want), i)
	}

	// The golden must round-trip and re-encode to itself: decode-encode
	// stability is what lets the disk cache layer verify artifacts by
	// re-hashing them.
	m2, err := bitcode.Decode(want)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	data2, err := bitcode.Encode(m2)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data2, want) {
		t.Fatal("golden bitcode does not re-encode to itself")
	}
}

// TestEncodeDeterministic guards the weaker, version-independent half
// of the cache-key contract: two independent frontend runs over the
// same source must encode to identical bytes within one binary.
func TestEncodeDeterministic(t *testing.T) {
	d, err := designs.ByName("rr_arbiter")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]byte
	for i := range runs {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			t.Fatal(err)
		}
		if err := pass.LoweringPipeline().RunFixpoint(m); err != nil {
			t.Fatal(err)
		}
		if runs[i], err = bitcode.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("two frontend runs over one source encoded differently")
	}
}
