package assembly_test

import (
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/pass"
)

// table2Texts compiles the Table 2 benchmark designs (unlowered and
// lowered) to assembly text — the seed corpus for the round-trip fuzzer
// and the fixed inputs of the stability test.
func table2Texts(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, d := range designs.All() {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			t.Fatalf("%s: compile: %v", d.Name, err)
		}
		out[d.Name] = assembly.String(m)
		if pass.LoweringPipeline().RunFixpoint(m) == nil && ir.Verify(m, ir.Behavioural) == nil {
			out[d.Name+"/lowered"] = assembly.String(m)
		}
	}
	return out
}

// checkRoundTrip asserts the printer/parser fixpoint property: parsing
// printed text and printing again must reproduce the bytes. (One parse of
// arbitrary input may canonicalize; the printed form must be stable.)
func checkRoundTrip(t *testing.T, src string) {
	m1, err := assembly.Parse("rt", src)
	if err != nil {
		return // invalid input is fine; only valid text must round-trip
	}
	p1 := assembly.String(m1)
	m2, err := assembly.Parse("rt2", p1)
	if err != nil {
		t.Fatalf("printed text does not re-parse: %v\n%s", err, p1)
	}
	p2 := assembly.String(m2)
	if p1 != p2 {
		t.Fatalf("round-trip not a fixpoint:\n--- first print\n%s\n--- second print\n%s", p1, p2)
	}
}

// TestAssemblyRoundTripTable2 pins the fixpoint property on all ten
// Table 2 designs, unlowered and lowered.
func TestAssemblyRoundTripTable2(t *testing.T) {
	for name, text := range table2Texts(t) {
		name, text := name, text
		t.Run(name, func(t *testing.T) { checkRoundTrip(t, text) })
	}
}

// TestAssemblyRoundTripRegressions pins parser bugs found by
// FuzzAssemblyRoundTrip: forward branches used to reorder blocks into
// reference order (printing was not a fixpoint), a block labeled "x"
// collided with the array-type separator token, and a name given to an
// instruction without a result (drv) was accepted, printed as "%?ptr" at
// its use and failed the second parse; it is now an error on its line.
func TestAssemblyRoundTripRegressions(t *testing.T) {
	cases := map[string]string{
		"forward-branch-block-order": `
proc @p () -> (i1$ %q) {
 entry:
  %c = const i1 1
  br %c, %late, %early
 early:
  halt
 late:
  halt
}
`,
		"block-named-x": `
proc @p () -> (i1$ %q) {
 entry:
  br %x
 x:
  halt
}
`,
		"logic-const": `
proc @p () -> (l4$ %q) {
 entry:
  %v = const l4 "1Z0X"
  %t = const time 1ns
  drv l4$ %q, %v after %t
  halt
}
`,
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			checkRoundTrip(t, src)
			// These are valid inputs: the first parse must succeed.
			if _, err := assembly.Parse(name, src); err != nil {
				t.Fatalf("parse: %v", err)
			}
		})
	}
	const voidName = `
proc @c (void %a) -> () {
 entry:
  halt
}

entity @top () -> () {
  %x = const i32 0
  %s = sig i32 %x
  %t = const time 1ns
  %ptr = drv i32$ %s, %x after %t
  inst @c (void %ptr) -> ()
}
`
	t.Run("void-result-name", func(t *testing.T) {
		checkRoundTrip(t, voidName)
		const want = "line 11: drv has no result to name %ptr"
		if _, err := assembly.Parse("void", voidName); err == nil || err.Error() != want {
			t.Fatalf("parse: %v, want %s", err, want)
		}
	})
}

// FuzzAssemblyRoundTrip feeds mutated assembly text through the
// parse-print-parse-print pipeline, seeded from the Table 2 designs:
// whatever parses must print to a stable fixpoint.
func FuzzAssemblyRoundTrip(f *testing.F) {
	for _, text := range table2Texts(f) {
		f.Add(text)
	}
	f.Add("entity @top () -> () {\n  %0 = const l4 \"01XZ\"\n  %s = sig l4 %0\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		checkRoundTrip(t, src)
	})
}
