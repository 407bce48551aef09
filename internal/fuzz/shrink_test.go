package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/ir"
)

// badDynExtFLower is llhd.Lower plus a deliberately re-introduced PR-4
// miscompile: dynamic-index extf instructions are "simplified" to their
// static form through the meaningless Imm0 — the exact inst-simplify bug
// the fixed Table 2 matrix caught on the riscv design (it fetched
// imem[0] forever).
func badDynExtFLower(m *llhd.Module) error {
	if err := llhd.Lower(m); err != nil {
		return err
	}
	for _, u := range m.Units {
		u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
			if in.Op == ir.OpExtF && len(in.Args) == 2 && in.Args[0].Type().IsArray() {
				in.Args = in.Args[:1]
				in.Imm0 = 0
			}
		})
	}
	return nil
}

// TestShrinkerReducesReintroducedMiscompile pins the acceptance bar: with
// the PR-4 dynamic-extf miscompile re-introduced into the lowering
// pipeline, the fuzzer finds a failing design and the shrinker reduces it
// to a verify-clean repro of at most 25 instructions that still fails.
func TestShrinkerReducesReintroducedMiscompile(t *testing.T) {
	opt := Options{Lower: badDynExtFLower}
	var fail *Failure
	var seed int64
	for s := int64(1); s <= 120; s++ {
		if f := CheckGenerated(s, 60, opt); f != nil {
			fail, seed = f, s
			break
		}
	}
	if fail == nil {
		t.Fatal("no generated design tripped the re-introduced miscompile in 120 seeds")
	}
	before := NumInstsOf("seed", fail.Text)

	reduced, rf := Shrink(fmt.Sprintf("seed%d", seed), fail.Text, opt)
	if rf == nil {
		t.Fatal("shrunk repro no longer fails the oracle")
	}
	if rf.Class != fail.Class {
		t.Fatalf("shrinking changed the failure class: %s (%q) -> %s (%q)", fail.Class, fail.Reason, rf.Class, rf.Reason)
	}
	m, err := llhd.ParseAssembly("repro", reduced)
	if err != nil {
		t.Fatalf("repro does not parse: %v", err)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("repro does not verify: %v", err)
	}
	after := NumInstsOf("repro", reduced)
	if after > 25 {
		t.Errorf("shrunk repro has %d instructions, want <= 25 (from %d):\n%s", after, before, reduced)
	}
	if after >= before {
		t.Errorf("shrinker made no progress: %d -> %d instructions", before, after)
	}
	t.Logf("seed %d: shrunk %d -> %d instructions", seed, before, after)
}

// TestFailureClassIsTheClauseNotTheText pins that a finding's class names
// the oracle clause that failed, whatever words the rendered reason
// happens to contain: the shrinker's same-class rule compares it.
func TestFailureClassIsTheClauseNotTheText(t *testing.T) {
	opt := Options{Lower: func(*llhd.Module) error {
		return fmt.Errorf("pass hit a panic: traces diverge, nothing settled")
	}}
	f := CheckGenerated(1, 20, opt)
	if f == nil || f.Class != "lower-error" {
		t.Fatalf("a failing lowering classed %+v, want class lower-error", f)
	}
}

// TestShrinkDeterministic: shrinking the same failure twice yields
// byte-identical repros.
func TestShrinkDeterministic(t *testing.T) {
	opt := Options{Lower: badDynExtFLower}
	var fail *Failure
	for s := int64(1); s <= 120; s++ {
		if f := CheckGenerated(s, 60, opt); f != nil {
			fail = f
			break
		}
	}
	if fail == nil {
		t.Skip("no failing seed")
	}
	a, _ := Shrink("x", fail.Text, opt)
	b, _ := Shrink("x", fail.Text, opt)
	if a != b {
		t.Error("Shrink is not deterministic")
	}
}

// TestReproHeader: corpus headers are comments the parser skips.
func TestReproHeader(t *testing.T) {
	h := ReproHeader("line one\nline two")
	for _, l := range strings.Split(strings.TrimSpace(h), "\n") {
		if !strings.HasPrefix(l, ";") {
			t.Errorf("header line %q is not a comment", l)
		}
	}
}
