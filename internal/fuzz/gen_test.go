package fuzz

import (
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
)

// TestGenerateDeterministic pins determinism-by-seed: equal seeds print
// byte-identical assembly, different seeds differ.
func TestGenerateDeterministic(t *testing.T) {
	a := assembly.String(Generate(Config{Seed: 7}))
	b := assembly.String(Generate(Config{Seed: 7}))
	if a != b {
		t.Fatal("Generate(seed=7) is not deterministic")
	}
	c := assembly.String(Generate(Config{Seed: 8}))
	if a == c {
		t.Fatal("seeds 7 and 8 generated identical designs")
	}
}

// TestGeneratedDesignsVerify: every generated design is well-typed
// Behavioural LLHD and round-trips through the assembly printer/parser.
func TestGeneratedDesignsVerify(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		m := Generate(Config{Seed: seed})
		if err := ir.Verify(m, ir.Behavioural); err != nil {
			t.Fatalf("seed %d: Verify: %v\n%s", seed, err, assembly.String(m))
		}
		text := assembly.String(m)
		m2, err := assembly.Parse("rt", text)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, text)
		}
		text2 := assembly.String(m2)
		if text2 != text {
			t.Fatalf("seed %d: assembly round-trip unstable:\n--- first\n%s\n--- second\n%s", seed, text, text2)
		}
	}
}

// TestGeneratedSurfaceCoverage: across a modest seed range the generator
// collectively exercises the instruction surface the tentpole promises.
func TestGeneratedSurfaceCoverage(t *testing.T) {
	want := map[string]bool{
		"phi": false, "wait": false, "call": false, "var": false,
		"ld": false, "st": false, "drv": false, "prb": false,
		"reg": false, "del": false, "con": false, "mux": false,
		"insf": false, "extf": false, "exts": false, "inss": false,
	}
	multiInstance := false
	logicXZ := false
	// The frontend's memory idiom and partial signal access.
	memWrite, memRead, sigProj := false, false, false
	isMemLd := func(v ir.Value) bool {
		ld, ok := v.(*ir.Inst)
		return ok && ld.Op == ir.OpLd && ld.Ty.IsArray()
	}
	for seed := int64(1); seed <= 80; seed++ {
		m := Generate(Config{Seed: seed})
		instCount := map[string]int{}
		for _, u := range m.Units {
			u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
				for k := range want {
					if in.Op.String() == k {
						want[k] = true
					}
				}
				if in.Op == ir.OpInst {
					instCount[in.Callee]++
				}
				switch {
				case in.Op == ir.OpSt && len(in.Args) == 2:
					if v, ok := in.Args[1].(*ir.Inst); ok && v.Op == ir.OpInsF && len(v.Args) == 3 && isMemLd(v.Args[0]) {
						memWrite = true
					}
				case in.Op == ir.OpExtF && len(in.Args) == 2 && isMemLd(in.Args[0]):
					memRead = true
				case in.Op == ir.OpExtF && in.Ty.IsSignal():
					sigProj = true
				}
				if in.Op == ir.OpConstLogic {
					s := in.LVal.String()
					if strings.ContainsAny(s, "XZxz") {
						logicXZ = true
					}
				}
			})
		}
		for _, n := range instCount {
			if n >= 2 {
				multiInstance = true
			}
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("no generated design used %q across 80 seeds", k)
		}
	}
	if !multiInstance {
		t.Error("no design instantiated one unit twice")
	}
	if !logicXZ {
		t.Error("no design carried a logic constant with x/z bits")
	}
	if !memWrite || !memRead {
		t.Errorf("array-var memory idiom missing: ld->insf->st %v, ld->extf %v", memWrite, memRead)
	}
	if !sigProj {
		t.Error("no design drove an aggregate signal through an extf projection")
	}
}

// TestDifferentialSmoke runs the full oracle over a batch of seeds.
func TestDifferentialSmoke(t *testing.T) {
	n := int64(25)
	if testing.Short() {
		n = 8
	}
	for seed := int64(1); seed <= n; seed++ {
		if f := CheckGenerated(seed, 0, Options{}); f != nil {
			t.Fatalf("differential failure:\n%s\n--- design\n%s", f.Reason, f.Text)
		}
	}
}
