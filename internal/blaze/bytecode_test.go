package blaze_test

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/blaze"
	"llhd/internal/designs"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// bcFreeRunnerSrc is the never-halting clock generator plus edge counter
// also pinned by the interpreter's alloc test: every step exercises
// probes, drives, var/ld/st memory, branches, jumps, and wait re-arming,
// forever.
const bcFreeRunnerSrc = `
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %count = sig i32 %z32
  inst @clkgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> (i32$ %count)
}
proc @clkgen () -> (i1$ %clk) {
 entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 5ns
  %zero = const i32 0
  %one = const i32 1
  %i = var i32 %zero
  br %loop
 loop:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
 lo:
  drv i1$ %clk, %b0 after %half
  wait %next for %half
 next:
  %ip = ld i32* %i
  %in = add i32 %ip, %one
  st i32* %i, %in
  br %loop
}
proc @counter (i1$ %clk) -> (i32$ %count) {
 init:
  %one = const i32 1
  %dz = const time 0s
  %clk0 = prb i1$ %clk
  wait %check for %clk
 check:
  %clk1 = prb i1$ %clk
  %chg = neq i1 %clk0, %clk1
  %pos = and i1 %chg, %clk1
  br %pos, %init, %bump
 bump:
  %c = prb i32$ %count
  %cn = add i32 %c, %one
  drv i32$ %count, %cn after %dz
  br %init
}
`

// TestBytecodeWakeHotPathAllocFree is the bytecode-tier sibling of
// TestInterpWakeHotPathAllocFree and TestDriveWakeHotPathAllocFree: once
// frames and wait sets are warm, a full engine step through the threaded
// dispatch loop (probes, in-place integer ops, drives, branch/jump,
// wait re-arming, phi-free and phi-carrying edges) must not allocate.
// Register writes going through storeInt/storeBool in place — never
// through a fresh val.Value — is what this test enforces.
func TestBytecodeWakeHotPathAllocFree(t *testing.T) {
	m := assembly.MustParse("freerun", bcFreeRunnerSrc)
	s, err := blaze.New(m, "top")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e := s.Engine
	e.Init()
	for i := 0; i < 256; i++ { // warm frames and wait sets
		if !e.Step() {
			t.Fatal("free-running design drained unexpectedly")
		}
	}
	if err := e.Err(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(500, func() {
		e.Step()
	})
	if e.PendingEvents() == 0 {
		t.Fatal("queue drained during measurement; hot path not exercised")
	}
	t.Logf("bytecode wake path: %.3f allocs/step", avg)
	// The path measures 0.000 today; the small nonzero gate only tolerates
	// rare kernel-map rehash noise, never a systematic per-step allocation.
	if avg > 0.25 {
		t.Errorf("bytecode wake hot path allocates %.2f times per step, want 0", avg)
	}
}

// aggWriterSrc is the frontend's memory idiom reduced to its cost: a
// [32 x i32] var (the shape of the RV32I register file) that takes one
// dynamic-index ld -> insf -> st per wake, forever.
const aggWriterSrc = `
entity @top () -> () {
  inst @writer () -> ()
}
proc @writer () -> () {
 entry:
  %z = const i32 0
  %one = const i32 1
  %mask = const i32 31
  %tick = const time 1ns
  %init = [i32 ELEMS]
  %rf = var [32 x i32] %init
  %n = var i32 %z
  br %loop
 loop:
  %k = ld i32* %n
  %idx = and i32 %k, %mask
  %cur = ld [32 x i32]* %rf
  %upd = insf [32 x i32] %cur, %k, %idx
  st [32 x i32]* %rf, %upd
  %kn = add i32 %k, %one
  st i32* %n, %kn
  wait %loop for %tick
}
`

// TestAggregateWriteBudget pins what an array write costs on every
// engine: one allocation, the new packed payload (32 x 8 B plus
// size-class slack), and nothing else — no per-element clones, no
// pointerful copy for the collector to scan, no defensive copy on ld, st
// or var.
func TestAggregateWriteBudget(t *testing.T) {
	src := strings.Replace(aggWriterSrc, "ELEMS", strings.TrimSuffix(strings.Repeat("%z, ", 32), ", "), 1)
	engines := []struct {
		name string
		new  func(m *ir.Module) (*engine.Engine, error)
	}{
		{"bytecode", func(m *ir.Module) (*engine.Engine, error) {
			s, err := blaze.New(m, "top")
			if err != nil {
				return nil, err
			}
			return s.Engine, nil
		}},
		{"interp", func(m *ir.Module) (*engine.Engine, error) {
			s, err := sim.New(m, "top")
			if err != nil {
				return nil, err
			}
			return s.Engine, nil
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			e, err := eng.new(assembly.MustParse("aggwriter", src))
			if err != nil {
				t.Fatal(err)
			}
			e.Init()
			for i := 0; i < 256; i++ {
				if !e.Step() {
					t.Fatal("free-running design drained unexpectedly")
				}
			}
			if err := e.Err(); err != nil {
				t.Fatalf("warmup: %v", err)
			}
			const steps = 1000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(steps, func() { e.Step() })
			runtime.ReadMemStats(&after)
			// AllocsPerRun runs the function once more as its own warm-up.
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (steps + 1)
			if err := e.Err(); err != nil || e.PendingEvents() == 0 {
				t.Fatalf("run stopped during measurement: %v", err)
			}
			t.Logf("%s: %.2f allocs, %.0f B per wake", eng.name, allocs, bytes)
			if allocs > 1 || bytes > 320 {
				t.Errorf("array write costs %.2f allocs and %.0f B per wake, want <= 1 and <= 320", allocs, bytes)
			}
		})
	}
}

// TestBytecodeDisasmGolden pins the bytecode encoding of a Table 2 unit
// through the disassembler: any change to the lowering (opcode selection,
// operand packing, const placement, wait-list shapes) shows up as a
// golden diff. The opcode space and the disassembly format are
// append-only, so an innocent refactor must not rewrite this file.
// Regenerate deliberately with: go test ./internal/blaze -run Golden -update
func TestBytecodeDisasmGolden(t *testing.T) {
	d, err := designs.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	m, err := moore.Compile(d.Name, d.Source)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cd, err := blaze.Compile(m, d.Top)
	if err != nil {
		t.Fatalf("blaze.Compile: %v", err)
	}
	got, err := cd.DisasmUnit("gray_enc$W8_p0")
	if err != nil {
		t.Fatalf("DisasmUnit: %v", err)
	}
	golden := filepath.Join("testdata", "disasm_gray_enc.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("disassembly drifted from golden %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
