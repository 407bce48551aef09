package bytecode

import (
	"errors"
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/engine"
	"llhd/internal/ir"
)

// lowerProc lowers the signal-free process @p of src and returns
// everything one activation needs. The tests drive Runtime.Exec directly:
// a process that touches no signal needs no elaborated design around it.
func lowerProc(t *testing.T, src string) (*engine.Engine, *Runtime, *Unit, *Frame) {
	t.Helper()
	m := assembly.MustParse("m", src)
	prog := NewProgram(m)
	inst := engine.NewInstance(m.Unit("p"), "p")
	u, err := prog.LowerUnit(inst)
	if err != nil {
		t.Fatalf("LowerUnit: %v", err)
	}
	fr, err := u.NewFrame(inst)
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	return engine.New(), NewRuntime(prog), u, fr
}

// TestMaxJumpsGuard pins the runaway-loop guard: a control-flow cycle
// that never suspends must stop after maxJumps transfers with an error
// classified as a step-limit quota, whether the cycle is in a process or
// in a function it calls, one block or two (each loop spins ~1 s, hence the
// Short guard).
func TestMaxJumpsGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("spins maxJumps control transfers per case")
	}
	cases := []struct {
		name, src, want string
	}{
		{"process", `
proc @p () -> () {
 entry:
  br %entry
}
`, "step budget exhausted"},
		// Lowered, %ping falls through and %pong jumps to itself: the
		// cycle keeps its one counted transfer (rule 3 of plan.go).
		{"two-block cycle", `
proc @p () -> () {
 entry:
  br %ping
 ping:
  br %pong
 pong:
  br %ping
}
`, "step budget exhausted"},
		{"function", `
proc @p () -> () {
 entry:
  call void @spin ()
  halt
}
func @spin () void {
 entry:
  br %entry
}
`, "@spin: step budget exhausted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, rt, u, fr := lowerProc(t, c.src)
			_, err := rt.Exec(e, u, fr, 0)
			if !errors.Is(err, engine.ErrStepLimit) {
				t.Fatalf("err = %v, want one matching engine.ErrStepLimit", err)
			}
			if !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("err = %q, want prefix %q", err, c.want)
			}
		})
	}
}

// TestCallDepthBound pins the recursion guard: a function that calls
// itself without end stops at engine.MaxCallDepth live calls with a
// step-limit quota error naming it — before the bound existed the Go stack
// overflowed, which no recover contains — and unwinds cleanly: the depth
// counter is back at zero and every call frame is back in the pool.
func TestCallDepthBound(t *testing.T) {
	e, rt, u, fr := lowerProc(t, `
proc @p () -> () {
 entry:
  %x = const i32 1
  %r = call i32 @f (i32 %x)
  halt
}
func @f (i32 %x) i32 {
 entry:
  %r = call i32 @f (i32 %x)
  ret i32 %r
}
`)
	_, err := rt.Exec(e, u, fr, 0)
	if !errors.Is(err, engine.ErrStepLimit) {
		t.Fatalf("err = %v, want one matching engine.ErrStepLimit", err)
	}
	if want := "@f: call depth"; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %q, want prefix %q", err, want)
	}
	if rt.depth != 0 {
		t.Errorf("depth = %d after unwinding, want 0", rt.depth)
	}
	if got := len(rt.pools[rt.prog.funcs["f"].FuncIdx]); got != engine.MaxCallDepth {
		t.Errorf("pool holds %d frames, want %d (one per live call, all returned)", got, engine.MaxCallDepth)
	}
}

// TestCallFramePoolingUnderRecursion pins the per-session call-frame
// pool: a recursive call chain allocates one frame per live depth, every
// frame returns to the pool, and a second identical call reuses them —
// the pool stays at its high-water mark and nothing is allocated.
func TestCallFramePoolingUnderRecursion(t *testing.T) {
	const src = `
proc @p () -> () {
 entry:
  %n = const i32 10
  %r = call i32 @fib (i32 %n)
  halt
}
func @fib (i32 %n) i32 {
 entry:
  %one = const i32 1
  %two = const i32 2
  %small = ult i32 %n, %two
  br %small, %rec, %base
 base:
  ret i32 %n
 rec:
  %n1 = sub i32 %n, %one
  %n2 = sub i32 %n, %two
  %a = call i32 @fib (i32 %n1)
  %b = call i32 @fib (i32 %n2)
  %s = add i32 %a, %b
  ret i32 %s
}
`
	e, rt, u, fr := lowerProc(t, src)
	call := func() {
		fr.PC = 0
		if st, err := rt.Exec(e, u, fr, 0); err != nil || st != StatusHalt {
			t.Fatalf("Exec: status %v, err %v", st, err)
		}
	}
	call()
	var result *ir.Inst
	for _, in := range u.unit.Blocks[0].Insts {
		if in.Op == ir.OpCall {
			result = in
		}
	}
	if got := fr.Regs[ir.ValueID(result)]; got.Bits != 55 {
		t.Fatalf("fib(10) = %s, want 55", got)
	}
	fib := rt.prog.funcs["fib"]
	depth := len(rt.pools[fib.FuncIdx])
	if depth != 10 {
		t.Fatalf("pool holds %d frames after fib(10), want 10 (one per live depth)", depth)
	}
	if allocs := testing.AllocsPerRun(10, call); allocs != 0 {
		t.Errorf("a repeated recursive call allocates %.1f times, want 0", allocs)
	}
	if got := len(rt.pools[fib.FuncIdx]); got != depth {
		t.Errorf("pool depth moved from its high-water mark %d to %d", depth, got)
	}
}
