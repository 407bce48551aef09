package sim

import (
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
)

// oneBodySrc runs one instruction sequence in all three unit kinds. The
// loop-free part (arithmetic, var/ld/st, a call, an intrinsic) appears as
// @asfunc, inside @asproc and as the body of @asent; the phi loop needs
// control flow and var/ld/st are no entity instructions, so the entity
// leaves both out. Each copy drives what it
// computed from the shared input %in = 7: (7+5)*3 stored and reloaded,
// doubled by @twice = 72, and the loop's 0+1+...+7 = 28.
const oneBodySrc = `
entity @top () -> () {
  %z = const i32 0
  %seven = const i32 7
  %in = sig i32 %seven
  %ffree = sig i32 %z
  %floop = sig i32 %z
  %pfree = sig i32 %z
  %ploop = sig i32 %z
  %efree = sig i32 %z
  inst @viafunc (i32$ %in) -> (i32$ %ffree, i32$ %floop)
  inst @asproc (i32$ %in) -> (i32$ %pfree, i32$ %ploop)
  inst @asent (i32$ %in) -> (i32$ %efree)
}
func @twice (i32 %x) i32 {
 entry:
  %r = add i32 %x, %x
  ret i32 %r
}
func @asfunc (i32 %x) i32 {
 entry:
  %five = const i32 5
  %three = const i32 3
  %s = add i32 %x, %five
  %m = mul i32 %s, %three
  %v = var i32 %s
  st i32* %v, %m
  %l = ld i32* %v
  %c = call i32 @twice (i32 %l)
  %now = call time @llhd.time ()
  %ok = eq i32 %c, %c
  call void @llhd.assert (i1 %ok)
  ret i32 %c
}
func @loopfunc (i32 %n) i32 {
 entry:
  %zero = const i32 0
  %one = const i32 1
  br %head
 head:
  %i = phi i32 [%zero, %entry], [%i1, %head]
  %acc = phi i32 [%zero, %entry], [%acc1, %head]
  %i1 = add i32 %i, %one
  %acc1 = add i32 %acc, %i1
  %more = ult i32 %i1, %n
  br %more, %done, %head
 done:
  ret i32 %acc1
}
proc @viafunc (i32$ %in) -> (i32$ %free, i32$ %loop) {
 entry:
  %d = const time 1ns
  %x = prb i32$ %in
  %f = call i32 @asfunc (i32 %x)
  %g = call i32 @loopfunc (i32 %x)
  drv i32$ %free, %f after %d
  drv i32$ %loop, %g after %d
  halt
}
proc @asproc (i32$ %in) -> (i32$ %free, i32$ %loop) {
 entry:
  %d = const time 1ns
  %x = prb i32$ %in
  %five = const i32 5
  %three = const i32 3
  %s = add i32 %x, %five
  %m = mul i32 %s, %three
  %v = var i32 %s
  st i32* %v, %m
  %l = ld i32* %v
  %c = call i32 @twice (i32 %l)
  %now = call time @llhd.time ()
  %ok = eq i32 %c, %c
  call void @llhd.assert (i1 %ok)
  drv i32$ %free, %c after %d
  %zero = const i32 0
  %one = const i32 1
  br %head
 head:
  %i = phi i32 [%zero, %entry], [%i1, %head]
  %acc = phi i32 [%zero, %entry], [%acc1, %head]
  %i1 = add i32 %i, %one
  %acc1 = add i32 %acc, %i1
  %more = ult i32 %i1, %x
  br %more, %done, %head
 done:
  drv i32$ %loop, %acc1 after %d
  halt
}
entity @asent (i32$ %in) -> (i32$ %free) {
  %d = const time 1ns
  %x = prb i32$ %in
  %five = const i32 5
  %three = const i32 3
  %s = add i32 %x, %five
  %m = mul i32 %s, %three
  %c = call i32 @twice (i32 %m)
  %now = call time @llhd.time ()
  %ok = eq i32 %c, %c
  call void @llhd.assert (i1 %ok)
  drv i32$ %free, %c after %d
}
`

// TestOneBodyThreeKinds pins the point of the single executor: the same
// instructions compute the same values whether they run as a function, a
// process or an entity.
func TestOneBodyThreeKinds(t *testing.T) {
	s, err := New(assembly.MustParse("m", oneBodySrc), "top")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures", s.Engine.Failures)
	}
	for sig, want := range map[string]uint64{
		"top.ffree": 72, "top.pfree": 72, "top.efree": 72,
		"top.floop": 28, "top.ploop": 28,
	} {
		if got := s.Engine.SignalByName(sig).Value().Bits; got != want {
			t.Errorf("%s = %d, want %d", sig, got, want)
		}
	}
}

// TestStaleOperandUnavailable pins the interpreter's check ahead of
// engine.EvalPure: an operand whose slot was not computed in this
// activation (its definition was jumped over) is reported by name, and
// the evaluator never reads the stale slot.
func TestStaleOperandUnavailable(t *testing.T) {
	const src = `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  br %use
 def:
  %x = const i8 1
  br %use
 use:
  %y = add i8 %x, %x
  halt
}
`
	s, err := New(assembly.MustParse("m", src), "top")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = s.Run(ir.Time{})
	if err == nil || !strings.Contains(err.Error(), "engine: operand %x unavailable") {
		t.Errorf("Run = %v, want the unavailable operand %%x", err)
	}
}
