package engine

import (
	"fmt"
	"testing"

	"llhd/internal/ir"
	"llhd/internal/val"
)

// recordObserver records every callback as "name=value" plus the times.
type recordObserver struct {
	got   []string
	times []ir.Time
}

func (o *recordObserver) OnChange(t ir.Time, sig *Signal, v val.Value) {
	o.got = append(o.got, fmt.Sprintf("%s=%s", sig.Name, v))
	o.times = append(o.times, t)
}

// TestObserverSignalIDOrder pins the observer delivery contract: within one
// time instant, OnChange callbacks arrive in ascending signal-ID order
// regardless of drive order — the same determinism contract the wake order
// obeys (TestDeterministicWakeOrder).
func TestObserverSignalIDOrder(t *testing.T) {
	e := New()
	sigs := make([]*Signal, 3)
	for i := range sigs {
		sigs[i] = e.NewSignal(fmt.Sprintf("s%d", i), ir.IntType(8), val.Int(8, 0))
	}
	obs := &recordObserver{}
	e.Observe(obs)
	e.Init()

	// Drive in descending signal order within a single instant.
	e.Drive(SigRef{Sig: sigs[2]}, val.Int(8, 3), ir.Nanoseconds(1))
	e.Drive(SigRef{Sig: sigs[1]}, val.Int(8, 2), ir.Nanoseconds(1))
	e.Drive(SigRef{Sig: sigs[0]}, val.Int(8, 1), ir.Nanoseconds(1))
	e.Run(ir.Time{})

	want := []string{"s0=1", "s1=2", "s2=3"}
	if len(obs.got) != len(want) {
		t.Fatalf("callbacks %v, want %v", obs.got, want)
	}
	for i := range want {
		if obs.got[i] != want[i] {
			t.Fatalf("callbacks %v, want %v", obs.got, want)
		}
	}
	for _, tm := range obs.times {
		if tm.Fs != 1*ir.Nanosecond {
			t.Errorf("callback at %v, want 1ns", tm)
		}
	}
}

// TestObserverCoalescesInstant checks that several drives to the same
// signal within one instant produce exactly one callback carrying the
// settled value.
func TestObserverCoalescesInstant(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
	obs := &recordObserver{}
	e.Observe(obs)
	e.Init()
	e.Drive(SigRef{Sig: s}, val.Int(8, 1), ir.Nanoseconds(1))
	e.Drive(SigRef{Sig: s}, val.Int(8, 2), ir.Nanoseconds(1))
	e.Run(ir.Time{})
	if len(obs.got) != 1 || obs.got[0] != "s=2" {
		t.Errorf("callbacks %v, want [s=2] (one settled value per instant)", obs.got)
	}
}

// TestObserverSubscriptionMask checks that an observer attached to specific
// signals only receives those, while an all-signals observer sees
// everything — including signals registered after it attached.
func TestObserverSubscriptionMask(t *testing.T) {
	e := New()
	a := e.NewSignal("a", ir.IntType(8), val.Int(8, 0))
	b := e.NewSignal("b", ir.IntType(8), val.Int(8, 0))
	all := &recordObserver{}
	only := &recordObserver{}
	e.Observe(all)
	e.Observe(only, b)
	late := e.NewSignal("late", ir.IntType(8), val.Int(8, 0))
	e.Init()

	e.Drive(SigRef{Sig: a}, val.Int(8, 1), ir.Nanoseconds(1))
	e.Drive(SigRef{Sig: b}, val.Int(8, 2), ir.Nanoseconds(1))
	e.Drive(SigRef{Sig: late}, val.Int(8, 3), ir.Nanoseconds(1))
	e.Run(ir.Time{})

	wantAll := []string{"a=1", "b=2", "late=3"}
	if fmt.Sprint(all.got) != fmt.Sprint(wantAll) {
		t.Errorf("all-signals observer got %v, want %v", all.got, wantAll)
	}
	wantOnly := []string{"b=2"}
	if fmt.Sprint(only.got) != fmt.Sprint(wantOnly) {
		t.Errorf("masked observer got %v, want %v", only.got, wantOnly)
	}
}

// TestObserverMaskGrowsWithSignals pins a union-mask regression: a masked
// subscription to a signal registered after an earlier masked Observe
// sized the mask must still be delivered.
func TestObserverMaskGrowsWithSignals(t *testing.T) {
	e := New()
	a := e.NewSignal("a", ir.IntType(8), val.Int(8, 0))
	first := &recordObserver{}
	e.Observe(first, a) // sizes the union mask to one signal
	late := e.NewSignal("late", ir.IntType(8), val.Int(8, 0))
	second := &recordObserver{}
	e.Observe(second, late) // must grow the union mask
	e.Init()
	e.Drive(SigRef{Sig: late}, val.Int(8, 7), ir.Nanoseconds(1))
	e.Run(ir.Time{})
	if len(second.got) != 1 || second.got[0] != "late=7" {
		t.Errorf("late-signal observer got %v, want [late=7]", second.got)
	}
	if len(first.got) != 0 {
		t.Errorf("first observer got %v, want nothing", first.got)
	}
}

// TestObserverSeesPreWakeState checks that callbacks run before the
// instant's processes wake: a process re-driving on wake must not affect
// the value the observer was handed.
func TestObserverSeesPreWakeState(t *testing.T) {
	e := newTogglerEngine()
	obs := &recordObserver{}
	e.Observe(obs)
	for i := 0; i < 4; i++ {
		e.Step()
	}
	want := []string{"clk=1", "clk=0", "clk=1", "clk=0"}
	if fmt.Sprint(obs.got) != fmt.Sprint(want) {
		t.Errorf("callbacks %v, want %v", obs.got, want)
	}
}

// countObserver is a pure streaming sink: no retention, no buffering.
type countObserver struct{ n int }

func (o *countObserver) OnChange(ir.Time, *Signal, val.Value) { o.n++ }

// TestObservedWakeHotPathAllocFree pins the satellite trace-hot-path fix:
// an OBSERVED run of scalar-valued signals must not allocate per change.
// The stream dispatch passes scalar ints and times through without any
// clone (mirroring Drive's cheap-copy rule), and the buffering
// TraceObserver stores them as-is, so with a warm buffer both the
// streaming and the buffering paths stay at <= 1 alloc/op (zero in
// practice; one is headroom for runtime noise).
func TestObservedWakeHotPathAllocFree(t *testing.T) {
	t.Run("streaming", func(t *testing.T) {
		e := newTogglerEngine()
		cnt := &countObserver{}
		e.Observe(cnt)
		for i := 0; i < 256; i++ {
			e.Step()
		}
		avg := testing.AllocsPerRun(1000, func() {
			e.Step()
		})
		if avg > 1 {
			t.Errorf("streaming-observed hot path allocates %.2f times per step, want <= 1", avg)
		}
		if cnt.n == 0 {
			t.Fatal("observer never fired")
		}
	})
	t.Run("buffering", func(t *testing.T) {
		e := newTogglerEngine()
		obs := &TraceObserver{}
		e.Observe(obs)
		for i := 0; i < 256; i++ { // warm the buffer capacity
			e.Step()
		}
		warm := obs.Entries[:0]
		avg := testing.AllocsPerRun(250, func() {
			obs.Entries = warm // reuse the warmed capacity
			e.Step()
		})
		if avg > 1 {
			t.Errorf("buffer-observed hot path allocates %.2f times per step, want <= 1 (scalar values must not deep-clone)", avg)
		}
	})
}

// TestObserverRetainsAggregates pins the retention rule: payloads are
// immutable, so an observer that keeps the array values it was handed
// (TraceObserver does, without cloning) still holds each instant's value
// after the signal, the driver's source array and a sibling signal driven
// from the same array have all moved on.
func TestObserverRetainsAggregates(t *testing.T) {
	e := New()
	zero := val.Default(ir.ArrayType(4, ir.IntType(8)))
	a := e.NewSignal("a", ir.ArrayType(4, ir.IntType(8)), zero)
	b := e.NewSignal("b", a.Type, zero)
	obs := &TraceObserver{}
	e.Observe(obs)
	e.Init()

	cur := zero
	for i := 0; i < 3; i++ {
		next, err := val.InsFDyn(cur, val.Int(8, uint64(i+1)), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		// One array value onto two signals; then a projected drive moves
		// one element of b only.
		e.Drive(SigRef{Sig: a}, cur, ir.Nanoseconds(int64(2*i+1)))
		e.Drive(SigRef{Sig: b}, cur, ir.Nanoseconds(int64(2*i+1)))
		e.Drive(SigRef{Sig: b, Path: []Proj{{Kind: ProjField, A: 3}}}, val.Int(8, 0xF0), ir.Nanoseconds(int64(2*i+2)))
	}
	e.Run(ir.Time{})

	want := []string{
		"a=[1, 0, 0, 0]", "b=[1, 0, 0, 0]", "b=[1, 0, 0, 240]",
		"a=[1, 2, 0, 0]", "b=[1, 2, 0, 0]", "b=[1, 2, 0, 240]",
		"a=[1, 2, 3, 0]", "b=[1, 2, 3, 0]", "b=[1, 2, 3, 240]",
	}
	if len(obs.Entries) != len(want) {
		t.Fatalf("%d entries, want %d", len(obs.Entries), len(want))
	}
	for i, en := range obs.Entries {
		if got := fmt.Sprintf("%s=%s", en.Sig.Name, en.Value); got != want[i] {
			t.Errorf("entry %d = %s, want %s", i, got, want[i])
		}
	}
	if got := a.Value().String(); got != "[1, 2, 3, 0]" {
		t.Errorf("a = %s: the projected drive into b leaked", got)
	}
}
