package engine

import (
	"testing"
	"unsafe"

	"llhd/internal/ir"
	"llhd/internal/val"
)

// TestRunStepAccounting pins the instant count returned by Run: every
// executed time instant counts exactly once, including the final one (the
// pre-rework kernel double-counted the step that drained the queue).
func TestRunStepAccounting(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
	ref := SigRef{Sig: s}
	w := &probeProc{name: "w"}
	w.onIni = func(e *Engine, p *probeProc) {
		e.Drive(ref, val.Int(8, 1), ir.Nanoseconds(1))
		e.Drive(ref, val.Int(8, 2), ir.Nanoseconds(2))
		e.Drive(ref, val.Int(8, 3), ir.Nanoseconds(3))
	}
	e.AddProcess(w, true)
	e.Init()
	steps := e.Run(ir.Time{})
	if steps != 3 {
		t.Errorf("Run returned %d steps, want 3 (one per instant, no double count)", steps)
	}
	if e.DeltaCount != steps {
		t.Errorf("DeltaCount %d disagrees with Run's %d", e.DeltaCount, steps)
	}
	if e.PendingEvents() != 0 {
		t.Errorf("%d events still pending after drain", e.PendingEvents())
	}
}

// TestStaleTimeoutGeneration checks generation invalidation directly: a
// timeout armed before a signal wake must be discarded after the process
// re-arms with a new subscription and a new timeout.
func TestStaleTimeoutGeneration(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(1), val.Int(1, 0))
	ref := SigRef{Sig: s}
	w := &probeProc{name: "w"}
	w.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{ref})
		e.ScheduleWake(p.ProcID(), ir.Nanoseconds(10)) // becomes stale
	}
	rearmed := false
	w.onWak = func(e *Engine, p *probeProc) {
		if !rearmed {
			rearmed = true
			e.Subscribe(p.ProcID(), []SigRef{ref})
			e.ScheduleWake(p.ProcID(), ir.Nanoseconds(2))
		}
	}
	drv := &probeProc{name: "drv"}
	drv.onIni = func(e *Engine, p *probeProc) {
		e.Drive(ref, val.Int(1, 1), ir.Nanoseconds(1))
	}
	e.AddProcess(w, true)
	e.AddProcess(drv, true)
	e.Init()
	e.Run(ir.Time{})
	// Expected wakes: signal at 1ns, fresh timeout at 3ns. The 10ns
	// timeout carries a stale generation and must never fire.
	if len(w.wakes) != 2 {
		t.Fatalf("wakes = %v, want [1ns 3ns]", w.wakes)
	}
	if w.wakes[0].Fs != 1*ir.Nanosecond || w.wakes[1].Fs != 3*ir.Nanosecond {
		t.Errorf("wakes = %v, want [1ns 3ns]", w.wakes)
	}
}

// TestOneShotUnsubscribeKeepsOthers checks that consuming one process's
// one-shot subscription leaves the other subscribers of the same signal
// armed, and clears the consumed process from all of its signals.
func TestOneShotUnsubscribeKeepsOthers(t *testing.T) {
	e := New()
	s1 := e.NewSignal("s1", ir.IntType(8), val.Int(8, 0))
	s2 := e.NewSignal("s2", ir.IntType(8), val.Int(8, 0))
	r1, r2 := SigRef{Sig: s1}, SigRef{Sig: s2}

	a := &probeProc{name: "a"}
	a.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{r1, r2})
	}
	a.onWak = func(e *Engine, p *probeProc) {
		// Re-arm on both signals every wake.
		e.Subscribe(p.ProcID(), []SigRef{r1, r2})
	}
	b := &probeProc{name: "b"}
	b.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{r1})
		// b does not re-arm: it must wake exactly once.
	}
	e.AddProcess(a, true)
	e.AddProcess(b, true)
	e.Init()

	e.Drive(r1, val.Int(8, 1), ir.Nanoseconds(1))
	e.Run(ir.Time{})
	if len(a.wakes) != 1 || len(b.wakes) != 1 {
		t.Fatalf("after first drive: a woke %d, b woke %d, want 1 and 1", len(a.wakes), len(b.wakes))
	}

	// Second change: only a is still subscribed.
	e.Drive(r1, val.Int(8, 2), ir.Nanoseconds(1))
	e.Run(ir.Time{})
	if len(a.wakes) != 2 {
		t.Errorf("a woke %d times, want 2 (unsubscribe of b must not disturb a)", len(a.wakes))
	}
	if len(b.wakes) != 1 {
		t.Errorf("b woke %d times, want 1 (one-shot consumed)", len(b.wakes))
	}

	// a's one-shot wake through s1 must also have cleared its s2
	// subscription each time (it re-arms in onWak, so a change on s2 now
	// wakes it exactly once more, not once per stale entry).
	e.Drive(r2, val.Int(8, 9), ir.Nanoseconds(1))
	e.Run(ir.Time{})
	if len(a.wakes) != 3 {
		t.Errorf("a woke %d times after s2 change, want 3", len(a.wakes))
	}
}

// TestDeterministicWakeOrder pins the wake order within one instant:
// sensitivity wakes are delivered in signal-ID order regardless of drive
// order, and each process wakes at most once per instant.
func TestDeterministicWakeOrder(t *testing.T) {
	e := New()
	sigs := make([]*Signal, 3)
	for i := range sigs {
		sigs[i] = e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
	}
	var order []string
	mk := func(name string, sub int) *probeProc {
		p := &probeProc{name: name}
		p.onIni = func(e *Engine, pp *probeProc) {
			e.Subscribe(pp.ProcID(), []SigRef{{Sig: sigs[sub]}})
		}
		p.onWak = func(e *Engine, pp *probeProc) {
			order = append(order, name)
		}
		return p
	}
	// Registration order deliberately differs from signal order.
	e.AddProcess(mk("watch-s2", 2), true)
	e.AddProcess(mk("watch-s0", 0), true)
	e.AddProcess(mk("watch-s1", 1), true)
	both := &probeProc{name: "watch-both"}
	both.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{{Sig: sigs[0]}, {Sig: sigs[2]}})
	}
	both.onWak = func(e *Engine, p *probeProc) {
		order = append(order, "watch-both")
	}
	e.AddProcess(both, true)
	e.Init()

	// Drive in descending signal order; wakes must still come in
	// ascending signal-ID order.
	e.Drive(SigRef{Sig: sigs[2]}, val.Int(8, 1), ir.Nanoseconds(1))
	e.Drive(SigRef{Sig: sigs[1]}, val.Int(8, 1), ir.Nanoseconds(1))
	e.Drive(SigRef{Sig: sigs[0]}, val.Int(8, 1), ir.Nanoseconds(1))
	e.Run(ir.Time{})

	want := []string{"watch-s0", "watch-both", "watch-s1", "watch-s2"}
	if len(order) != len(want) {
		t.Fatalf("wake order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

// TestUnregisteredProcessFailsLoudly pins the ProcHandle zero value: a
// process that skipped AddProcess must report NoProc and draw an engine
// error instead of silently aliasing process 0.
func TestUnregisteredProcessFailsLoudly(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(1), val.Int(1, 0))
	registered := &probeProc{name: "registered"}
	e.AddProcess(registered, true)

	stray := &probeProc{name: "stray"}
	if got := stray.ProcID(); got != NoProc {
		t.Fatalf("unregistered ProcID = %d, want NoProc", got)
	}
	e.Subscribe(stray.ProcID(), []SigRef{{Sig: s}})
	if e.Err() == nil {
		t.Error("Subscribe with NoProc must record an engine error")
	}
}

// TestSignalByNameIndex checks the lazily built name index, including
// signals registered after the index exists and first-wins duplicates.
func TestSignalByNameIndex(t *testing.T) {
	e := New()
	a := e.NewSignal("top.a", ir.IntType(1), val.Int(1, 0))
	first := e.NewSignal("top.dup", ir.IntType(1), val.Int(1, 0))
	e.NewSignal("top.dup", ir.IntType(1), val.Int(1, 1))
	if got := e.SignalByName("top.a"); got != a {
		t.Errorf("lookup top.a = %v", got)
	}
	if got := e.SignalByName("top.dup"); got != first {
		t.Error("duplicate name must resolve to the first registration")
	}
	// Registration after the index was built must still be found.
	late := e.NewSignal("top.late", ir.IntType(1), val.Int(1, 0))
	if got := e.SignalByName("top.late"); got != late {
		t.Errorf("lookup top.late = %v", got)
	}
	if got := e.SignalByName("top.nope"); got != nil {
		t.Errorf("lookup of unknown name = %v, want nil", got)
	}
}

// TestValueLayout pins the sizes the kernel's copy costs are built on: a
// three-word val.Value, and an event (signal reference + value + wake
// fields) that fits 72 bytes. Every queue append, phi move and register
// write copies one of these by value.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(val.Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(val.Value{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(event{}); got > 72 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want <= 72", got)
	}
}
