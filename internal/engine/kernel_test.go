package engine

import (
	"math"
	"strings"
	"testing"
	"time"
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

// TestWakeCostLinearInFanout is the enforcement hook of the "no linear
// scan on a per-wake path" rule: waking n subscribers of one signal costs
// O(n) per step, so 16 times the fan-out may cost 16 times the time. A
// kernel that filters the woken process out of the subscriber list at
// each wake is quadratic and lands near 256.
func TestWakeCostLinearInFanout(t *testing.T) {
	perStep := func(fanout int) time.Duration {
		e := newFanoutEngine(fanout, false)
		best := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			const steps = 200
			start := time.Now()
			for i := 0; i < steps; i++ {
				e.Step()
			}
			best = min(best, time.Since(start)/steps)
		}
		return best
	}
	small, large := perStep(128), perStep(2048)
	if ratio := float64(large) / float64(small); ratio >= 64 {
		t.Errorf("step at fan-out 2048 takes %v, at 128 %v: ratio %.0f, want < 64 (linear is 16)",
			large, small, ratio)
	}
}

// TestSubscriberListStaysBounded pins what retires stale entries on a
// signal that Step never walks: three processes re-arm on {clk, rst} ten
// thousand times while rst never changes, and rst's list stays within
// twice its live entries, without allocating once warm.
func TestSubscriberListStaysBounded(t *testing.T) {
	const live = 3
	e := newFanoutEngine(live, true)
	clk, rst := e.SignalByName("clk"), e.SignalByName("rst")
	for i := 0; i < 10000; i++ {
		e.Step()
		if n := len(rst.subscribers); n > 2*live+1 {
			t.Fatalf("step %d: rst holds %d entries for %d live subscriptions", i, n, live)
		}
		if n := len(clk.subscribers); n > 2*(live+1) {
			t.Fatalf("step %d: clk holds %d entries for %d live subscriptions", i, n, live+1)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Errorf("re-arming on an idle signal allocates %.2f times per step, want 0", avg)
	}
}

// TestSubscribeSupersedes pins the arming rule: Subscribe replaces the
// process's sensitivity instead of adding to it, and Halt retires it, the
// entries leaving the list at the next walk.
func TestSubscribeSupersedes(t *testing.T) {
	e := New()
	s1 := e.NewSignal("s1", ir.IntType(8), val.Int(8, 0))
	s2 := e.NewSignal("s2", ir.IntType(8), val.Int(8, 0))
	r1, r2 := SigRef{Sig: s1}, SigRef{Sig: s2}
	p := &probeProc{name: "p"}
	p.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{r1})
		e.Subscribe(p.ProcID(), []SigRef{r2}) // replaces the wait on s1
	}
	h := &probeProc{name: "h"}
	h.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{r2})
		e.ScheduleWake(p.ProcID(), ir.Nanoseconds(5))
		e.Halt(p.ProcID())
	}
	e.AddProcess(p, true)
	e.AddProcess(h, true)
	e.Init()

	e.Drive(r1, val.Int(8, 1), ir.Nanoseconds(1))
	e.Run(ir.Time{Fs: 1 * ir.Nanosecond})
	if len(p.wakes) != 0 {
		t.Fatalf("p woke on s1 at %v: its second Subscribe must have replaced the first", p.wakes)
	}
	e.Drive(r2, val.Int(8, 1), ir.Nanoseconds(1))
	e.Run(ir.Time{})
	if len(p.wakes) != 1 {
		t.Errorf("p woke %d times on s2, want 1", len(p.wakes))
	}
	if len(h.wakes) != 0 {
		t.Errorf("halted process woke at %v", h.wakes)
	}
	// Both walks are done: s1 held only p's superseded entry, s2 p's
	// consumed one and h's retired one.
	if len(s1.subscribers) != 0 || len(s2.subscribers) != 1 {
		t.Errorf("after the walks s1 holds %v, s2 holds %v; want none, and p's consumed entry only",
			s1.subscribers, s2.subscribers)
	}
}

// TestWakeOrderAfterPartialWake pins the order a re-armed process takes
// among the subscribers that were not woken: x is awaited by [B, A]; B
// wakes through y and re-arms, which moves it behind A, so the next change
// of x wakes A first.
func TestWakeOrderAfterPartialWake(t *testing.T) {
	e := New()
	x := SigRef{Sig: e.NewSignal("x", ir.IntType(8), val.Int(8, 0))}
	y := SigRef{Sig: e.NewSignal("y", ir.IntType(8), val.Int(8, 0))}
	var order []string
	mk := func(name string, refs ...SigRef) *probeProc {
		p := &probeProc{name: name}
		p.onIni = func(e *Engine, p *probeProc) { e.Subscribe(p.ProcID(), refs) }
		p.onWak = func(e *Engine, p *probeProc) {
			order = append(order, name)
			e.Subscribe(p.ProcID(), refs)
		}
		return p
	}
	e.AddProcess(mk("B", x, y), true)
	e.AddProcess(mk("A", x), true)
	e.Init()

	e.Drive(y, val.Int(8, 1), ir.Nanoseconds(1))
	e.Drive(x, val.Int(8, 1), ir.Nanoseconds(2))
	e.Drive(x, val.Int(8, 2), ir.Nanoseconds(3))
	e.Run(ir.Time{})
	if got, want := strings.Join(order, " "), "B A B A B"; got != want {
		t.Errorf("wake order %q, want %q", got, want)
	}
}

// TestSlotIndexAcrossScanThreshold drives the pending-instant index through
// both of its modes: the linear heap scan up to slotScanMax instants, the
// slots map above it, and the rebuild of the stale map when the heap grows
// back across the threshold. In every mode a drive at an already pending
// instant must land in that instant's one slot, behind the earlier drives.
func TestSlotIndexAcrossScanThreshold(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(16), val.Int(16, 0))
	driveAt := func(ns int, v uint64) {
		e.Drive(SigRef{Sig: s}, val.Int(16, v), ir.Time{Fs: int64(ns)*ir.Nanosecond - e.Now.Fs})
	}
	// Two drives per instant, the second pass in reverse so neither the
	// one-entry cache nor heap order finds the slot.
	schedule := func(from, to int, mark uint64) {
		for ns := from; ns <= to; ns++ {
			driveAt(ns, uint64(ns))
		}
		for ns := to; ns >= from; ns-- {
			driveAt(ns, mark+uint64(ns))
		}
	}
	stepTo := func(from, to int, mark uint64) {
		for ns := from; ns <= to; ns++ {
			e.Step()
			if got := s.Value().Bits; e.Now.Fs != int64(ns)*ir.Nanosecond || got != mark+uint64(ns) {
				t.Fatalf("at %v s = %d, want instant %dns and the later drive's %d", e.Now, got, ns, mark+uint64(ns))
			}
		}
	}

	schedule(1, 100, 1000) // up across the threshold
	if len(e.heap) != 100 || e.PendingEvents() != 200 {
		t.Fatalf("%d slots for %d events, want 100 slots for 200", len(e.heap), e.PendingEvents())
	}
	stepTo(1, 80, 1000) // down across it: 20 instants left, scan mode
	for ns := 81; ns <= 100; ns++ {
		driveAt(ns, 2000+uint64(ns)) // a third drive joins each old slot
	}
	schedule(101, 180, 2000) // and up again, over a stale map
	if len(e.heap) != 100 || e.PendingEvents() != 20*3+80*2 {
		t.Fatalf("%d slots for %d events, want 100 slots for 220", len(e.heap), e.PendingEvents())
	}
	stepTo(81, 180, 2000)
	if e.DeltaCount != 180 || e.PendingEvents() != 0 {
		t.Errorf("%d instants executed, %d events left; want 180 and 0", e.DeltaCount, e.PendingEvents())
	}
}
