package engine

import (
	"testing"

	"llhd/internal/ir"
	"llhd/internal/val"
)

// togglerProc is a persistent process that re-drives its signal with the
// inverted value on every wake, producing one event per time instant
// forever: the kernel's drive/apply/wake hot loop with nothing else on top.
type togglerProc struct {
	ProcHandle
	ref SigRef
	bit uint64
}

func (p *togglerProc) Name() string { return "toggler" }
func (p *togglerProc) Init(e *Engine) {
	e.Subscribe(p.ProcID(), []SigRef{p.ref})
	p.bit = 1
	e.Drive(p.ref, val.Int(1, p.bit), ir.Nanoseconds(1))
}
func (p *togglerProc) Wake(e *Engine) {
	e.Subscribe(p.ProcID(), []SigRef{p.ref})
	p.bit ^= 1
	e.Drive(p.ref, val.Int(1, p.bit), ir.Nanoseconds(1))
}

func newTogglerEngine() *Engine {
	e := New()
	s := e.NewSignal("clk", ir.IntType(1), val.Int(1, 0))
	tp := &togglerProc{ref: SigRef{Sig: s}}
	e.AddProcess(tp, true)
	e.Init()
	return e
}

// sinkProc records wakes and re-arms; its work is intentionally nil so the
// benchmark isolates kernel dispatch.
type sinkProc struct {
	ProcHandle
	refs  []SigRef
	wakes int
}

func (p *sinkProc) Name() string { return "sink" }
func (p *sinkProc) Init(e *Engine) {
	e.Subscribe(p.ProcID(), p.refs)
}
func (p *sinkProc) Wake(e *Engine) {
	p.wakes++
	e.Subscribe(p.ProcID(), p.refs)
}

// newFanoutEngine builds one toggling clk that wakes n sinks per instant.
// With rst every sink also waits on a signal "rst" that never changes: a
// process's `wait (clk, rst)` under a quiet reset.
func newFanoutEngine(n int, rst bool) *Engine {
	e := New()
	refs := []SigRef{{Sig: e.NewSignal("clk", ir.IntType(1), val.Int(1, 0))}}
	e.AddProcess(&togglerProc{ref: refs[0]}, true)
	if rst {
		refs = append(refs, SigRef{Sig: e.NewSignal("rst", ir.IntType(1), val.Int(1, 0))})
	}
	for i := 0; i < n; i++ {
		e.AddProcess(&sinkProc{refs: refs}, true)
	}
	e.Init()
	return e
}

// chainProc forwards a change on its input to its output with a delta
// drive, forming the deep-delta cascade.
type chainProc struct {
	ProcHandle
	in, out SigRef
}

func (p *chainProc) Name() string { return "chain" }
func (p *chainProc) Init(e *Engine) {
	e.Subscribe(p.ProcID(), []SigRef{p.in})
}
func (p *chainProc) Wake(e *Engine) {
	e.Subscribe(p.ProcID(), []SigRef{p.in})
	e.Drive(p.out, e.Probe(p.in), ir.Time{})
}

// wideProc drives its signals, in list order, to one value toggled per
// instant, and wakes itself a nanosecond later to do it again: every
// instant changes all of them.
type wideProc struct {
	ProcHandle
	refs []SigRef
	bit  uint64
}

func (p *wideProc) Name() string   { return "wide" }
func (p *wideProc) Init(e *Engine) { p.Wake(e) }
func (p *wideProc) Wake(e *Engine) {
	p.bit ^= 1
	for _, r := range p.refs {
		e.Drive(r, val.Int(1, p.bit), ir.Nanoseconds(1))
	}
	e.ScheduleWake(p.ProcID(), ir.Nanoseconds(1))
}

// newWideEngine registers n signals and one wideProc driving the listed
// IDs; each driven signal also wakes one sink.
func newWideEngine(n int, ids []int) *Engine {
	e := New()
	sigs := make([]*Signal, n)
	for i := range sigs {
		sigs[i] = e.NewSignal("s", ir.IntType(1), val.Int(1, 0))
	}
	w := &wideProc{}
	for _, id := range ids {
		r := SigRef{Sig: sigs[id]}
		w.refs = append(w.refs, r)
		e.AddProcess(&sinkProc{refs: []SigRef{r}}, true)
	}
	e.AddProcess(w, true)
	e.Init()
	return e
}

// newWideInstant256Engine changes 256 signals per instant, driven in
// descending ID order.
func newWideInstant256Engine() *Engine {
	ids := make([]int, 256)
	for i := range ids {
		ids[i] = len(ids) - 1 - i
	}
	return newWideEngine(len(ids), ids)
}

// BenchmarkEngineKernel measures the kernel hot paths in isolation:
//
//	DriveStorm:      1 signal, 1 process, one drive+apply+wake per instant
//	WakeFanout64:    one toggling signal waking 64 subscribed processes
//	WakeFanout1024:  the same at 1024: ns/op over the fan-out is the cost
//	                 per subscriber, and must not grow with the fan-out
//	IdleSensitivity: 64 processes waiting on {clk, rst}, only clk toggles
//	DeltaCascade:    a 32-deep delta chain triggered once per iteration
//	WideInstant256:  256 signals changed per instant, driven in descending
//	                 ID order, each waking one subscriber
//	WideSparse:      40 changes spread over 64 k signals, the worst case
//	                 of the wide-instant ordering: its scan walks ~1 000
//	                 bitmap words for 40 signals
//
// All seven must run allocation-free at steady state (see
// TestDriveWakeHotPathAllocFree and TestWideInstantAllocFree).
func BenchmarkEngineKernel(b *testing.B) {
	steps := func(e *Engine) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		}
	}
	b.Run("DriveStorm", steps(newTogglerEngine()))
	b.Run("WakeFanout64", steps(newFanoutEngine(64, false)))
	b.Run("WakeFanout1024", steps(newFanoutEngine(1024, false)))
	b.Run("IdleSensitivity", steps(newFanoutEngine(64, true)))

	b.Run("DeltaCascade32", func(b *testing.B) {
		e := New()
		const depth = 32
		sigs := make([]*Signal, depth+1)
		for i := range sigs {
			sigs[i] = e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
		}
		for i := 0; i < depth; i++ {
			e.AddProcess(&chainProc{in: SigRef{Sig: sigs[i]}, out: SigRef{Sig: sigs[i+1]}}, true)
		}
		e.Init()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Drive(SigRef{Sig: sigs[0]}, val.Int(8, uint64(i+1)), ir.Nanoseconds(1))
			for e.Step() {
			}
		}
	})

	b.Run("WideInstant256", steps(newWideInstant256Engine()))
	const sparse, changes = 1 << 16, 40
	ids := make([]int, changes)
	for i := range ids {
		ids[i] = (changes - 1 - i) * (sparse / changes)
	}
	b.Run("WideSparse", steps(newWideEngine(sparse, ids)))
}

// TestDriveWakeHotPathAllocFree is the tier-1 guarantee behind the kernel
// rework: once warmed up, the drive/apply/wake path performs at most one
// allocation per step (zero in practice; one is headroom for map-internal
// rehashing noise).
func TestDriveWakeHotPathAllocFree(t *testing.T) {
	e := newTogglerEngine()
	for i := 0; i < 256; i++ { // warm the slot pool and scratch slices
		e.Step()
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if avg > 1 {
		t.Errorf("drive/wake hot path allocates %.2f times per step, want <= 1", avg)
	}
}

// TestWideInstantAllocFree holds instants wider than 32 changes to the same
// budget: ordering 256 changed signals by ID through changedBits allocates
// nothing once the scratch slices are warm.
func TestWideInstantAllocFree(t *testing.T) {
	e := newWideInstant256Engine()
	for i := 0; i < 256; i++ {
		e.Step()
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if avg > 1 {
		t.Errorf("wide-instant path allocates %.2f times per step, want <= 1", avg)
	}
}
