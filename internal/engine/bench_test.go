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

// BenchmarkEngineKernel measures the kernel hot paths in isolation:
//
//	DriveStorm:      1 signal, 1 process, one drive+apply+wake per instant
//	WakeFanout64:    one toggling signal waking 64 subscribed processes
//	WakeFanout1024:  the same at 1024: ns/op over the fan-out is the cost
//	                 per subscriber, and must not grow with the fan-out
//	IdleSensitivity: 64 processes waiting on {clk, rst}, only clk toggles
//	DeltaCascade:    a 32-deep delta chain triggered once per iteration
//
// All five must run allocation-free at steady state (see
// TestDriveWakeHotPathAllocFree).
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
