package engine

import (
	"testing"

	"llhd/internal/ir"
	"llhd/internal/val"
)

// probe is a minimal Process recording its wake times.
type probeProc struct {
	ProcHandle
	name  string
	onIni func(e *Engine, p *probeProc)
	onWak func(e *Engine, p *probeProc)
	wakes []ir.Time
}

func (p *probeProc) Name() string { return p.name }
func (p *probeProc) Init(e *Engine) {
	if p.onIni != nil {
		p.onIni(e, p)
	}
}
func (p *probeProc) Wake(e *Engine) {
	p.wakes = append(p.wakes, e.Now)
	if p.onWak != nil {
		p.onWak(e, p)
	}
}

func TestDriveAndDeltaOrdering(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
	ref := SigRef{Sig: s}

	w := &probeProc{name: "w"}
	w.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{ref})
		// Zero-delay drive lands in the next delta, not instantly.
		e.Drive(ref, val.Int(8, 5), ir.Time{})
		if s.Value().Bits != 0 {
			t.Error("drive visible before the delta boundary")
		}
	}
	e.AddProcess(w, true)
	e.Init()
	e.Run(ir.Time{})
	if s.Value().Bits != 5 {
		t.Fatalf("s = %d, want 5", s.Value().Bits)
	}
	if len(w.wakes) != 1 {
		t.Fatalf("process woken %d times, want 1", len(w.wakes))
	}
	if w.wakes[0].Delta != 1 {
		t.Errorf("wake at delta %d, want 1", w.wakes[0].Delta)
	}
}

func TestNoWakeOnUnchangedValue(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(1), val.Int(1, 0))
	ref := SigRef{Sig: s}
	w := &probeProc{name: "w"}
	w.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{ref})
		e.Drive(ref, val.Int(1, 0), ir.Time{}) // same value: no event
	}
	e.AddProcess(w, true)
	e.Init()
	e.Run(ir.Time{})
	if len(w.wakes) != 0 {
		t.Errorf("woken %d times on a no-change drive", len(w.wakes))
	}
}

func TestTimeoutWake(t *testing.T) {
	e := New()
	w := &probeProc{name: "w"}
	w.onIni = func(e *Engine, p *probeProc) {
		e.ScheduleWake(p.ProcID(), ir.Nanoseconds(5))
	}
	e.AddProcess(w, true)
	e.Init()
	e.Run(ir.Time{})
	if len(w.wakes) != 1 || w.wakes[0].Fs != 5*ir.Nanosecond {
		t.Errorf("wakes = %v, want one at 5ns", w.wakes)
	}
}

func TestStaleTimeoutSuppressed(t *testing.T) {
	// A process re-armed by a signal wake must not also fire its old
	// timeout.
	e := New()
	s := e.NewSignal("s", ir.IntType(1), val.Int(1, 0))
	ref := SigRef{Sig: s}
	w := &probeProc{name: "w"}
	w.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{ref})
		e.ScheduleWake(p.ProcID(), ir.Nanoseconds(10))
	}
	w.onWak = func(e *Engine, p *probeProc) {
		// Woken by the signal at 1ns; do not re-arm.
	}
	driver := &probeProc{name: "drv"}
	driver.onIni = func(e *Engine, p *probeProc) {
		e.Drive(ref, val.Int(1, 1), ir.Nanoseconds(1))
	}
	e.AddProcess(w, true)
	e.AddProcess(driver, true)
	e.Init()
	e.Run(ir.Time{})
	if len(w.wakes) != 1 {
		t.Fatalf("wakes = %v, want exactly one (stale timeout must not fire)", w.wakes)
	}
	if w.wakes[0].Fs != 1*ir.Nanosecond {
		t.Errorf("woken at %v, want 1ns", w.wakes[0])
	}
}

func TestProjectionDriveAndProbe(t *testing.T) {
	e := New()
	ty := ir.StructType(ir.IntType(8), ir.IntType(16))
	s := e.NewSignal("s", ty, val.Default(ty))
	f1 := SigRef{Sig: s, Path: []Proj{{Kind: ProjField, A: 1}}}
	w := &probeProc{name: "w"}
	w.onIni = func(e *Engine, p *probeProc) {
		e.Drive(f1, val.Int(16, 0xBEEF), ir.Time{})
	}
	e.AddProcess(w, true)
	e.Init()
	e.Run(ir.Time{})
	if got := e.Probe(f1); got.Bits != 0xBEEF {
		t.Errorf("field probe = %v", got)
	}
	whole := e.Probe(SigRef{Sig: s})
	if whole.Elem(0).Bits != 0 || whole.Elem(1).Bits != 0xBEEF {
		t.Errorf("whole = %v", whole)
	}
}

func TestRunRespectsLimit(t *testing.T) {
	e := New()
	s := e.NewSignal("s", ir.IntType(8), val.Int(8, 0))
	ref := SigRef{Sig: s}
	w := &probeProc{name: "w"}
	n := 0
	w.onIni = func(e *Engine, p *probeProc) {
		e.Subscribe(p.ProcID(), []SigRef{ref})
		e.Drive(ref, val.Int(8, 1), ir.Nanoseconds(1))
	}
	w.onWak = func(e *Engine, p *probeProc) {
		n++
		e.Subscribe(p.ProcID(), []SigRef{ref})
		e.Drive(ref, val.Int(8, uint64(n+1)), ir.Nanoseconds(1))
	}
	e.AddProcess(w, true)
	e.Init()
	e.Run(ir.Time{Fs: 5 * ir.Nanosecond})
	if e.Now.Fs > 5*ir.Nanosecond {
		t.Errorf("ran past the limit: %v", e.Now)
	}
	if n == 0 || n > 6 {
		t.Errorf("n = %d, want a handful of 1ns steps", n)
	}
}

func TestEvalPureUnavailableOperand(t *testing.T) {
	in := &ir.Inst{Op: ir.OpAdd, Ty: ir.IntType(8),
		Args: []ir.Value{&ir.Inst{Op: ir.OpConstInt, Ty: ir.IntType(8)}, &ir.Inst{Op: ir.OpConstInt, Ty: ir.IntType(8)}}}
	_, err := EvalPure(in, func(ir.Value) (val.Value, bool) { return val.Value{}, false })
	if err == nil {
		t.Error("missing operands not reported")
	}
}
