package engine

import (
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
	"llhd/internal/logic"
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

// pureSrc holds the instructions the EvalPure tests evaluate, over the
// inputs %a = 200 and %b = 0 of evalRegs.
const pureSrc = `
func @f (i8 %a, i8 %b) i8 {
 entry:
  %k = const i8 9
  %add = add i8 %a, %a
  %lt = ult i8 %b, %a
  %ext = exts i4 %a, 4, 4
  %ins = inss i8 %a, %ext, 0, 4
  %not = not i8 %a
  %div = udiv i8 %a, %b
  %arr = [i8 %a, %b]
  %bad = extf i8 %arr, 2
  ret i8 %add
}
`

// evalRegs parses pureSrc and returns its instructions by name and a
// register file over the unit's numbering holding the inputs.
func evalRegs(t *testing.T) (map[string]*ir.Inst, []val.Value) {
	t.Helper()
	u := assembly.MustParse("m", pureSrc).Unit("f")
	regs := make([]val.Value, u.Numbering().Len())
	regs[ir.ValueID(u.Inputs[0])] = val.Int(8, 200)
	regs[ir.ValueID(u.Inputs[1])] = val.Int(8, 0)
	insts := map[string]*ir.Inst{}
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) { insts[in.ValueName()] = in })
	return insts, regs
}

// TestEvalPureIntegerOverOtherKinds pins the Kind-first rule on the
// in-place writes: an integer result written over a register that held a
// logic vector, an aggregate or a time reads back as that integer through
// Eq, Append and an aggregate's Elem.
func TestEvalPureIntegerOverOtherKinds(t *testing.T) {
	insts, regs := evalRegs(t)
	lv, err := logic.ParseVector("01XZ")
	if err != nil {
		t.Fatal(err)
	}
	olds := map[string]val.Value{
		"logic":     val.LogicVal(lv),
		"aggregate": val.Agg([]val.Value{val.Int(16, 1), val.LogicVal(lv)}),
		"time":      val.TimeVal(ir.Nanoseconds(3)),
	}
	// In program order: %ins reads %ext, which each round overwrites
	// before it evaluates it again.
	wants := []struct {
		name string
		want val.Value
	}{
		{"k", val.Int(8, 9)}, {"add", val.Int(8, 144)}, {"lt", val.Int(1, 1)},
		{"ext", val.Int(4, 12)}, {"ins", val.Int(8, 204)}, {"not", val.Int(8, 55)},
	}
	for kind, old := range olds {
		for _, w := range wants {
			name, want := w.name, w.want
			in := insts[name]
			dst := &regs[ir.ValueID(in)]
			*dst = old
			if err := EvalPure(in, regs); err != nil {
				t.Fatalf("%s over %s: %v", name, kind, err)
			}
			got := *dst
			if !got.Eq(want) || !want.Eq(got) {
				t.Errorf("%s over %s = %+v, want %v", name, kind, got, want)
			}
			if s := string(got.Append(nil)); s != want.String() {
				t.Errorf("%s over %s appends %q, want %q", name, kind, s, want.String())
			}
			// Held next to a logic element the aggregate keeps the value
			// as it is, stale payload pointer and all.
			if e := val.Agg([]val.Value{got, val.LogicVal(lv)}).Elem(0); !e.Eq(want) {
				t.Errorf("%s over %s reads back from an aggregate as %+v, want %v", name, kind, e, want)
			}
		}
	}
}

// TestEvalPureErrorKeepsDestination pins that a failed evaluation leaves
// its destination register as it was: the elaborator's constant table
// relies on it.
func TestEvalPureErrorKeepsDestination(t *testing.T) {
	insts, regs := evalRegs(t)
	if err := EvalPure(insts["arr"], regs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"div", "bad"} {
		in := insts[name]
		old := val.TimeVal(ir.Nanoseconds(5))
		regs[ir.ValueID(in)] = old
		if err := EvalPure(in, regs); err == nil {
			t.Errorf("%s: no error", name)
		}
		if got := regs[ir.ValueID(in)]; !got.Eq(old) {
			t.Errorf("%s: destination = %v after the error, want %v", name, got, old)
		}
	}
}
