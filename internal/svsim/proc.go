package svsim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// astProc runs one always/initial block. It is one of two kinds, fixed by
// Compile (procProg.plain):
//
//   - a plain call, for an always block that cannot suspend mid-body (no
//     # delay and no @(...) in its body or in any function of its module):
//     Init and Wake each run at most one pass on the kernel's goroutine
//     and re-arm before they return;
//   - a coroutine, for every other block: the body runs under iter.Pull,
//     yielding to the kernel at every wait point and resumed by Wake (the
//     classic threaded-simulator architecture of commercial tools).
//
// Both run the same pass, re-arm and edge test (pass, armRefs,
// eventList.fired); they differ only in how control returns to the kernel.
type astProc struct {
	engine.ProcHandle
	name string
	prog *procProg
	*instState
	// events is the block's own sensitivity list when it is edge-triggered
	// (always_ff, always @(posedge ...)); nil for a combinational block.
	events *eventList
	// waits holds the state of every @(...) the process can reach: those
	// in the module's functions, then its body's.
	waits []eventList

	// The coroutine's iter.Pull pair and the body's yield; nil when plain.
	next   func() (yieldMsg, bool)
	cancel func()
	yield  func(yieldMsg) bool

	e *engine.Engine // valid while the process holds control

	fr     []uint64   // the frame of the running body or function
	frames [][]uint64 // by call depth: the body's, then one per live call
	depth  int        // the live function-call chain (engine.MaxCallDepth)
	err    error      // the first runtime error, see fail

	pending slotSet         // nets with a blocking write not yet driven, see flush
	pendVal []uint64        // by slot: the value of each pending write
	reads   slotSet         // nets probed during the current pass
	arm     []engine.SigRef // the re-arm list of a combinational block, see armRefs
}

// yieldMsg is the wait a coroutine yields: nets and an optional timeout.
type yieldMsg struct {
	refs    []engine.SigRef
	timeout ir.Time
	timed   bool
}

// slotSet is a set of net slots: a flag per slot of the scope, and the
// members in the order they joined.
type slotSet struct {
	has  []bool
	list []int
}

func (s *slotSet) add(slot int) {
	if !s.has[slot] {
		s.has[slot] = true
		s.list = append(s.list, slot)
	}
}

func (s *slotSet) reset() {
	for _, slot := range s.list {
		s.has[slot] = false
	}
	s.list = s.list[:0]
}

// newAstProc builds the process of one compiled block on an instance.
func newAstProc(name string, st *instState, prog *procProg) *astProc {
	n := len(st.refs)
	p := &astProc{
		name:      name,
		prog:      prog,
		instState: st,
		waits:     make([]eventList, 0, len(st.mod.funcWaits)+len(prog.waits)),
		frames:    [][]uint64{make([]uint64, prog.nslots)},
		pending:   slotSet{has: make([]bool, n)},
		pendVal:   make([]uint64, n),
		reads:     slotSet{has: make([]bool, n)},
	}
	p.fr = p.frames[0]
	if prog.events != nil {
		p.events = p.eventList(prog.events)
	}
	for _, l := range st.mod.funcWaits {
		p.waits = append(p.waits, *p.eventList(l))
	}
	for _, l := range prog.waits {
		p.waits = append(p.waits, *p.eventList(l))
	}
	return p
}

func (p *astProc) Name() string { return p.name }

func (p *astProc) Init(e *engine.Engine) {
	p.e = e
	if p.prog.plain {
		p.step(p.events == nil)
		return
	}
	p.next, p.cancel = iter.Pull(p.main)
	p.resume()
}

func (p *astProc) Wake(e *engine.Engine) {
	p.e = e
	if p.prog.plain {
		p.step(p.events == nil || p.events.fired(e))
		return
	}
	p.resume()
}

// step is one activation of a plain-call process: a pass when run says
// so, then the re-arm. A panic in it is the kernel's, contained by the
// Session like one from the LLHD engines, engine.RunningProc naming the
// process.
func (p *astProc) step(run bool) {
	if run && !p.pass() {
		return
	}
	refs := p.armRefs()
	p.flush()
	p.e.Subscribe(p.ProcID(), refs)
}

// resume runs the coroutine to its next wait and arms it; a body that
// returned (finish or a contained panic halted it) has none.
func (p *astProc) resume() {
	y, ok := p.next()
	if !ok {
		return
	}
	p.e.Subscribe(p.ProcID(), y.refs)
	if y.timed {
		p.e.ScheduleWake(p.ProcID(), y.timeout)
	}
}

// shutdown unwinds a coroutine parked at a wait (its suspend reports
// false). It is idempotent and a no-op for a process never started.
func (p *astProc) shutdown() {
	if p.cancel != nil {
		p.cancel()
	}
}

// writeNet writes bits, masked to the net's width w, to the net at slot:
// a blocking write is pending until the next flush and visible to the
// process at once (readNet), a nonblocking one a drive after delay.
func (p *astProc) writeNet(slot, w int, bits uint64, blocking bool, delay ir.Time) {
	if blocking {
		p.pendVal[slot] = mask(bits, w)
		p.pending.add(slot)
		return
	}
	p.e.Drive(p.refs[slot], val.Int(w, bits), delay)
}

// flush drives every blocking net write still pending as a delta drive,
// in slot order, which is name order. A blocking write is visible to the
// process at once (readNet) and to everyone else one delta after the
// process next hands control back, wherever that is: a #delay, an @(...),
// the end of a pass or of an initial block.
func (p *astProc) flush() {
	slices.Sort(p.pending.list)
	for _, slot := range p.pending.list {
		p.e.Drive(p.refs[slot], val.Int(p.mod.slotW[slot], p.pendVal[slot]), ir.Time{})
	}
	p.pending.reset()
}

// suspend flushes the pending writes, yields to the kernel and blocks
// until the next wake. It reports false when the simulator shut down.
func (p *astProc) suspend(y yieldMsg) bool {
	p.flush()
	return p.yield(y)
}

// ctrl signals non-local exits of the interpreter.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlFinish
	ctrlReturn
	ctrlStop // simulator torn down
	ctrlErr  // a runtime error, held in astProc.err
)

// fail records the first runtime error of the pass. Evaluation goes on
// with zeros up to the end of the statement, which then stops with
// ctrlErr; a function is not entered once an error is pending, so nothing
// observable happens after the error.
func (p *astProc) fail(err error) cval {
	if p.err == nil {
		p.err = err
	}
	return cval{}
}

// main is the body of a coroutine process, run under iter.Pull.
func (p *astProc) main(yield func(yieldMsg) bool) {
	p.yield = yield
	defer func() {
		// iter.Pull would re-panic on the kernel side without these frames:
		// classify the panic here, where the stack shows the faulting
		// statement (Capture names the process), and halt.
		if r := recover(); r != nil {
			p.e.SetError(p.e.Capture(engine.ErrInternal, nil, r, debug.Stack()))
			p.e.Halt(p.ProcID())
		}
	}()
	if p.prog.initial {
		p.finish(p.exec(p.prog.body))
		return
	}
	p.loop()
}

// loop is the coroutine form of an always block: step, with a suspension
// where a plain call returns to the kernel.
func (p *astProc) loop() {
	run := p.events == nil
	for {
		if run && !p.pass() {
			return
		}
		if !p.suspend(yieldMsg{refs: p.armRefs()}) {
			return
		}
		run = p.events == nil || p.events.fired(p.e)
	}
}

// pass runs the block body once. It reports whether the process goes on:
// after an error or $finish it has been halted (finish), after a
// simulator shutdown it is gone.
func (p *astProc) pass() bool {
	p.reads.reset()
	c := p.exec(p.prog.body)
	if p.err != nil || c == ctrlFinish {
		p.finish(c)
		return false
	}
	return c != ctrlStop
}

// finish records the error, if any, and unless the simulator shut down
// delivers the pending writes and halts the process.
func (p *astProc) finish(c ctrl) {
	if p.err != nil {
		p.e.SetError(fmt.Errorf("svsim: %s: %w", p.name, p.err))
	}
	if c == ctrlStop {
		return
	}
	p.flush()
	p.e.Halt(p.ProcID())
}

// armRefs is the re-arm rule of an always block, taken after its pass and
// before the flush: an edge-triggered block waits on its event list, the
// levels sampled now; a combinational one on the nets the pass read, those
// it wrote itself excepted. The slice is the process's own, reused by the
// next re-arm; the kernel does not keep it.
func (p *astProc) armRefs() []engine.SigRef {
	if p.events != nil {
		p.events.sample(p.e)
		return p.events.refs
	}
	p.arm = p.arm[:0]
	for _, slot := range p.reads.list {
		if !p.pending.has[slot] {
			p.arm = append(p.arm, p.refs[slot])
		}
	}
	return p.arm
}

// edge is one event of a list: the net, which transition of it counts,
// and its level when the wait began.
type edge struct {
	ref  engine.SigRef
	kind edgeKind
	prev uint64
}

// eventList is a sensitivity list on the process's instance; refs are the
// nets of edges in the form the kernel subscribes to.
type eventList struct {
	edges []edge
	refs  []engine.SigRef
}

func (p *astProc) eventList(evs []evRef) *eventList {
	l := &eventList{edges: make([]edge, len(evs)), refs: make([]engine.SigRef, len(evs))}
	for i, ev := range evs {
		l.edges[i] = edge{ref: p.refs[ev.slot], kind: ev.kind}
		l.refs[i] = p.refs[ev.slot]
	}
	return l
}

// sample records the level of every net of the list, for fired.
func (l *eventList) sample(e *engine.Engine) {
	for i := range l.edges {
		l.edges[i].prev = e.Probe(l.edges[i].ref).Bits
	}
}

// fired is the edge test: whether an edge of the list happened since
// sample. A posedge is a level going from zero to non-zero, a negedge the
// reverse, any other event any change.
func (l *eventList) fired(e *engine.Engine) bool {
	for _, ed := range l.edges {
		now := e.Probe(ed.ref).Bits
		switch ed.kind {
		case edgePos:
			if ed.prev == 0 && now != 0 {
				return true
			}
		case edgeNeg:
			if ed.prev != 0 && now == 0 {
				return true
			}
		default:
			if ed.prev != now {
				return true
			}
		}
	}
	return false
}
