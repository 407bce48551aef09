package svsim

import (
	"fmt"
	"slices"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// astProc runs one always/initial block, and the functions it calls, as
// flat code (compile.go). Its whole control state is data: the code
// running, the pc, the frame, and a stack of the calls in progress of
// functions that may wait. Init and Wake run the code on the kernel's
// goroutine from the saved pc to the next op that suspends — a # delay,
// an @(...), the end of an always block's pass — which arms the wake and
// saves the pc to resume at; or to the end: an initial block's last op,
// $finish or a runtime error, which halt the process. A panic in it is the
// kernel's, contained by the Session like one from the LLHD engines,
// engine.RunningProc naming the process.
type astProc struct {
	engine.ProcHandle
	name string
	*instState
	// waits holds the state of every event list the process can wait on:
	// the @(...) lists in the module's functions, then its body's, then
	// its own sensitivity list when it is edge-triggered.
	waits []eventList

	e *engine.Engine // valid while the process holds control

	code   []stmt      // the code running: the block's or a function's
	pc     int         // the next op of code
	fr     []uint64    // the frame of the running body or function
	stack  []callFrame // the calls of functions that may wait, innermost last
	frames [][]uint64  // by call depth: the body's, then one per live call
	depth  int         // the live function-call chain (engine.MaxCallDepth)
	jumps  int         // backward jumps in this activation (loopBudget)
	err    error       // the first runtime error, see fail

	pending slotSet         // nets with a blocking write not yet driven, see flush
	pendVal []uint64        // by slot: the value of each pending write
	reads   slotSet         // nets probed during the current pass
	arm     []engine.SigRef // the re-arm list of a combinational block
}

// callFrame is where a call op returns to: the caller's code, pc and
// frame, and the op, whose target takes the result.
type callFrame struct {
	code []stmt
	pc   int
	fr   []uint64
	call *stmt
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
		instState: st,
		waits:     make([]eventList, 0, len(st.mod.funcWaits)+len(prog.waits)),
		code:      prog.code,
		frames:    [][]uint64{make([]uint64, prog.nslots)},
		pending:   slotSet{has: make([]bool, n)},
		pendVal:   make([]uint64, n),
		reads:     slotSet{has: make([]bool, n)},
	}
	p.fr = p.frames[0]
	for _, l := range st.mod.funcWaits {
		p.waits = append(p.waits, p.eventList(l))
	}
	for _, l := range prog.waits {
		p.waits = append(p.waits, p.eventList(l))
	}
	return p
}

func (p *astProc) Name() string { return p.name }

// Init starts the process at its first op: an initial block runs, a
// combinational block runs its first pass, an edge-triggered one arms.
func (p *astProc) Init(e *engine.Engine) { p.Wake(e) }

// Wake is one activation: the code runs from the saved pc until it
// suspends or the process ends.
func (p *astProc) Wake(e *engine.Engine) {
	p.e, p.jumps = e, 0
	if !p.run(0) {
		p.finish()
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

// fail records the first runtime error of the activation. Evaluation goes
// on with zeros up to the end of the op, and run stops there; a function
// is not entered once an error is pending, so nothing observable happens
// after the error.
func (p *astProc) fail(err error) cval {
	if p.err == nil {
		p.err = err
	}
	return cval{}
}

// finish ends the process: it records the error, if any, delivers the
// pending writes and halts.
func (p *astProc) finish() {
	if p.err != nil {
		p.e.SetError(fmt.Errorf("svsim: %s: %w", p.name, p.err))
	}
	p.flush()
	p.e.Halt(p.ProcID())
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

func (p *astProc) eventList(evs []evRef) eventList {
	l := eventList{edges: make([]edge, len(evs)), refs: make([]engine.SigRef, len(evs))}
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
