package svsim

import (
	"fmt"
	"runtime/debug"
	"sort"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/val"
)

// astProc runs one always/initial block as a coroutine: the interpreter
// lives in its own goroutine and hands control back to the event kernel at
// every wait point via a channel handshake (the classic threaded-simulator
// architecture of commercial tools).
type astProc struct {
	engine.ProcHandle
	name string
	sc   *scope
	blk  *moore.AlwaysBlock
	// events is the block's own sensitivity list when it is edge-triggered
	// (always_ff, always @(posedge ...)); nil for a combinational block.
	events *eventList

	wakeCh  chan struct{}
	yieldCh chan yieldMsg
	started bool
	stopped bool

	e *engine.Engine // valid while the coroutine holds control

	locals  map[string]val.Value
	pending map[string]val.Value // blocking net writes not yet driven, see flush
	flushed []string             // scratch of flush: the names of pending, sorted
	reads   map[string]bool      // nets probed during the current pass
}

type yieldMsg struct {
	halt    bool
	refs    []engine.SigRef
	timeout *ir.Time
}

// newAstProc builds the process of one always/initial block. Every name
// the block mentions is resolved here (checkNames, resolveEvents), so a
// misspelt net is a diagnostic of New and the running process never hands
// the kernel the zero SigRef of a failed lookup.
func newAstProc(name string, sc *scope, blk *moore.AlwaysBlock) (*astProc, error) {
	p := &astProc{
		name:    name,
		sc:      sc,
		blk:     blk,
		wakeCh:  make(chan struct{}),
		yieldCh: make(chan yieldMsg),
		locals:  map[string]val.Value{},
		pending: map[string]val.Value{},
		reads:   map[string]bool{},
	}
	err := sc.checkNames(map[string]bool{}, blk.Body)
	if err == nil && blk.EdgeTriggered() {
		p.events, err = sc.resolveEvents("edge", blk.Events)
	}
	if err != nil {
		return nil, fmt.Errorf("svsim: %s: %w", name, err)
	}
	return p, nil
}

func (p *astProc) Name() string { return p.name }

func (p *astProc) Init(e *engine.Engine) {
	p.e = e
	p.started = true
	go p.main()
	p.handle(<-p.yieldCh, e)
}

func (p *astProc) Wake(e *engine.Engine) {
	if p.stopped {
		return
	}
	p.e = e
	p.wakeCh <- struct{}{}
	p.handle(<-p.yieldCh, e)
}

func (p *astProc) handle(y yieldMsg, e *engine.Engine) {
	if y.halt {
		e.Halt(p.ProcID())
		p.stopped = true
		return
	}
	e.Subscribe(p.ProcID(), y.refs)
	if y.timeout != nil {
		e.ScheduleWake(p.ProcID(), *y.timeout)
	}
}

// shutdown terminates the coroutine goroutine.
func (p *astProc) shutdown() {
	if p.started && !p.stopped {
		p.stopped = true
		close(p.wakeCh)
	}
}

// flush drives every blocking net write still pending as a delta drive,
// in name order. A blocking write is visible to the process at once
// (readName) and to everyone else one delta after the process next hands
// control back, wherever that is: a #delay, an @(...), the end of a pass
// or of an initial block.
func (p *astProc) flush() {
	if len(p.pending) == 0 {
		return
	}
	p.flushed = p.flushed[:0]
	for n := range p.pending {
		p.flushed = append(p.flushed, n)
	}
	sort.Strings(p.flushed)
	for _, n := range p.flushed {
		p.e.Drive(p.sc.sigs[n], p.pending[n], ir.Time{})
	}
	clear(p.pending)
}

// suspend flushes the pending writes, yields to the kernel and blocks
// until the next wake. It reports false when the simulator shut down.
func (p *astProc) suspend(y yieldMsg) bool {
	p.flush()
	p.yieldCh <- y
	_, ok := <-p.wakeCh
	return ok
}

// ctrl signals non-local exits of the interpreter.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlFinish
	ctrlReturn
	ctrlStop // simulator torn down
)

func (p *astProc) main() {
	defer func() {
		// A panic here would deadlock the kernel; convert to a classified
		// RuntimeError (the kernel goroutine is blocked in the wake
		// handoff, so reading its context is race-free) and halt cleanly.
		if r := recover(); r != nil {
			re := p.e.Capture(engine.ErrInternal, nil, r, debug.Stack())
			if re.Proc == "" {
				re.Proc = p.name
			}
			p.e.SetError(re)
			p.yieldCh <- yieldMsg{halt: true}
		}
	}()
	switch p.blk.Kind {
	case "initial":
		c, err := p.exec(p.blk.Body)
		p.finish(c, err)
	case "always_comb", "always_latch":
		p.combLoop()
	case "always_ff", "always":
		if p.events != nil {
			p.ffLoop()
		} else {
			p.combLoop()
		}
	default:
		p.e.SetError(fmt.Errorf("svsim: %s: unsupported block kind %q", p.name, p.blk.Kind))
		p.yieldCh <- yieldMsg{halt: true}
	}
}

func (p *astProc) finish(c ctrl, err error) {
	if err != nil {
		p.e.SetError(fmt.Errorf("svsim: %s: %w", p.name, err))
	}
	if c != ctrlStop {
		p.flush()
		p.yieldCh <- yieldMsg{halt: true}
	}
}

// combLoop evaluates the body and re-arms on the signals read during the
// pass, those it wrote itself excepted.
func (p *astProc) combLoop() {
	for {
		clear(p.reads)
		c, err := p.exec(p.blk.Body)
		if err != nil || c == ctrlFinish {
			p.finish(c, err)
			return
		}
		if c == ctrlStop {
			return
		}
		var refs []engine.SigRef
		for n := range p.reads {
			if _, wrote := p.pending[n]; !wrote {
				refs = append(refs, p.sc.sigs[n])
			}
		}
		if !p.suspend(yieldMsg{refs: refs}) {
			return
		}
	}
}

// edge is one resolved event: the net, which transition of it counts, and
// its level when the wait began.
type edge struct {
	ref  engine.SigRef
	mode string // "posedge", "negedge", or any change
	prev uint64
}

// eventList is a resolved sensitivity list; refs are the nets of edges in
// the form the kernel subscribes to.
type eventList struct {
	edges []edge
	refs  []engine.SigRef
}

// resolveEvents maps an event list to the nets it names; kind words the
// diagnostic ("edge" for a block's own list, "event" for a wait inside it).
func (sc *scope) resolveEvents(kind string, events []moore.Event) (*eventList, error) {
	l := &eventList{}
	for _, ev := range events {
		id, ok := ev.Sig.(*moore.Ident)
		if !ok {
			return nil, fmt.Errorf("%s expression must name a net", kind)
		}
		ref, ok := sc.sigs[id.Name]
		if !ok {
			return nil, fmt.Errorf("%s net %q not visible to process", kind, id.Name)
		}
		l.edges = append(l.edges, edge{ref: ref, mode: ev.Edge})
		l.refs = append(l.refs, ref)
	}
	return l, nil
}

// await suspends until one of the list's edges fires. It reports false
// when the simulator shut down.
func (p *astProc) await(l *eventList) bool {
	for {
		for i := range l.edges {
			l.edges[i].prev = p.e.Probe(l.edges[i].ref).Bits
		}
		if !p.suspend(yieldMsg{refs: l.refs}) {
			return false
		}
		for _, ed := range l.edges {
			now := p.e.Probe(ed.ref).Bits
			switch ed.mode {
			case "posedge":
				if ed.prev == 0 && now != 0 {
					return true
				}
			case "negedge":
				if ed.prev != 0 && now == 0 {
					return true
				}
			default:
				if ed.prev != now {
					return true
				}
			}
		}
	}
}

// ffLoop waits for the configured edges, then runs the body.
func (p *astProc) ffLoop() {
	for p.await(p.events) {
		c, err := p.exec(p.blk.Body)
		if err != nil || c == ctrlFinish {
			p.finish(c, err)
			return
		}
		if c == ctrlStop {
			return
		}
	}
}
