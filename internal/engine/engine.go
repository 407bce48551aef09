package engine

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"llhd/internal/faultinject"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// Process is a simulation actor: an LLHD process instance (interpreted or
// compiled) or an entity's reactive body. The engine calls Init once at
// time zero and Wake every time the process's sensitivity set fires or its
// wait timeout expires.
//
// Every implementation embeds ProcHandle, which stores the ProcID the
// engine assigns in AddProcess; the scheduling entry points (Subscribe,
// ScheduleWake, Halt) take that ID and are O(1) in the number of
// registered processes.
type Process interface {
	// Name returns the hierarchical instance name for diagnostics.
	Name() string
	// Init runs the process until its first suspension.
	Init(e *Engine)
	// Wake resumes the process after a sensitivity or timeout event.
	Wake(e *Engine)
	// SetProcID stores the engine-assigned handle (see ProcHandle).
	SetProcID(id ProcID)
}

// ProcID is the dense index handle of a registered process. It is assigned
// by AddProcess and used by Subscribe, ScheduleWake, and Halt for O(1)
// dispatch.
type ProcID int32

// NoProc is the handle of a process that was never registered.
const NoProc ProcID = -1

// ProcHandle is the embeddable implementation of the Process identity
// methods. AddProcess stores the assigned ProcID into it; ProcID() hands it
// back for the scheduling calls. The zero ProcHandle reports NoProc, so a
// process that skipped AddProcess fails loudly instead of aliasing the
// first registered process.
type ProcHandle struct{ idPlus1 ProcID }

// SetProcID records the engine-assigned handle.
func (h *ProcHandle) SetProcID(id ProcID) { h.idPlus1 = id + 1 }

// ProcID returns the engine-assigned handle, or NoProc before AddProcess.
func (h *ProcHandle) ProcID() ProcID { return h.idPlus1 - 1 }

// procEntry tracks one registered process and its scheduling state.
type procEntry struct {
	proc Process
	// oneShot: the sensitivity is consumed by the wake it causes (processes
	// re-arm at each wait). Entities keep their sensitivity forever.
	oneShot bool
	// gen is the generation the process's sensitivity entries and pending
	// timeout were armed under. Subscribe, a one-shot wake and Halt each
	// start a new one, which retires every entry and timeout of the old:
	// a subscription or wake event counts only while its gen equals this.
	gen uint64
	// wakeStamp marks the step in which the entry was last queued to wake,
	// deduplicating sensitivity hits and timeouts without a per-step map.
	wakeStamp uint64
}

// event is a scheduled state change or wakeup. Events live inline in their
// time slot's slice: scheduling appends, never allocates per event.
type event struct {
	// Drive events.
	ref   SigRef
	value val.Value

	// Wake events (wait timeouts).
	isWake bool
	proc   ProcID
	gen    uint64
}

// timeSlot is the bucket of all events scheduled for one (fs, delta, eps)
// instant. Slots are pooled and their event slices reused, so steady-state
// scheduling is allocation-free.
type timeSlot struct {
	time   ir.Time
	events []event
}

// TraceEntry records one observed signal value change.
type TraceEntry struct {
	Time  ir.Time
	Sig   *Signal
	Value val.Value
}

// Observer receives streamed signal-change notifications. After each time
// instant the engine delivers exactly one OnChange per signal that changed
// during the instant, carrying the settled value, in ascending signal-ID
// order (the same deterministic contract as the wake order, pinned by
// TestObserverSignalIDOrder and, for instants wider than 32 changes,
// TestWideInstantOrder). Callbacks run synchronously on the
// simulation goroutine, before the instant's processes wake.
//
// Value payloads are immutable (see val.Value): observers may retain the
// value freely, no clone needed.
type Observer interface {
	OnChange(t ir.Time, sig *Signal, v val.Value)
}

// obsEntry is one attached observer plus its signal subscription: either
// every signal (all) or the dense per-signal-ID mask.
type obsEntry struct {
	obs  Observer
	all  bool
	mask []bool // indexed by Signal.ID; nil when all
}

// TraceObserver is the buffering compatibility observer: it accumulates
// every change as a TraceEntry, preserving the retired Engine.Trace shape
// for trace-diffing tests and tools. Values are stored as delivered, so
// buffering a run allocates nothing beyond the slice growth (pinned by
// TestObservedWakeHotPathAllocFree).
//
// The buffer grows without bound; long-running simulations should stream
// through a purpose-built Observer (e.g. internal/vcd) instead.
type TraceObserver struct {
	Entries []TraceEntry
}

// OnChange implements Observer.
func (o *TraceObserver) OnChange(t ir.Time, sig *Signal, v val.Value) {
	o.Entries = append(o.Entries, TraceEntry{Time: t, Sig: sig, Value: v})
}

// Engine is the discrete-event simulation kernel. The queue is two-level:
// a binary heap orders only the distinct future time instants, and each
// instant owns an append-only bucket of its events. Same-instant
// scheduling is therefore O(1) (one map lookup + append) instead of a heap
// push per event.
type Engine struct {
	Now ir.Time

	signals []*Signal
	byName  map[string]*Signal // lazy name index for SignalByName
	procs   []procEntry

	// slots deduplicates pending instants, but hashing an ir.Time key on
	// every schedule and pop costs more than the typical heap is worth:
	// most designs keep only a handful of distinct future instants in
	// flight. slotFor therefore scans the heap linearly while it is at
	// most slotScanMax wide and lets the map go stale (slotsStale);
	// crossing the threshold rebuilds the map once from the heap.
	slots      map[ir.Time]*timeSlot // instant -> pending bucket
	slotsStale bool                  // slots diverged during linear-scan mode
	lastSlot   *timeSlot             // one-entry cache for same-instant bursts
	heap       []*timeSlot           // min-heap on slot time
	slotPool   []*timeSlot           // retired slots for reuse
	pending    int                   // scheduled-but-unapplied events

	// Per-step scratch, reused across steps. stamp is the generation
	// counter that replaces per-step changed/woken maps. changedBits holds
	// one bit per signal ID for ordering wide instants (orderWide); it is
	// all-zero outside Step.
	stamp          uint64
	changedScratch []*Signal
	changedBits    []uint64
	wakeScratch    []ProcID

	// Attached observers and their combined subscription. obsAny is the
	// dense per-signal-ID mask consulted once per changed signal; obsAll
	// counts observers subscribed to every signal (including signals
	// registered after Observe). With no observers the wake path pays a
	// single length check and never allocates.
	observers []obsEntry
	obsAny    []bool
	obsAll    int

	// OnAssert is called for llhd.assert intrinsic failures. The default
	// records the failure in Failures.
	OnAssert func(name string, t ir.Time)
	// Failures counts assertion failures.
	Failures int

	// Display receives llhd.display intrinsic output; nil discards.
	Display func(s string)

	// StepLimit, when positive, bounds the total number of time instants
	// the engine may execute: exceeding it records a runtime error and
	// stops the run. Unlike a wall-clock timeout it is deterministic, so
	// differential harnesses use it to turn runaway simulations (delta
	// storms, oscillating feedback introduced by a miscompile) into a
	// reproducible failure instead of a hang.
	StepLimit int

	// Resource governance. All four limits are polled only at batch
	// boundaries (every GovernBatch instants inside Run, and at each
	// RunBudget call), never per event or per wake: the hot paths pay
	// nothing for governance. StepLimit above is the exception — it is a
	// single integer compare per instant and stays in Step for exactness.
	//
	// Ctx, when non-nil, cancels the run: cancellation is classified
	// ErrCanceled (or ErrDeadline for a context deadline) with ctx.Err()
	// as the cause. Deadline, when non-zero, is a wall-clock bound checked
	// against time.Now. EventLimit, when positive, bounds applied plus
	// currently queued events. MemLimit, when positive, is an approximate
	// heap watermark (runtime.ReadMemStats HeapAlloc), read only at batch
	// granularity because ReadMemStats is expensive.
	Ctx        context.Context
	Deadline   time.Time
	EventLimit int
	MemLimit   uint64
	// GovernBatch is the polling granularity in instants; 0 means the
	// DefaultGovernBatch. Tests shrink it to make polls prompt.
	GovernBatch int

	// FaultHook, when non-nil, is invoked at every scheduling point with
	// the point's category; a returned error is recorded as the engine's
	// runtime error, and a panic propagates to the containment layer
	// above. It exists for the deterministic fault-injection harness
	// (internal/faultinject) and is only ever installed by test binaries;
	// when nil each site costs one comparison.
	FaultHook func(faultinject.Point) error

	// running is the ProcID of the process currently being initialized or
	// woken, NoProc between wakes; RuntimeError diagnostics resolve it to
	// a name. It is a plain int store on the wake path.
	running ProcID

	err        error
	DeltaCount int // executed delta steps, for statistics
	EventCount int // applied events, for statistics
}

// DefaultGovernBatch is the default governance polling granularity: the
// number of instants executed between quota/cancellation checks. 4096
// keeps both the per-batch overhead and the cancellation latency
// negligible.
const DefaultGovernBatch = 4096

// New returns an empty engine.
func New() *Engine {
	e := &Engine{slots: map[ir.Time]*timeSlot{}, running: NoProc}
	e.OnAssert = func(string, ir.Time) { e.Failures++ }
	return e
}

// Err returns the first runtime error encountered, if any. It is sticky:
// once set, Run, RunBudget, and Step refuse to execute further work.
func (e *Engine) Err() error { return e.err }

// SetError records a runtime error; the first error wins and stops Run.
// Errors that are not already a *RuntimeError are classified (Classify)
// and wrapped with the engine's current scheduling context, so every
// error Err returns carries the taxonomy.
func (e *Engine) SetError(err error) {
	if e.err != nil || err == nil {
		return
	}
	if _, ok := err.(*RuntimeError); ok {
		e.err = err
		return
	}
	e.err = e.Capture(Classify(err), err, nil, nil)
}

// RunningProc names the process currently being initialized or woken, ""
// when the engine is between process executions.
func (e *Engine) RunningProc() string {
	if e.running >= 0 && int(e.running) < len(e.procs) {
		return e.procs[e.running].proc.Name()
	}
	return ""
}

// governed reports whether any batch-granularity governance (or the
// fault-injection hook, which shares the batch poll) is configured.
func (e *Engine) governed() bool {
	return e.Ctx != nil || !e.Deadline.IsZero() ||
		e.EventLimit > 0 || e.MemLimit > 0 || e.FaultHook != nil
}

func (e *Engine) governBatch() int {
	if e.GovernBatch > 0 {
		return e.GovernBatch
	}
	return DefaultGovernBatch
}

// pollGovernance runs one batch-boundary check of every configured
// limit, recording the first violation as a classified RuntimeError. It
// reports whether the run may continue.
func (e *Engine) pollGovernance() bool {
	if e.err != nil {
		return false
	}
	if e.FaultHook != nil {
		if err := e.FaultHook(faultinject.PointBatch); err != nil {
			e.SetError(err)
			return false
		}
	}
	if e.Ctx != nil {
		if err := e.Ctx.Err(); err != nil {
			e.SetError(e.Capture(Classify(err), err, nil, nil))
			return false
		}
	}
	if !e.Deadline.IsZero() && time.Now().After(e.Deadline) {
		e.SetError(e.Capture(ErrDeadline,
			fmt.Errorf("engine: wall-clock deadline passed at %v (%d instants executed)",
				e.Now, e.DeltaCount), nil, nil))
		return false
	}
	if e.EventLimit > 0 && e.EventCount+e.pending > e.EventLimit {
		e.SetError(e.Capture(ErrEventLimit,
			fmt.Errorf("engine: event limit of %d exceeded at %v (%d applied, %d queued)",
				e.EventLimit, e.Now, e.EventCount, e.pending), nil, nil))
		return false
	}
	if e.MemLimit > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > e.MemLimit {
			e.SetError(e.Capture(ErrMemoryLimit,
				fmt.Errorf("engine: heap watermark %d bytes exceeds the %d byte limit at %v (%d events queued)",
					ms.HeapAlloc, e.MemLimit, e.Now, e.pending), nil, nil))
			return false
		}
	}
	return true
}

// NewSignal registers a new signal net with the given initial value.
func (e *Engine) NewSignal(name string, ty *ir.Type, init val.Value) *Signal {
	s := &Signal{ID: len(e.signals), Name: name, Type: ty, value: init}
	e.signals = append(e.signals, s)
	if s.ID>>6 == len(e.changedBits) {
		e.changedBits = append(e.changedBits, 0)
	}
	if e.byName != nil {
		if _, dup := e.byName[name]; !dup {
			e.byName[name] = s
		}
	}
	return s
}

// Signals returns all elaborated signals in creation order.
func (e *Engine) Signals() []*Signal { return e.signals }

// SignalByName finds a signal by hierarchical name, or nil. The name index
// is built lazily on first use; duplicated names resolve to the first
// signal registered under them, matching the previous linear scan.
func (e *Engine) SignalByName(name string) *Signal {
	if e.byName == nil {
		e.byName = make(map[string]*Signal, len(e.signals))
		for _, s := range e.signals {
			if _, dup := e.byName[s.Name]; !dup {
				e.byName[s.Name] = s
			}
		}
	}
	return e.byName[name]
}

// Observe attaches an observer. With no signals listed the observer
// receives every change, including changes of signals registered after the
// call; otherwise only changes of the listed signals are delivered. See
// Observer for the delivery contract.
func (e *Engine) Observe(obs Observer, sigs ...*Signal) {
	en := obsEntry{obs: obs}
	if len(sigs) == 0 {
		en.all = true
		e.obsAll++
	} else {
		// The union mask must cover every signal registered so far, not
		// just those known at the first masked Observe.
		en.mask = make([]bool, len(e.signals))
		for len(e.obsAny) < len(e.signals) {
			e.obsAny = append(e.obsAny, false)
		}
		for _, s := range sigs {
			if s == nil || s.ID >= len(en.mask) {
				continue
			}
			en.mask[s.ID] = true
			e.obsAny[s.ID] = true
		}
	}
	e.observers = append(e.observers, en)
}

// notifyObservers streams the instant's settled changes, in the signal-ID
// order Step put changed into. It is kept out of Step's inlineable body:
// the no-observer hot path pays only the length check at the call site.
func (e *Engine) notifyObservers(now ir.Time, changed []*Signal) {
	for _, sig := range changed {
		if e.obsAll == 0 && (sig.ID >= len(e.obsAny) || !e.obsAny[sig.ID]) {
			continue
		}
		for i := range e.observers {
			en := &e.observers[i]
			if en.all || (sig.ID < len(en.mask) && en.mask[sig.ID]) {
				en.obs.OnChange(now, sig, sig.value)
			}
		}
	}
}

// AddProcess registers a simulation actor and hands it its ProcID.
// Entities pass oneShot=false to keep their sensitivity permanently armed.
func (e *Engine) AddProcess(p Process, oneShot bool) ProcID {
	id := ProcID(len(e.procs))
	e.procs = append(e.procs, procEntry{proc: p, oneShot: oneShot})
	p.SetProcID(id)
	return id
}

func (e *Engine) entryAt(id ProcID, op string) *procEntry {
	if id < 0 || int(id) >= len(e.procs) {
		e.SetError(fmt.Errorf("engine: %s with invalid ProcID %d", op, id))
		return nil
	}
	return &e.procs[id]
}

// Subscribe replaces the process's sensitivity: it starts a new generation,
// which retires whatever the process had armed before (entries and
// timeout alike), and arms the process on the given signals. For one-shot
// processes the subscription is consumed by the next wake.
func (e *Engine) Subscribe(id ProcID, refs []SigRef) {
	pe := e.entryAt(id, "Subscribe")
	if pe == nil {
		return
	}
	pe.gen++
	sub := subscription{proc: id, gen: pe.gen}
	for _, r := range refs {
		s := r.Sig
		if len(s.subscribers) == cap(s.subscribers) {
			s.subscribers = e.sweep(s.subscribers)
		}
		s.subscribers = append(s.subscribers, sub)
	}
}

// sweep makes room in a full subscriber list: it drops the stale entries
// and grows the list only if that freed less than half of it. Step never
// walks a signal that never changes (a reset), so this is what bounds its
// list, at 2n+1 entries for n processes armed on it; the half-free rule
// keeps sweeping amortized O(1) per entry armed.
func (e *Engine) sweep(subs []subscription) []subscription {
	live := subs[:0]
	for _, sub := range subs {
		if sub.gen == e.procs[sub.proc].gen {
			live = append(live, sub)
		}
	}
	if 2*len(live) >= cap(live) {
		live = append(make([]subscription, 0, 2*len(live)+1), live...)
	}
	return live
}

// ScheduleWake schedules a timeout wake for the process after the delay.
func (e *Engine) ScheduleWake(id ProcID, delay ir.Time) {
	pe := e.entryAt(id, "ScheduleWake")
	if pe == nil {
		return
	}
	e.schedule(e.Now.Add(delay), event{isWake: true, proc: id, gen: pe.gen})
}

// Halt permanently retires the process: a new generation with nothing
// armed under it, so the process is never handed to Wake again.
func (e *Engine) Halt(id ProcID) {
	if pe := e.entryAt(id, "Halt"); pe != nil {
		pe.gen++
	}
}

// Drive schedules a value change on the referenced signal part after the
// delay. A zero physical delay lands in the next delta step, preserving
// HDL nonblocking-assignment semantics.
func (e *Engine) Drive(r SigRef, v val.Value, delay ir.Time) {
	t := e.Now.Add(delay)
	if delay.IsZero() {
		t = e.Now.Add(ir.Time{Delta: 1})
	}
	s := e.slotFor(t)
	s.events = append(s.events, event{ref: r, value: v})
	e.pending++
}

// schedule appends the event to its instant's bucket, creating (or
// recycling) the bucket if this is the first event at that instant.
func (e *Engine) schedule(t ir.Time, ev event) {
	s := e.slotFor(t)
	s.events = append(s.events, ev)
	e.pending++
}

// slotScanMax is the heap width up to which slotFor dedups pending
// instants by scanning the heap instead of hashing into the slots map.
const slotScanMax = 32

// slotFor finds or creates the bucket for the instant, keeping the
// one-entry cache warm for same-instant bursts. Callers append their event
// directly into the returned slot so the 72-byte event struct is copied
// exactly once.
func (e *Engine) slotFor(t ir.Time) *timeSlot {
	if s := e.lastSlot; s != nil && s.time == t {
		return s
	}
	var s *timeSlot
	if len(e.heap) <= slotScanMax {
		for _, c := range e.heap {
			if c.time == t {
				s = c
				break
			}
		}
	} else {
		if e.slotsStale {
			clear(e.slots)
			for _, c := range e.heap {
				e.slots[c.time] = c
			}
			e.slotsStale = false
		}
		s = e.slots[t]
	}
	if s == nil {
		if n := len(e.slotPool); n > 0 {
			s = e.slotPool[n-1]
			e.slotPool = e.slotPool[:n-1]
		} else {
			s = &timeSlot{}
		}
		s.time = t
		if len(e.heap) < slotScanMax {
			e.slotsStale = true
		} else if !e.slotsStale {
			e.slots[t] = s
		}
		e.heapPush(s)
	}
	e.lastSlot = s
	return s
}

func (e *Engine) releaseSlot(s *timeSlot) {
	clear(s.events) // drop value references so the pool retains no data
	s.events = s.events[:0]
	e.slotPool = append(e.slotPool, s)
}

// heapPush and heapPop maintain the min-heap of time slots without the
// interface indirection of container/heap.
func (e *Engine) heapPush(s *timeSlot) {
	h := append(e.heap, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].time.Compare(h[i].time) <= 0 {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	e.heap = h
}

func (e *Engine) heapPop() *timeSlot {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].time.Compare(h[small].time) < 0 {
			small = l
		}
		if r < n && h[r].time.Compare(h[small].time) < 0 {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	e.heap = h
	return top
}

// Step advances the engine by one time instant (one (fs, delta, eps)
// point), applying all events scheduled for it and waking sensitive
// processes. It reports whether any work remains.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 || e.err != nil {
		return false
	}
	if e.StepLimit > 0 && e.DeltaCount >= e.StepLimit {
		e.SetError(e.Capture(ErrStepLimit,
			fmt.Errorf("engine: step limit of %d instants exceeded at %v (livelock?)", e.StepLimit, e.Now),
			nil, nil))
		return false
	}
	if e.FaultHook != nil {
		if err := e.FaultHook(faultinject.PointStep); err != nil {
			e.SetError(err)
			return false
		}
	}
	e.running = NoProc
	slot := e.heapPop()
	if !e.slotsStale {
		delete(e.slots, slot.time)
	}
	if e.lastSlot == slot {
		e.lastSlot = nil
	}
	now := slot.time
	e.Now = now
	e.DeltaCount++
	e.stamp++

	// Apply drives in schedule order; wake events are handled below.
	changed := e.changedScratch[:0]
	for i := range slot.events {
		ev := &slot.events[i]
		e.EventCount++
		e.pending--
		if ev.isWake {
			continue
		}
		// Scalar fast path: a whole-signal two-state drive compares and
		// writes Width/Bits in place, skipping the inject/Eq copy chain.
		// A stale payload pointer on the signal stays inert because every
		// consumer switches on Kind first (the same rule blaze's in-place
		// stores rely on).
		if sig := ev.ref.Sig; len(ev.ref.Path) == 0 &&
			ev.value.Kind == val.KindInt && sig.value.Kind == val.KindInt {
			if sig.value.Width != ev.value.Width || sig.value.Bits != ev.value.Bits {
				sig.value.Width = ev.value.Width
				sig.value.Bits = ev.value.Bits
				if sig.changeStamp != e.stamp {
					sig.changeStamp = e.stamp
					changed = append(changed, sig)
				}
			}
			continue
		}
		newWhole, err := inject(ev.ref.Sig.value, ev.value, ev.ref.Path)
		if err != nil {
			e.SetError(e.Capture(ErrInternal, fmt.Errorf("drive %s: %w", ev.ref.Sig.Name, err), nil, nil))
			e.pending -= len(slot.events) - i - 1 // discarded with the slot
			e.changedScratch = changed
			e.releaseSlot(slot)
			return false
		}
		if !newWhole.Eq(ev.ref.Sig.value) {
			sig := ev.ref.Sig
			sig.value = newWhole
			if sig.changeStamp != e.stamp {
				sig.changeStamp = e.stamp
				changed = append(changed, sig)
			}
		}
	}
	// Deterministic wake order: sensitivity hits in signal-ID order first,
	// then timeouts in schedule order. Typical instants change a handful
	// of signals, where an in-place insertion sort is cheapest; wide
	// instants read the order off a bitmap over signal IDs (orderWide) to
	// stay out of O(n^2).
	if len(changed) <= 32 {
		for i := 1; i < len(changed); i++ {
			for j := i; j > 0 && changed[j-1].ID > changed[j].ID; j-- {
				changed[j-1], changed[j] = changed[j], changed[j-1]
			}
		}
	} else {
		changed = e.orderWide(changed)
	}
	e.changedScratch = changed

	// Stream the settled changes before any process wakes: observers see
	// exactly the state the wakes below will react to. One callback per
	// changed signal per instant, in the signal-ID order established above.
	if len(e.observers) != 0 {
		e.notifyObservers(now, changed)
	}

	// Queue the live subscribers of every changed signal, dropping the
	// stale entries on the way; live ones keep their relative order.
	toWake := e.wakeScratch[:0]
	for _, sig := range changed {
		subs, n := sig.subscribers, 0
		for _, sub := range subs {
			pe := &e.procs[sub.proc]
			if sub.gen != pe.gen {
				continue // consumed, superseded, or halted since it was armed
			}
			subs[n] = sub
			n++
			if pe.wakeStamp != e.stamp {
				pe.wakeStamp = e.stamp
				toWake = append(toWake, sub.proc)
			}
		}
		sig.subscribers = subs[:n]
	}
	for i := range slot.events {
		ev := &slot.events[i]
		if !ev.isWake {
			continue
		}
		pe := &e.procs[ev.proc]
		if ev.gen != pe.gen || pe.wakeStamp == e.stamp {
			continue // stale timeout: the process re-armed or halted since
		}
		pe.wakeStamp = e.stamp
		toWake = append(toWake, ev.proc)
	}
	e.wakeScratch = toWake
	e.releaseSlot(slot)

	for _, id := range toWake {
		pe := &e.procs[id]
		if pe.oneShot {
			pe.gen++ // consume the subscription and the pending timeout
		}
		if e.FaultHook != nil {
			if err := e.FaultHook(faultinject.PointWake); err != nil {
				e.SetError(err)
				return false
			}
		}
		e.running = id
		pe.proc.Wake(e)
		e.running = NoProc
		if e.err != nil {
			return false
		}
	}
	return len(e.heap) > 0
}

// orderWide returns changed, a set of distinct signals, in ascending ID
// order without comparing two of them: one bit per signal goes into
// changedBits, then the words between the lowest and the highest touched
// are read back in order, TrailingZeros64 naming each ID, and the set
// ones zeroed as they are read. The cost is O(len(changed) + span/64),
// span being the distance between the lowest and the highest ID: no
// comparator and no pointer swaps (WideSparse in BenchmarkEngineKernel is
// the span-bound case). The scan relies on e.signals[id].ID == id, which
// NewSignal establishes.
func (e *Engine) orderWide(changed []*Signal) []*Signal {
	lo, hi := len(e.changedBits), 0
	for _, sig := range changed {
		w := sig.ID >> 6
		e.changedBits[w] |= 1 << (sig.ID & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	changed = changed[:0]
	for w := lo; w <= hi; w++ {
		word := e.changedBits[w]
		if word == 0 {
			continue
		}
		e.changedBits[w] = 0
		for word != 0 {
			changed = append(changed, e.signals[w<<6|bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return changed
}

// Init runs every registered process once, in registration order, at time
// zero. Call it exactly once before Run or Step.
func (e *Engine) Init() {
	for i := range e.procs {
		if e.err != nil {
			return
		}
		if e.FaultHook != nil {
			if err := e.FaultHook(faultinject.PointInit); err != nil {
				e.SetError(err)
				return
			}
		}
		e.running = ProcID(i)
		e.procs[i].proc.Init(e)
		e.running = NoProc
		if e.err != nil {
			return
		}
	}
}

// Run simulates until the event queue drains or physical time exceeds
// limit (limit.Fs == 0 means no limit). It returns the number of time
// instants executed: each counts exactly once, including the final one.
// The run is a sequence of RunBudget batches of GovernBatch instants;
// configured governance (context, deadline, event or memory limit) is
// polled at each batch boundary, and an ungoverned engine pays one
// predictable branch per batch for it.
func (e *Engine) Run(limit ir.Time) int {
	start := e.DeltaCount
	for e.RunBudget(limit, e.governBatch()) {
	}
	return e.DeltaCount - start
}

// RunBudget simulates like Run but executes at most budget time instants,
// so callers (the session farm) can interleave cancellation checks with
// batches of work. It reports whether runnable work remains within the
// limit. Configured governance limits are polled once per call — this is
// the batch boundary of the governance contract; the per-instant
// execution path is identical to Run's.
func (e *Engine) RunBudget(limit ir.Time, budget int) (more bool) {
	if e.governed() && !e.pollGovernance() {
		return false
	}
	for budget > 0 && len(e.heap) > 0 && e.err == nil {
		if limit.Fs > 0 && e.heap[0].time.Fs > limit.Fs {
			return false
		}
		e.Step()
		budget--
	}
	return len(e.heap) > 0 && e.err == nil &&
		!(limit.Fs > 0 && e.heap[0].time.Fs > limit.Fs)
}

// PendingEvents reports the number of scheduled events.
func (e *Engine) PendingEvents() int { return e.pending }
