package llhd

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"
	"time"

	"llhd/internal/assembly"
	"llhd/internal/blaze"
	"llhd/internal/engine"
	"llhd/internal/faultinject"
	"llhd/internal/moore"
	"llhd/internal/sim"
	"llhd/internal/svsim"
	"llhd/internal/val"
	"llhd/internal/vcd"
)

// Value is a runtime signal value (integer, time, nine-valued logic
// vector, or aggregate).
type Value = val.Value

// Signal is one elaborated signal net, identified by its hierarchical
// path name (e.g. "acc_tb.q").
type Signal = engine.Signal

// Observer receives streamed signal-change notifications: exactly one
// OnChange per changed signal per time instant, carrying the settled
// value, in deterministic signal-ID order. Value payloads are immutable:
// an observer may keep the values it is handed.
type Observer = engine.Observer

// TraceEntry is one buffered signal change.
type TraceEntry = engine.TraceEntry

// TraceObserver is the buffering observer: it accumulates every change in
// memory. Prefer a streaming Observer (or WithVCD) for long runs.
type TraceObserver = engine.TraceObserver

// EngineKind selects the simulation engine a Session runs on.
type EngineKind int

// The three engines of the paper's §6.1 evaluation.
const (
	// Interp is the reference interpreter (LLHD-Sim): a tree-walking
	// interpreter over the IR.
	Interp EngineKind = iota
	// Blaze is the compiled simulator (the LLHD-Blaze analog): units are
	// lowered ahead of time to flat bytecode and executed by a threaded
	// dispatch loop.
	Blaze
	// SVSim is the AST-level SystemVerilog simulator (the commercial
	// substitute of Table 2): it executes the source directly, with no
	// LLHD IR in between, and requires FromSystemVerilog input.
	SVSim
)

// String names the engine as in Table 2.
func (k EngineKind) String() string {
	switch k {
	case Interp:
		return "interp"
	case Blaze:
		return "blaze"
	case SVSim:
		return "svsim"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngineKind reads the CLI spelling of an engine name.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "interp", "int", "sim":
		return Interp, nil
	case "blaze":
		return Blaze, nil
	case "svsim", "sv":
		return SVSim, nil
	}
	return Interp, fmt.Errorf("llhd: unknown engine %q (want interp, blaze, or svsim)", s)
}

// CompiledDesign is an immutable, compile-once blaze artifact: the whole
// design hierarchy lowered to bytecode, shared read-only by every session
// built from it (serial or concurrent). Produce one with CompileBlaze and
// hand it to sessions via FromCompiled.
type CompiledDesign = blaze.CompiledDesign

// BlazeTier and TierBytecode are residue of the retired closure tier: a
// one-constant type kept only as the tier argument of the DesignCache
// Load methods, which benchmark/layers.go passes. A benchmark-only PR
// removes both together with that argument.
type BlazeTier = blaze.Tier

// TierBytecode is the only BlazeTier.
const TierBytecode = blaze.TierBytecode

// CompileBlaze compiles the module once for the blaze engine and freezes
// it (Module.Freeze — structural mutation afterwards panics); a failed
// compile leaves it unfrozen. The returned design is safe to share across
// concurrently running sessions; per-session state (event queue, signals,
// register files) is created at NewSession time. When top is empty the
// module's last entity is used.
func CompileBlaze(m *Module, top string) (*CompiledDesign, error) {
	d, err := prepare(&sessionConfig{designInput: designInput{module: m, top: top, backend: Blaze}})
	if err != nil {
		return nil, err
	}
	return d.compiled, nil
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig)

type observerSub struct {
	obs   Observer
	paths []string
}

// designInput is the part of a configuration prepare reads. It is
// comparable: configurations with equal inputs prepare to interchangeable
// designs, which is how the farm prepares each shared design once.
type designInput struct {
	module     *Module
	source     string
	hasSource  bool
	compiled   *CompiledDesign
	cache      *DesignCache
	top        string
	backend    EngineKind
	backendSet bool
}

type sessionConfig struct {
	designInput

	observers []observerSub
	vcdOuts   []io.Writer
	display   func(string)
	onAssert  func(name string, t Time)
	stepLimit int

	// Resource governance (see the With* options). All polled at batch
	// granularity by the engine; zero values mean unlimited.
	ctx        context.Context
	deadline   time.Time
	eventLimit int
	memLimit   uint64

	// Test-only knobs: the fault-injection hook, the governance batch
	// size, and the probe that counts prepare's phases. Installed
	// exclusively through options defined in _test.go files (see
	// internal/faultinject).
	faultHook   func(faultinject.Point) error
	governBatch int
	phaseHook   func(phase string)
}

// newConfig applies the options to an empty configuration.
func newConfig(opts []SessionOption) *sessionConfig {
	cfg := &sessionConfig{}
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}

// FromModule simulates an already-built LLHD module (parsed assembly,
// decoded bitcode, or a previous CompileSystemVerilog result). Not valid
// with Backend(SVSim), which needs the SystemVerilog source.
func FromModule(m *Module) SessionOption {
	return func(c *sessionConfig) { c.module = m }
}

// FromSystemVerilog simulates SystemVerilog source. The Interp and Blaze
// engines compile it to LLHD through the Moore frontend; SVSim executes
// the source AST directly.
func FromSystemVerilog(src string) SessionOption {
	return func(c *sessionConfig) { c.source = src; c.hasSource = true }
}

// FromCompiled simulates a precompiled blaze design (CompileBlaze). The
// compiled code is immutable and shared: any number of sessions — serial
// or concurrent — may be built from one CompiledDesign. Implies
// Backend(Blaze); combining it with another explicit backend is an error.
func FromCompiled(cd *CompiledDesign) SessionOption {
	return func(c *sessionConfig) { c.compiled = cd }
}

// Top names the top unit (LLHD) or module (SystemVerilog) to elaborate.
// When omitted on module input, the last entity in the module is used.
func Top(name string) SessionOption {
	return func(c *sessionConfig) { c.top = name }
}

// Backend selects the simulation engine; the default is Interp.
func Backend(k EngineKind) SessionOption {
	return func(c *sessionConfig) { c.backend = k; c.backendSet = true }
}

// WithObserver attaches a streaming observer. With no paths it receives
// every signal change; otherwise only changes of the named signals
// (hierarchical paths, resolved after elaboration — unknown paths are an
// error from NewSession).
func WithObserver(obs Observer, paths ...string) SessionOption {
	return func(c *sessionConfig) {
		c.observers = append(c.observers, observerSub{obs: obs, paths: paths})
	}
}

// WithVCD streams the simulation as a Value Change Dump waveform to w.
// The header is written during NewSession; the stream is flushed by Run,
// RunUntil, and Finish. The caller owns (and closes) w.
func WithVCD(w io.Writer) SessionOption {
	return func(c *sessionConfig) { c.vcdOuts = append(c.vcdOuts, w) }
}

// WithDisplay routes $display/llhd.display output to f; the default
// discards it.
func WithDisplay(f func(string)) SessionOption {
	return func(c *sessionConfig) { c.display = f }
}

// WithAssertHandler replaces the default assertion-failure handling
// (counting into Finish.AssertionFailures) with f.
func WithAssertHandler(f func(name string, t Time)) SessionOption {
	return func(c *sessionConfig) { c.onAssert = f }
}

// WithStepLimit bounds the session to n time instants (delta cycles
// included): exceeding the budget stops the run with an error matching
// ErrStepLimit. Unlike a wall-clock timeout the bound is deterministic,
// which is what the differential fuzzing harness needs — a miscompile
// that oscillates forever becomes a reproducible failure instead of a
// hang. Zero or negative n means unlimited (the default).
func WithStepLimit(n int) SessionOption {
	return func(c *sessionConfig) { c.stepLimit = n }
}

// WithContext subjects the session to the context: when ctx is cancelled
// the run stops with an error matching ErrCanceled (ErrDeadline for a
// context deadline) and, through its cause, ctx.Err(). Cancellation is
// polled at batch granularity (a few thousand instants), never per
// event, so the hot paths are unaffected; a long-running simulation
// stops within one batch of the cancellation.
func WithContext(ctx context.Context) SessionOption {
	return func(c *sessionConfig) { c.ctx = ctx }
}

// WithDeadline bounds the session by wall-clock time: once t passes, the
// run stops with an error matching ErrDeadline. Like all governance it
// is polled at batch granularity. For a deterministic bound prefer
// WithStepLimit; the deadline is the backstop against livelocks whose
// instants are individually slow.
func WithDeadline(t time.Time) SessionOption {
	return func(c *sessionConfig) { c.deadline = t }
}

// WithEventLimit bounds the total event traffic — applied events plus
// the current queue depth — to n: exceeding it stops the run with an
// error matching ErrEventLimit. The quota is checked at batch
// granularity, so a run may overshoot by the events of one batch. Zero
// or negative n means unlimited (the default).
func WithEventLimit(n int) SessionOption {
	return func(c *sessionConfig) {
		if n > 0 {
			c.eventLimit = n
		}
	}
}

// WithMemoryLimit bounds the session by an approximate process-heap
// watermark: when runtime.ReadMemStats reports more than limit bytes of
// live heap at a batch boundary, the run stops with an error matching
// ErrMemoryLimit. The watermark is process-wide and approximate — it
// exists to stop a pathological design from exhausting the host, not to
// meter a session precisely. Zero means unlimited (the default).
func WithMemoryLimit(limit uint64) SessionOption {
	return func(c *sessionConfig) { c.memLimit = limit }
}

// Finish is the final statistics of a simulation session.
type Finish struct {
	// Now is the simulation time the session stopped at.
	Now Time
	// DeltaSteps counts executed time instants (delta cycles included).
	DeltaSteps int
	// Events counts applied queue events (drives and timeout wakes).
	Events int
	// AssertionFailures counts failed llhd.assert / SV assert checks.
	AssertionFailures int
}

// Session is the single entry point for running and observing a
// simulation, engine-agnostically: the same object drives the reference
// interpreter, the compiled simulator, and the AST-level SystemVerilog
// engine. Construct it with NewSession, then either batch-run (Run,
// RunUntil) or single-step (Step), probe signals at any point, and call
// Finish to collect statistics and release engine resources.
//
// The session is a containment boundary: a panic anywhere below it — in
// the kernel, an engine, or code a malformed design provoked — never
// escapes Run, RunUntil, Step, Probe, or Finish. It is recovered,
// converted into a *RuntimeError carrying the simulation context (kind
// ErrInternal, the recovered value, the stack, the failing instant and
// process), and the session becomes poisoned: every subsequent call
// returns the same sticky error (also available as Err), Finish still
// reports the statistics accumulated up to the failure, and attached VCD
// writers are flushed so the waveform is well-formed up to the failure
// instant. Classified quota errors (ErrStepLimit, ErrDeadline, ...) are
// equally sticky, recorded by the engine itself.
//
// A Session is not safe for concurrent use.
type Session struct {
	eng     *engine.Engine
	sv      *svsim.Simulator // SVSim backend, for coroutine shutdown
	vcd     []flusher
	inited  bool
	stopped bool
	err     error // first deferred error (e.g. a VCD flush in Finish)
	fatal   error // sticky poisoning error from a contained panic
}

type flusher interface{ Flush() error }

// NewSession elaborates a design on the selected engine and returns the
// session handle. Exactly one of FromModule, FromSystemVerilog, or
// FromCompiled must be given. A module given with FromModule is frozen
// (Module.Freeze) once the session exists: the engines index their state
// by its value numbering, so run llhd.Lower before, not after.
func NewSession(opts ...SessionOption) (*Session, error) {
	cfg := newConfig(opts)
	d, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return d.open(cfg)
}

// design is a prepared input: what is left of a configuration once its
// options are checked, its frontend has run, its top is settled, its
// module is frozen and, for Blaze, compiled. It is immutable, and every
// session opened from it — serially or concurrently — shares it.
type design struct {
	kind     EngineKind
	top      string          // of source and module; a compiled design carries its own
	source   string          // SVSim executes the source itself
	module   *Module         // Interp
	compiled *CompiledDesign // Blaze

	// first is the engine of the elaboration that validated (and for
	// Blaze compiled) the design inside prepare. The first open takes it,
	// so a cold session elaborates once.
	first atomic.Pointer[engine.Engine]
}

// prepare and open are the only road from a configuration to a running
// engine: nothing else in this package calls a frontend or an engine
// constructor. prepare does everything sessions of one input can share —
// NewSession runs it per session, the Farm once per distinct input. Both
// carry the construction-time panic backstop, so a defect in a frontend, a
// compile or an elaboration is an ErrInternal on every path that builds a
// session, not only under the farm.
func prepare(cfg *sessionConfig) (_ *design, err error) {
	defer recoverInternal(&err)
	kind := cfg.backend
	if cfg.compiled != nil || cfg.cache != nil {
		kind = Blaze
	}
	switch {
	case cfg.module == nil && !cfg.hasSource && cfg.compiled == nil:
		return nil, fmt.Errorf("llhd: NewSession needs FromModule, FromSystemVerilog, or FromCompiled")
	case cfg.module != nil && cfg.hasSource:
		return nil, fmt.Errorf("llhd: FromModule and FromSystemVerilog are mutually exclusive")
	case cfg.compiled != nil && (cfg.module != nil || cfg.hasSource):
		return nil, fmt.Errorf("llhd: FromCompiled excludes FromModule and FromSystemVerilog")
	case cfg.compiled != nil && cfg.cache != nil:
		return nil, fmt.Errorf("llhd: WithDesignCache and FromCompiled are mutually exclusive (a compiled design is already past the cache)")
	case cfg.backendSet && cfg.backend != kind:
		return nil, fmt.Errorf("llhd: FromCompiled and WithDesignCache run on the blaze engine, not %v", cfg.backend)
	case cfg.compiled != nil && cfg.top != "" && cfg.top != cfg.compiled.Top():
		return nil, fmt.Errorf("llhd: FromCompiled design was compiled for Top(%q), not %q",
			cfg.compiled.Top(), cfg.top)
	case kind == SVSim && !cfg.hasSource:
		return nil, fmt.Errorf("llhd: the svsim engine executes SystemVerilog directly; use FromSystemVerilog")
	case kind == SVSim && cfg.top == "":
		return nil, fmt.Errorf("llhd: the svsim engine needs Top(module)")
	case kind != Interp && kind != Blaze && kind != SVSim:
		return nil, fmt.Errorf("llhd: unknown engine %d", int(kind))
	}

	d := &design{kind: kind, top: cfg.top}
	switch {
	case kind == SVSim:
		d.source = cfg.source
		return d, nil
	case cfg.compiled != nil:
		d.compiled = cfg.compiled
	case cfg.cache != nil && cfg.module != nil:
		// Content-addressed: a warm hit skips freeze and compile, a miss
		// compiles once and leaves the design behind for later sessions.
		d.compiled, _, err = cfg.cache.Load(cfg.module, cfg.top, TierBytecode)
	case cfg.cache != nil:
		// The source memo in front of it skips the frontend as well.
		d.compiled, _, err = cfg.cache.LoadSystemVerilog("design", cfg.source, cfg.top, TierBytecode, false)
	}
	if err != nil {
		return nil, err
	}
	if d.compiled != nil {
		return d, nil
	}

	m := cfg.module
	if m == nil {
		cfg.phase("frontend")
		if m, err = frontend(langSV, "design", cfg.source, false); err != nil {
			return nil, err
		}
	}
	if d.top == "" {
		if d.top = m.DefaultTop(); d.top == "" {
			return nil, fmt.Errorf("llhd: module has no entity; name a top unit")
		}
	}
	// Both constructors freeze m once their elaboration succeeded and
	// leave it untouched when it failed.
	if kind == Interp {
		si, err := sim.New(m, d.top)
		if err != nil {
			return nil, err
		}
		d.module = m
		d.first.Store(si.Engine)
		return d, nil
	}
	cfg.phase("compile")
	bz, err := blaze.New(m, d.top)
	if err != nil {
		return nil, err
	}
	d.compiled = bz.Design()
	d.first.Store(bz.Engine)
	return d, nil
}

// Source languages of the frontend step. The spellings are part of the
// design cache's source-memo key.
const (
	langSV   = "sv"
	langLLHD = "llhd"
)

// frontend turns design source into a module, optionally lowered (§4): the
// step prepare, the design cache's parse callbacks and the exported
// CompileSystemVerilog / ParseAssembly all share.
func frontend(lang, name, src string, lower bool) (*Module, error) {
	var m *Module
	var err error
	if lang == langSV {
		m, err = moore.Compile(name, src)
	} else {
		m, err = assembly.Parse(name, src)
	}
	if err == nil && lower {
		err = Lower(m)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (c *sessionConfig) phase(name string) {
	if c.phaseHook != nil {
		c.phaseHook(name)
	}
}

// open elaborates the design on a fresh engine — or takes the one prepare
// left — and attaches what is the session's own: quotas, handlers,
// observers, VCD writers.
func (d *design) open(cfg *sessionConfig) (_ *Session, err error) {
	defer recoverInternal(&err)
	s := &Session{eng: d.first.Swap(nil)}
	if s.eng == nil {
		switch d.kind {
		case SVSim:
			sv, err := svsim.New(d.source, d.top)
			if err != nil {
				return nil, err
			}
			s.sv, s.eng = sv, sv.Engine
		case Interp:
			si, err := sim.New(d.module, d.top)
			if err != nil {
				return nil, err
			}
			s.eng = si.Engine
		case Blaze:
			bz, err := d.compiled.NewSimulator()
			if err != nil {
				return nil, err
			}
			s.eng = bz.Engine
		}
	}

	if cfg.display != nil {
		s.eng.Display = cfg.display
	}
	if cfg.stepLimit > 0 {
		s.eng.StepLimit = cfg.stepLimit
	}
	s.eng.Ctx = cfg.ctx
	s.eng.Deadline = cfg.deadline
	s.eng.EventLimit = cfg.eventLimit
	s.eng.MemLimit = cfg.memLimit
	s.eng.FaultHook = cfg.faultHook
	if cfg.governBatch > 0 {
		s.eng.GovernBatch = cfg.governBatch
	}
	if cfg.onAssert != nil {
		s.eng.OnAssert = cfg.onAssert
	}
	for _, sub := range cfg.observers {
		if len(sub.paths) == 0 {
			s.eng.Observe(sub.obs)
			continue
		}
		sigs := make([]*Signal, 0, len(sub.paths))
		for _, p := range sub.paths {
			sig := s.eng.SignalByName(p)
			if sig == nil {
				return nil, fmt.Errorf("llhd: WithObserver: no signal %q in the elaborated design", p)
			}
			sigs = append(sigs, sig)
		}
		s.eng.Observe(sub.obs, sigs...)
	}
	if err := s.attachVCD(cfg.vcdOuts); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverInternal is the panic backstop of the phases outside any running
// session (a frontend, a compile, construction; in the farm, a worker's
// whole job): deferred, it turns a panic into an ErrInternal-classified
// error with the stack.
func recoverInternal(err *error) {
	if r := recover(); r != nil {
		*err = &engine.RuntimeError{
			Kind: engine.ErrInternal, Recovered: r, Stack: debug.Stack(),
		}
	}
}

// init runs every process to its first suspension, exactly once.
func (s *Session) init() {
	if !s.inited {
		s.inited = true
		s.eng.Init()
	}
}

// contain is the deferred panic barrier of every Session entry point: it
// converts a panic from the kernel or an engine into a classified
// *RuntimeError (kind ErrInternal) carrying the recovered value, the
// stack, and the failing instant/process, poisons the session with it,
// and flushes attached VCD streams so the waveform on disk is
// well-formed up to the failure instant.
func (s *Session) contain(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	re := s.eng.Capture(engine.ErrInternal, nil, r, debug.Stack())
	s.eng.SetError(re) // stop the engine; first error wins
	if s.fatal == nil {
		s.fatal = re
	}
	s.safeFlushVCD()
	if errp != nil {
		*errp = s.fatal
	}
}

// safeFlushVCD flushes VCD output without letting a writer defect escape
// the containment path.
func (s *Session) safeFlushVCD() {
	defer func() { recover() }() //nolint:errcheck // best-effort on the failure path
	if err := s.flushVCD(); err != nil && s.err == nil {
		s.err = err
	}
}

// Run simulates until the event queue drains, then flushes attached VCD
// streams. It returns the first runtime or write error.
func (s *Session) Run() error { return s.RunUntil(Time{}) }

// RunUntil simulates until the event queue drains or physical time would
// exceed the limit (zero limit: unbounded). Events beyond the limit stay
// queued, so alternating RunUntil and Probe implements co-simulation
// against an external model. VCD streams are flushed even when the run
// fails, so the waveform is well-formed up to the failure instant.
func (s *Session) RunUntil(limit Time) (err error) {
	if s.fatal != nil {
		return s.fatal
	}
	defer s.contain(&err)
	s.init()
	s.eng.Run(limit)
	ferr := s.flushVCD()
	if err := s.eng.Err(); err != nil {
		return err
	}
	return ferr
}

// Step executes a single time instant (one (fs, delta, eps) point) and
// reports whether any scheduled work remains. The first call also runs
// the time-zero initialization.
func (s *Session) Step() (more bool, err error) {
	if s.fatal != nil {
		return false, s.fatal
	}
	defer s.contain(&err)
	s.init()
	more = s.eng.Step()
	return more, s.eng.Err()
}

// Now returns the current simulation time.
func (s *Session) Now() Time { return s.eng.Now }

// Err returns the first error the session encountered: the sticky
// poisoning error of a contained panic, a runtime error from the engine
// (always a *RuntimeError — classify with errors.Is against the Err*
// sentinels), or a deferred output error (such as a VCD write failure
// flushed by Finish). Run, RunUntil, and Step return errors as they
// happen; Err is the catch-all for stepped sessions that only learn of
// output failures at Finish.
func (s *Session) Err() error {
	if s.fatal != nil {
		return s.fatal
	}
	if err := s.eng.Err(); err != nil {
		return err
	}
	return s.err
}

// Probe looks up a signal by hierarchical path name (e.g. "acc_tb.q") and
// returns its current value. The boolean reports whether the signal
// exists. On a poisoned session (or if the probe itself trips an engine
// defect, which is contained like any other panic) it reports false; Err
// carries the diagnosis.
func (s *Session) Probe(path string) (v Value, ok bool) {
	if s.fatal != nil {
		return Value{}, false
	}
	defer func() {
		if r := recover(); r != nil {
			re := s.eng.Capture(engine.ErrInternal, nil, r, debug.Stack())
			s.eng.SetError(re)
			if s.fatal == nil {
				s.fatal = re
			}
			v, ok = Value{}, false
		}
	}()
	sig := s.eng.SignalByName(path)
	if sig == nil {
		return Value{}, false
	}
	return sig.Value(), true
}

// Signals returns all elaborated signals in creation order, for tooling
// that enumerates the design instead of probing known paths.
func (s *Session) Signals() []*Signal { return s.eng.Signals() }

// Pending reports the number of scheduled-but-unapplied events.
func (s *Session) Pending() int { return s.eng.PendingEvents() }

// Finish releases engine resources (coroutine processes, buffered VCD
// output) and returns the final statistics. It is idempotent; the session
// must not be stepped afterwards. A VCD flush failure during Finish is
// reported by Err — relevant for stepped-only sessions, whose Step calls
// never flush. On a failed session — poisoned by a contained panic or
// stopped by a quota — Finish still works: the statistics reflect the
// partial progress up to the failure, and the VCD flush completes the
// well-formed waveform prefix.
func (s *Session) Finish() Finish {
	if !s.stopped {
		s.stopped = true
		func() {
			defer s.contain(nil)
			if s.sv != nil {
				s.sv.Shutdown()
			}
		}()
		s.safeFlushVCD()
	}
	return Finish{
		Now:               s.eng.Now,
		DeltaSteps:        s.eng.DeltaCount,
		Events:            s.eng.EventCount,
		AssertionFailures: s.eng.Failures,
	}
}

// attachVCD wires one vcd.Writer per output. Each writer emits its header
// and time-zero dump immediately and subscribes only to VCD-representable
// signals, so unrepresentable nets cost nothing at runtime.
func (s *Session) attachVCD(outs []io.Writer) error {
	for _, w := range outs {
		vw := vcd.NewWriter(w, s.eng)
		if sigs := vcd.Signals(s.eng); len(sigs) > 0 {
			s.eng.Observe(vw, sigs...)
		}
		s.vcd = append(s.vcd, vw)
		if err := vw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) flushVCD() error {
	for _, f := range s.vcd {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	return nil
}
