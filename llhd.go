// Package llhd is the public facade of the LLHD reproduction: a
// multi-level intermediate representation for hardware description
// languages (Schuiki et al., PLDI 2020), with a SystemVerilog frontend
// (Moore), the behavioural-to-structural lowering passes, and three
// simulation engines behind one Session API — the reference interpreter
// (LLHD-Sim), the compiled simulator (LLHD-Blaze), and an AST-level
// SystemVerilog engine (the commercial substitute of Table 2).
//
// Building IR:
//
//	m, err := llhd.CompileSystemVerilog("design", src) // Moore frontend
//	m, err := llhd.ParseAssembly("design", text)       // .llhd text
//	err = llhd.Lower(m)                                // §4 lowering
//
// Simulating — one entry point for every engine and workload:
//
//	s, err := llhd.NewSession(
//	    llhd.FromModule(m),          // or llhd.FromSystemVerilog(src)
//	    llhd.Top("top_tb"),
//	    llhd.Backend(llhd.Interp),   // llhd.Blaze | llhd.SVSim
//	    llhd.WithVCD(waveFile),      // optional: stream a VCD waveform
//	)
//	err = s.Run()                    // or s.RunUntil(t), or s.Step()
//	v, ok := s.Probe("top_tb.q")
//	stats := s.Finish()              // delta steps, events, assertions
//
// The blaze engine lowers every unit to flat fixed-width bytecode run by
// a threaded dispatch loop (registers indexed directly by dense value
// IDs, scalar integer ops in place). Its traces are byte-identical to the
// reference interpreter's — the fuzzer and the farm matrix diff the two
// on every run.
//
// Signal observation streams through the Observer interface (one callback
// per changed signal per instant, deterministic signal-ID order) in
// bounded memory; TraceObserver buffers a full trace when a diffable
// history is wanted.
//
// There is one road from a design to a running engine, and NewSession and
// Farm both take it: prepare the input (check the options, run the
// frontend, settle the top, freeze the module, compile for blaze — through
// the DesignCache when one is given), then open a session on the prepared
// design (elaborate, attach quotas, observers and VCD writers). A session
// therefore freezes the module it was given (Module.Freeze): run Lower
// before NewSession, a structural edit afterwards panics.
//
// Running many simulations — a parameter sweep, a regression farm, or a
// cross-engine differential check — goes through Farm, which prepares
// each distinct input once and opens every job's session on the shared
// result: jobs that name the same *Module, the same CompiledDesign or the
// same SystemVerilog source string (with the same Top, Backend and cache)
// run over one frozen design, one frontend run and one blaze compile. A
// three-backend differential sweep of one design is three jobs:
//
//	obsI, obsB := &llhd.TraceObserver{}, &llhd.TraceObserver{}
//	var farm llhd.Farm // zero value: GOMAXPROCS workers
//	results := farm.Run(ctx,
//	    llhd.FarmJob{Options: []llhd.SessionOption{llhd.FromModule(m),
//	        llhd.Top("top_tb"), llhd.Backend(llhd.Interp), llhd.WithObserver(obsI)}},
//	    llhd.FarmJob{Options: []llhd.SessionOption{llhd.FromModule(m),
//	        llhd.Top("top_tb"), llhd.Backend(llhd.Blaze), llhd.WithObserver(obsB)}},
//	    llhd.FarmJob{Options: []llhd.SessionOption{llhd.FromSystemVerilog(src),
//	        llhd.Top("top_tb"), llhd.Backend(llhd.SVSim)}},
//	)
//	// results[i].Stats / .Err per job; obsI.Entries == obsB.Entries is the
//	// §6.1 trace-equivalence check (examples/quickstart runs this sweep).
//
// All sharing is frozen-read-only: after Farm.Run's serial preparation
// (frontend, freeze, compile), concurrent sessions take no locks anywhere
// on a simulation path.
//
// The engines also check each other: internal/fuzz generates seeded
// random well-typed designs over the full instruction surface and farms
// each one across {Interp, Blaze} × {unlowered, lowered}, diffing the
// observer streams; failures shrink automatically to minimal .llhd
// repros. Run it as
//
//	llhd-fuzz -seed 1 -n 1000            # CLI: deterministic by seed
//	llhd-fuzz -pipeline -seed 1 -n 1000  # random pass orderings, bisected
//	go test -fuzz FuzzDifferential ./internal/fuzz
//	go test -fuzz FuzzPassPipeline ./internal/fuzz
//
// (flags: -seed, -n, -budget, -corpus; output is byte-reproducible for a
// fixed seed, and design i of a run reproduces alone via -seed S+i -n 1).
// Pipeline mode additionally draws a random sequence of §4 passes per
// seed and re-runs the full oracle after every pass application, so a
// divergence is bisected to the first pass that introduced it; the
// reported pipeline replays verbatim through llhd-opt -passes, and the
// shrunk repro carries it as a "; pipeline:" header directive that the
// corpus replay honours. Checked-in findings live in testdata/corpus/
// and replay on every test run. WithStepLimit bounds a session to a
// deterministic number of instants, which is how the harness turns
// miscompile-induced oscillation into a reproducible failure instead of
// a hang.
//
// # Errors and resource governance
//
// The runtime never lets a failure escape the Session boundary as a
// crash. Every entry point (Run, RunUntil, Step, Probe, Finish) recovers
// engine panics into a *RuntimeError that records the failure context —
// the simulated instant, delta-step and event counters, the executing
// process, the recovered value, and the goroutine stack. Failures
// classify into a sentinel taxonomy matched with errors.Is:
//
//	ErrStepLimit    WithStepLimit budget exhausted (or a livelock guard)
//	ErrDeadline     WithDeadline wall-clock budget passed
//	ErrCanceled     the WithContext context was canceled
//	ErrEventLimit   WithEventLimit event quota exceeded
//	ErrMemoryLimit  WithMemoryLimit heap watermark exceeded
//	ErrAssertFailed an assertion failure promoted to an error
//	ErrInternal     contained panic or other internal runtime error
//
// ErrorClass maps any error to its stable class slug ("panic",
// "canceled", "event-limit", ...), and causes stay matchable through the
// wrap: a canceled run satisfies both ErrCanceled and context.Canceled.
//
// A failed session is poisoned: the first error is sticky, every
// subsequent call returns it, Finish still reports the valid partial
// statistics up to the failure instant, and a VCD stream is flushed
// well-formed up to that instant. Governance limits are polled at batch
// granularity (thousands of instants), never per event, so the
// simulation hot paths pay nothing for them; only WithStepLimit is exact
// to the instant. Farm workers contain panics the same way, surfacing
// them through FarmResult.Err with partial FarmResult.Stats.
//
// # Design cache and simulation server
//
// DesignCache makes blaze compilation content-addressed: the key is a
// stable hash of the module's bitcode encoding plus the top name, so a
// design compiles once per content — across
// sessions, farm jobs, independently parsed module copies, and (with
// WithCacheDir) process restarts. Warm hits skip parse, lowering,
// freeze, and compile; concurrent lookups of one design single-flight
// into a single compile; an LRU bound (WithCacheCapacity) caps resident
// designs. The cache is consulted only at session construction, never
// on a simulation path.
//
//	dc, _ := llhd.NewDesignCache(llhd.WithCacheDir(dir))
//	s, _ := llhd.NewSession(llhd.FromSystemVerilog(src),
//	    llhd.Top("top_tb"), llhd.WithDesignCache(dc)) // implies Blaze
//	farm := &llhd.Farm{Cache: dc} // farm jobs share the same cache
//
// The serving layer (internal/simserver, cmd/llhd-serve) puts an HTTP
// front end over the same machinery: POST a design plus stimulus
// config, get back an NDJSON stream of observer deltas — in the
// kernel's deterministic order, byte-identical to a serial run —
// followed by the Finish statistics and failure class. Every server
// session runs under mandatory step/event/wall-clock quotas, worker
// admission bounds concurrency, and the HTTP status mapping mirrors
// llhd-sim's exit codes (quota → 429, assertion → 422, internal → 500).
// llhd-sim -stats-json emits the same result schema on the CLI;
// examples/serveclient walks the client lifecycle.
//
// # RV32I conformance suite
//
// The engines are additionally validated against an oracle that shares
// none of their code: internal/designs/sv/rv32i.sv is a full RV32I core
// whose program loads via $readmemh, internal/riscv provides the
// assembler that builds the images and a reference instruction-set
// simulator, and conformance_test.go (make conformance, also in CI) runs
// every self-checking image under testdata/rv32i/ on all three engines,
// requiring the riscv-tests tohost verdict, identical
// traces, and an architectural state dump equal to the ISS on every leg.
// examples/riscv walks the assemble → ISS → core flow end to end.
package llhd

import (
	"llhd/internal/assembly"
	"llhd/internal/bitcode"
	"llhd/internal/ir"
	"llhd/internal/pass"
)

// Module is an LLHD module: a collection of functions, processes, and
// entities.
type Module = ir.Module

// Time is a simulation time (femtoseconds, delta, epsilon).
type Time = ir.Time

// Level identifies one of the three LLHD dialects.
type Level = ir.Level

// The three IR levels; Netlist ⊂ Structural ⊂ Behavioural.
const (
	Behavioural = ir.Behavioural
	Structural  = ir.Structural
	Netlist     = ir.Netlist
)

// CompileSystemVerilog maps SystemVerilog source to Behavioural LLHD using
// the Moore frontend.
func CompileSystemVerilog(name, src string) (*Module, error) {
	return frontend(langSV, name, src, false)
}

// ParseAssembly reads LLHD assembly text.
func ParseAssembly(name, src string) (*Module, error) {
	return frontend(langLLHD, name, src, false)
}

// AssemblyString renders the module as LLHD assembly text.
func AssemblyString(m *Module) string {
	return assembly.String(m)
}

// EncodeBitcode serializes the module to the binary on-disk format.
func EncodeBitcode(m *Module) ([]byte, error) {
	return bitcode.Encode(m)
}

// DecodeBitcode reads a module from bitcode.
func DecodeBitcode(data []byte) (*Module, error) {
	return bitcode.Decode(data)
}

// Verify checks module well-formedness at the given level.
func Verify(m *Module, level Level) error {
	return ir.Verify(m, level)
}

// LevelOf returns the most restrictive level the module satisfies.
func LevelOf(m *Module) Level {
	return ir.LevelOf(m)
}

// Lower runs the §4 behavioural-to-structural pipeline (ECM, TCM, TCFE,
// process lowering, desequentialization, structural cleanups) to fixpoint,
// and fails, naming the passes still changing the module, if eight
// iterations do not reach it. Testbench processes without a structural
// equivalent are left behavioural; use Verify(m, Structural) to require
// full lowering.
func Lower(m *Module) error {
	return pass.LoweringPipeline().RunFixpoint(m)
}
