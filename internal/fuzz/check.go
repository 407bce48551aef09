package fuzz

import (
	"fmt"
	"strings"

	"llhd"
	"llhd/internal/assembly"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/oracle"
)

// Options configure a differential check.
type Options struct {
	// StepLimit bounds every session to this many time instants, turning
	// runaway simulations (oscillation introduced by a miscompile) into a
	// deterministic failure instead of a hang. <= 0 means
	// oracle.DefaultStepLimit.
	StepLimit int
	// Lower is the lowering pipeline under test; nil means llhd.Lower.
	// Tests inject deliberately broken pipelines here to exercise the
	// oracle and the shrinker.
	Lower func(*llhd.Module) error
	// PipelineLower builds, in pipeline mode, the lowering function that
	// replays a pipeline prefix; nil means PipelineLower (pass-registry
	// replay with verify-each). Tests inject broken replays here to pin
	// the bisector's first-divergent-pass attribution.
	PipelineLower func(prefix []string) func(*llhd.Module) error
}

func (o Options) lower() func(*llhd.Module) error {
	if o.Lower != nil {
		return o.Lower
	}
	return llhd.Lower
}

// Failure is one differential finding: the reason (deterministic text,
// stable for a fixed seed), the assembly of the offending design in its
// unlowered form — the shrinker's input and the corpus repro format —
// and the failure class.
type Failure struct {
	Reason string
	Text   string
	// Class is the stable failure-class slug the shrinker's same-class
	// rule compares: runtime failures carry the error taxonomy's class
	// (engine.KindName — "step-limit", "panic", ...), oracle clause
	// violations their clause slug ("trace-divergence", "verify", ...).
	Class string
	// Pipeline is the failing pass prefix in pipeline mode: the shortest
	// prefix of the seed's pipeline that diverges, so its last entry is
	// the first divergent pass. Empty in plain (fixed-lowering) mode.
	Pipeline []string
}

func (f *Failure) Error() string { return f.Reason }

// CheckModule runs the cross-engine differential oracle over one design.
// mk must produce structurally identical fresh modules on every call (a
// deterministic generator or a parse of fixed text); one copy runs
// unlowered, the other is lowered first. The contract checked:
//
//  1. Both copies pass ir.Verify (the lowered one after lowering).
//  2. All four (engine, lowering) legs — {Interp, Blaze} × {unlowered,
//     lowered} — run to quiescence without errors, panics, assertion
//     failures, or exceeding the step limit. The legs run concurrently as
//     one oracle.Run, sharing each frozen module between the engines.
//  3. Within each lowering level the interpreter and blaze produce
//     identical signal-change traces, delta-exactly (the §6.1 contract,
//     oracle.Diff).
//  4. Across lowering levels the physical-time-settled waveform of every
//     top-level signal is identical (oracle.DiffSettled): lowering may
//     reshape delta-level transients and internal hierarchy, but not what
//     a top net settles to at any physical instant.
//
// It returns nil when the design passes, or a Failure naming the first
// violated clause.
func CheckModule(mk func() (*ir.Module, error), top string, opt Options) *Failure {
	f, _ := check(mk, top, "", opt)
	return f
}

// check is CheckModule with the svsim leg of CheckSV added when src is
// not empty. Besides the first violated clause it returns every leg's
// result once the legs have run (nil when an earlier clause failed).
func check(mk func() (*ir.Module, error), top, src string, opt Options) (*Failure, []oracle.Result) {
	m1, err := mk()
	if err != nil {
		return &Failure{Reason: fmt.Sprintf("building the design failed: %v", err), Class: "error"}, nil
	}
	text := assembly.String(m1)
	// fail names the violated clause by its slug: the class is what the
	// call site knows, never something read back out of the rendered reason.
	fail := func(class, format string, args ...any) *Failure {
		return &Failure{Reason: fmt.Sprintf(format, args...), Text: text, Class: class}
	}
	if err := ir.Verify(m1, ir.Behavioural); err != nil {
		return fail("verify", "unlowered design fails ir.Verify: %v", err), nil
	}
	m2, err := mk()
	if err != nil {
		return fail("error", "rebuilding the design failed: %v", err), nil
	}
	if assembly.String(m2) != text {
		return fail("error", "mk is not deterministic: two builds printed differently"), nil
	}
	if err := opt.lower()(m2); err != nil {
		return fail("lower-error", "lowering failed: %v", err), nil
	}
	if err := ir.Verify(m2, ir.Behavioural); err != nil {
		return fail("verify", "lowered design fails ir.Verify: %v", err), nil
	}

	topName := top
	if topName == "" {
		topName = m1.DefaultTop()
	}
	leg := func(name string, m *ir.Module, kind llhd.EngineKind) oracle.Leg {
		o := []llhd.SessionOption{llhd.FromModule(m), llhd.Backend(kind)}
		if top != "" {
			o = append(o, llhd.Top(top))
		}
		return oracle.Leg{Name: name, Options: o}
	}
	legs := []oracle.Leg{
		leg("interp/unlowered", m1, llhd.Interp),
		leg("blaze/unlowered", m1, llhd.Blaze),
		leg("interp/lowered", m2, llhd.Interp),
		leg("blaze/lowered", m2, llhd.Blaze),
	}
	if src != "" {
		legs = append(legs, oracle.Leg{Name: "svsim", Options: []llhd.SessionOption{
			llhd.FromSystemVerilog(src), llhd.Top(top), llhd.Backend(llhd.SVSim),
		}})
	}
	rs := oracle.Run(opt.StepLimit, legs...)
	for _, r := range rs[:4] {
		if r.Err != nil {
			return fail(engine.KindName(r.Err), "%s: %s", r.Name, deterministicErr(r.Err)), rs
		}
		if r.Finish.AssertionFailures != 0 {
			return fail("assert", "%s: %d assertion failures", r.Name, r.Finish.AssertionFailures), rs
		}
	}
	// Clause 3: engine equivalence within each lowering level — interp vs
	// blaze, delta-exactly.
	for _, pair := range [][2]oracle.Result{{rs[0], rs[1]}, {rs[2], rs[3]}} {
		if f := oracle.Diff(pair[0].Name, pair[0].Trace, pair[1].Name, pair[1].Trace); f != "" {
			return fail("trace-divergence", "%s", f), rs
		}
	}
	// Clause 4: lowering equivalence on settled top-level waveforms.
	if f := oracle.DiffSettled(topName, m1, rs[0].Trace, m2, rs[2].Trace); f != "" {
		return fail("settled-divergence", "unlowered vs lowered: %s", f), rs
	}
	// The svsim leg must finish without errors or assertion failures, and
	// (clause 5) its trace must equal the unlowered interpreter's,
	// delta-exactly, on the top module's own nets: below the top the two
	// frontends name instances differently.
	if src != "" {
		r := rs[4]
		if r.Err != nil {
			return &Failure{Reason: fmt.Sprintf("svsim: %s", deterministicErr(r.Err)),
				Text: src, Class: engine.KindName(r.Err)}, rs
		}
		if r.Finish.AssertionFailures != 0 {
			return &Failure{Reason: fmt.Sprintf("svsim: %d assertion failures", r.Finish.AssertionFailures),
				Text: src, Class: "assert"}, rs
		}
		if f := oracle.Diff(rs[0].Name, topNets(topName, rs[0].Trace), r.Name, topNets(topName, r.Trace)); f != "" {
			return &Failure{Reason: f, Text: src, Class: "svsim-divergence"}, rs
		}
	}
	return nil, rs
}

// topNets is the part of a trace on the nets of the top module itself,
// <top>.<leaf>.
func topNets(top string, o *llhd.TraceObserver) *llhd.TraceObserver {
	out := &llhd.TraceObserver{}
	for _, te := range o.Entries {
		if leaf, ok := strings.CutPrefix(te.Sig.Name, top+"."); ok && !strings.Contains(leaf, ".") {
			out.Entries = append(out.Entries, te)
		}
	}
	return out
}

// deterministicErr renders a leg error for failure reasons and repro
// headers. Panic errors from the farm carry a goroutine stack whose
// addresses and goroutine IDs vary run to run; only their first line
// (the panic value itself) is deterministic, and determinism-by-seed is
// part of the fuzzer's contract.
func deterministicErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 && strings.Contains(s[:i], "panic") {
		return s[:i]
	}
	return s
}

// CheckGenerated generates the design for (seed, budget) and runs the
// differential oracle over it. This is the fuzzing loop body shared by
// cmd/llhd-fuzz and the Go-native FuzzDifferential harness.
func CheckGenerated(seed int64, budget int, opt Options) *Failure {
	mk := func() (*ir.Module, error) {
		return Generate(Config{Seed: seed, Budget: budget}), nil
	}
	if f := CheckModule(mk, "top", opt); f != nil {
		f.Reason = fmt.Sprintf("seed %d budget %d: %s", seed, budget, f.Reason)
		return f
	}
	return nil
}

// CheckText parses assembly text and runs the differential oracle — the
// corpus replay and shrinker entry point. A "; pipeline: a,b,c" header
// directive (written into pipeline-mode repros) selects that pass replay
// as the lowering under test, so pipeline findings replay from the corpus
// with no external configuration; an explicit opt.Lower wins.
func CheckText(name, text string, opt Options) *Failure {
	if opt.Lower == nil {
		if names := PipelineDirective(text); len(names) > 0 {
			opt.Lower = PipelineLower(names)
		}
	}
	mk := func() (*ir.Module, error) { return assembly.Parse(name, text) }
	return CheckModule(mk, "", opt)
}

// CheckSV runs the three-engine differential oracle over SystemVerilog
// source: the four LLHD legs of CheckModule on the Moore-compiled module,
// plus the AST-level SVSim engine executing the source directly, all five
// as one oracle.Run. The SVSim run must finish without errors or
// assertion failures, and its trace of the top module's nets must equal
// the unlowered interpreter's delta for delta (class "svsim-divergence").
// This is the oracle for .sv corpus entries and the Table 2 matrix.
func CheckSV(name, src, top string, opt Options) *Failure {
	f, _ := CheckSVLegs(name, src, top, opt)
	return f
}

// CheckSVLegs is CheckSV handing back every leg's result as well (nil
// when a clause failed before the legs ran), for configurations that hold
// the legs to further comparators: the RV32I conformance suite checks
// each one against the reference ISS.
func CheckSVLegs(name, src, top string, opt Options) (*Failure, []oracle.Result) {
	mk := func() (*ir.Module, error) { return llhd.CompileSystemVerilog(name, src) }
	return check(mk, top, src, opt)
}
