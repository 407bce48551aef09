package fuzz

import (
	"fmt"
	"sort"
	"strings"

	"llhd"
	"llhd/internal/assembly"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/simtest"
	"llhd/internal/val"
)

// Options configure a differential check.
type Options struct {
	// StepLimit bounds every session to this many time instants, turning
	// runaway simulations (oscillation introduced by a miscompile) into a
	// deterministic failure instead of a hang. <= 0 means 200000.
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

func (o Options) stepLimit() int {
	if o.StepLimit > 0 {
		return o.StepLimit
	}
	return 200_000
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

// classifyLegErr maps a farm-leg error to its failure class through the
// structured error taxonomy — errors.Is on the RuntimeError kinds
// instead of string matching.
func classifyLegErr(err error) string {
	return engine.KindName(err)
}

// CheckModule runs the cross-engine differential oracle over one design.
// mk must produce structurally identical fresh modules on every call (a
// deterministic generator or a parse of fixed text); one copy runs
// unlowered, the other is lowered first. The contract checked:
//
//  1. Both copies pass ir.Verify (the lowered one after lowering).
//  2. All four (engine, lowering) legs — {Interp, Blaze} × {unlowered,
//     lowered} — run to quiescence without errors, panics, assertion
//     failures, or exceeding the step limit. The legs run concurrently as
//     one llhd.Farm, sharing each frozen module between the engines.
//  3. Within each lowering level the interpreter and blaze produce
//     identical signal-change traces, delta-exactly (the §6.1 contract).
//  4. Across lowering levels the physical-time-settled waveform of every
//     top-level signal is identical: lowering may reshape delta-level
//     transients and internal hierarchy, but not what a top net settles
//     to at any physical instant.
//
// It returns nil when the design passes, or a Failure naming the first
// violated clause.
func CheckModule(mk func() (*ir.Module, error), top string, opt Options) *Failure {
	m1, err := mk()
	if err != nil {
		return &Failure{Reason: fmt.Sprintf("building the design failed: %v", err), Class: "error"}
	}
	text := assembly.String(m1)
	// fail names the violated clause by its slug: the class is what the
	// call site knows, never something read back out of the rendered reason.
	fail := func(class, format string, args ...any) *Failure {
		return &Failure{Reason: fmt.Sprintf(format, args...), Text: text, Class: class}
	}
	if err := ir.Verify(m1, ir.Behavioural); err != nil {
		return fail("verify", "unlowered design fails ir.Verify: %v", err)
	}
	m2, err := mk()
	if err != nil {
		return fail("error", "rebuilding the design failed: %v", err)
	}
	if assembly.String(m2) != text {
		return fail("error", "mk is not deterministic: two builds printed differently")
	}
	if err := opt.lower()(m2); err != nil {
		return fail("lower-error", "lowering failed: %v", err)
	}
	if err := ir.Verify(m2, ir.Behavioural); err != nil {
		return fail("verify", "lowered design fails ir.Verify: %v", err)
	}

	topName := top
	if topName == "" {
		topName = m1.DefaultTop()
	}

	legs := []struct {
		name string
		m    *ir.Module
		kind llhd.EngineKind
	}{
		{"interp/unlowered", m1, llhd.Interp},
		{"blaze/unlowered", m1, llhd.Blaze},
		{"interp/lowered", m2, llhd.Interp},
		{"blaze/lowered", m2, llhd.Blaze},
	}
	obs := make([]*llhd.TraceObserver, len(legs))
	jobs := make([]llhd.FarmJob, len(legs))
	for i, leg := range legs {
		obs[i] = &llhd.TraceObserver{}
		o := []llhd.SessionOption{
			llhd.FromModule(leg.m), llhd.Backend(leg.kind),
			llhd.WithObserver(obs[i]), llhd.WithStepLimit(opt.stepLimit()),
		}
		if top != "" {
			o = append(o, llhd.Top(top))
		}
		jobs[i] = llhd.FarmJob{Name: leg.name, Options: o}
	}
	var farm llhd.Farm
	results := farm.Run(nil, jobs...)
	for _, r := range results {
		if r.Err != nil {
			return fail(classifyLegErr(r.Err), "%s: %s", r.Name, deterministicErr(r.Err))
		}
		if r.Stats.AssertionFailures != 0 {
			return fail("assert", "%s: %d assertion failures", r.Name, r.Stats.AssertionFailures)
		}
	}

	// Clause 3: engine equivalence within each lowering level — interp vs
	// blaze, delta-exactly.
	if f := diffTraces(legs[0].name, obs[0], legs[1].name, obs[1]); f != "" {
		return fail("trace-divergence", "%s", f)
	}
	if f := diffTraces(legs[2].name, obs[2], legs[3].name, obs[3]); f != "" {
		return fail("trace-divergence", "%s", f)
	}
	// Clause 4: lowering equivalence on settled top-level waveforms.
	// Targets of reg instructions are excluded here (not in clause 3):
	// edge-triggered sampling makes delta-level phase observable, and
	// lowering legitimately reshapes delta timing under the paper's
	// synchronous abstraction, so a reg racing its clock against its data
	// may sample differently across lowering levels without either side
	// being wrong. Within a lowering level the reg traces must still
	// match exactly.
	skip := regTargets(m1, topName)
	for n := range regTargets(m2, topName) {
		skip[n] = true
	}
	if f := diffSettled(topName, topSigInits(m1, topName), topSigInits(m2, topName),
		skip, obs[0], obs[2]); f != "" {
		return fail("settled-divergence", "unlowered vs lowered: %s", f)
	}
	return nil
}

// regTargets returns the elaborated names of top-entity signals that are
// the storage target of a reg instruction.
func regTargets(m *ir.Module, topName string) map[string]bool {
	out := map[string]bool{}
	u := m.Unit(topName)
	if u == nil || u.Kind != ir.UnitEntity {
		return out
	}
	for _, in := range u.Body().Insts {
		if in.Op != ir.OpReg || len(in.Args) == 0 {
			continue
		}
		if sig, ok := in.Args[0].(*ir.Inst); ok && sig.Op == ir.OpSig && sig.ValueName() != "" {
			out[topName+"."+sig.ValueName()] = true
		}
	}
	return out
}

// topSigInits statically evaluates the initial value of every named sig
// declared directly in the top entity, keyed by elaborated net name. The
// cross-lowering comparison needs initial values because a pass may fold a
// constant time-zero drive into the initializer — legal, since only the
// pre-settling delta cycles of instant zero can tell the difference.
func topSigInits(m *ir.Module, topName string) map[string]string {
	u := m.Unit(topName)
	if u == nil || u.Kind != ir.UnitEntity {
		return nil
	}
	known := map[ir.Value]val.Value{}
	inits := map[string]string{}
	for _, in := range u.Body().Insts {
		if in.Op == ir.OpSig {
			if v, ok := known[in.Args[0]]; ok && in.ValueName() != "" {
				inits[topName+"."+in.ValueName()] = v.String()
			}
			continue
		}
		if in.Op.IsPure() {
			v, err := engine.EvalPure(in, func(x ir.Value) (val.Value, bool) {
				k, ok := known[x]
				return k, ok
			})
			if err == nil {
				known[in] = v
			}
		}
	}
	return inits
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

// diffTraces compares two traces entry by entry and returns a description
// of the first divergence, or "". Rendering goes through the shared
// simtest helpers, so the fuzzer's notion of trace equality is the same
// one the rest of the differential test suite uses.
func diffTraces(an string, a *llhd.TraceObserver, bn string, b *llhd.TraceObserver) string {
	as, bs := simtest.Strings(a), simtest.Strings(b)
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		if as[i] != bs[i] {
			return fmt.Sprintf("%s vs %s: traces diverge at entry %d: %q vs %q", an, bn, i, as[i], bs[i])
		}
	}
	if len(as) != len(bs) {
		return fmt.Sprintf("%s vs %s: trace lengths differ: %d vs %d", an, bn, len(as), len(bs))
	}
	return ""
}

// settledWaveforms collapses a trace to, per signal name, the sequence of
// values the signal settled to at each physical instant (delta-level
// transients within one instant keep only the final value; a glitch that
// settles back drops out entirely).
func settledWaveforms(o *llhd.TraceObserver) map[string][]string {
	type last struct {
		fs  int64
		val string
	}
	cur := map[string]*last{}
	wf := map[string][]string{}
	for _, te := range o.Entries {
		name := te.Sig.Name
		v := te.Value.String()
		l, ok := cur[name]
		if ok && l.fs == te.Time.Fs {
			l.val = v // same physical instant: later delta wins
			continue
		}
		if ok {
			flushSettled(wf, name, l.fs, l.val)
		}
		cur[name] = &last{fs: te.Time.Fs, val: v}
	}
	for name, l := range cur {
		flushSettled(wf, name, l.fs, l.val)
	}
	return wf
}

func flushSettled(wf map[string][]string, name string, fs int64, val string) {
	seq := wf[name]
	// Drop the entry if the signal settled back to its previous settled
	// value (pure delta glitch).
	if n := len(seq); n > 0 {
		if valuePart(seq[n-1]) == val {
			return
		}
	}
	wf[name] = append(wf[name], fmt.Sprintf("%dfs %s", fs, val))
}

func valuePart(s string) string {
	if i := strings.Index(s, " "); i >= 0 {
		return s[i+1:]
	}
	return s
}

// diffSettled compares, for every named signal declared directly in the
// top entity of both module copies, the waveform observable after
// time-zero settling: the value each signal holds once instant zero's
// delta cycles have resolved, followed by every later physical-time
// settled change. Signals deeper in the hierarchy are excluded (lowering
// legitimately reshapes child instances), and so are instant-zero delta
// transients (lowering may fold a constant time-zero drive into the
// initializer); everything else a top net does over time must be
// identical.
func diffSettled(topName string, initA, initB map[string]string, skip map[string]bool, a, b *llhd.TraceObserver) string {
	wa, wb := settledWaveforms(a), settledWaveforms(b)
	// Compared coverage is the intersection of both modules' named top
	// sigs: signal-forwarding legitimately *removes* zero-delay and
	// reg-fed single-driver nets, and inlining legitimately *adds*
	// dotted child-net names, so an asymmetric name is not by itself a
	// bug. A removed net escapes this clause only if nothing else
	// observes it — any surviving consumer's waveform still pins the
	// forwarded value. What must never happen silently is the
	// comparison collapsing to nothing while signals exist: that is a
	// failure, not a pass.
	ordered := make([]string, 0, len(initA))
	for n := range initA {
		if _, ok := initB[n]; ok && !skip[n] {
			ordered = append(ordered, n)
		}
	}
	if len(ordered) == 0 && len(initA) > 0 && len(initA) > len(skip) {
		return fmt.Sprintf("no top-level signal left to compare: unlowered has %d named sigs, intersection with lowered is empty", len(initA))
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		sa := postZeroWaveform(initA[n], wa[n])
		sb := postZeroWaveform(initB[n], wb[n])
		if len(sa) != len(sb) {
			return fmt.Sprintf("signal %s settled-waveform lengths differ: %d vs %d (%v vs %v)",
				n, len(sa), len(sb), sa, sb)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return fmt.Sprintf("signal %s settled waveforms diverge at %d: %q vs %q (full: %v vs %v)",
					n, i, sa[i], sb[i], sa, sb)
			}
		}
	}
	return ""
}

// postZeroWaveform merges a signal's static initial value with its settled
// change sequence into the post-time-zero-settling waveform: element 0 is
// the value after instant zero resolves, later elements are "fs value"
// settled changes.
func postZeroWaveform(init string, settled []string) []string {
	v0 := init
	rest := settled
	if len(settled) > 0 && strings.HasPrefix(settled[0], "0fs ") {
		v0 = valuePart(settled[0])
		rest = settled[1:]
	}
	out := make([]string, 0, len(rest)+1)
	out = append(out, v0)
	last := v0
	for _, e := range rest {
		if valuePart(e) == last {
			continue
		}
		out = append(out, e)
		last = valuePart(e)
	}
	return out
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
// plus the AST-level SVSim engine executing the source directly (compared
// through its embedded self-checks: the run must finish without errors or
// assertion failures). This is the oracle for .sv corpus entries.
func CheckSV(name, src, top string, opt Options) *Failure {
	mk := func() (*ir.Module, error) { return llhd.CompileSystemVerilog(name, src) }
	if f := CheckModule(mk, top, opt); f != nil {
		return f
	}
	var farm llhd.Farm
	results := farm.Run(nil, llhd.FarmJob{
		Name: "svsim",
		Options: []llhd.SessionOption{
			llhd.FromSystemVerilog(src), llhd.Top(top),
			llhd.Backend(llhd.SVSim), llhd.WithStepLimit(opt.stepLimit()),
		},
	})
	if results[0].Err != nil {
		return &Failure{Reason: fmt.Sprintf("svsim: %s", deterministicErr(results[0].Err)),
			Text: src, Class: classifyLegErr(results[0].Err)}
	}
	if n := results[0].Stats.AssertionFailures; n != 0 {
		return &Failure{Reason: fmt.Sprintf("svsim: %d assertion failures", n), Text: src, Class: "assert"}
	}
	return nil
}
