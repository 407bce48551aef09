// Package oracle is the differential checking core of the paper's §6.1
// methodology: simulate one design on several legs — engine × lowering ×
// input form — and hold their signal-change traces to each other. A Leg
// is a session configuration; Run executes a leg set as one llhd.Farm
// with a buffering observer on each leg; Lines is the one rendering of a
// trace and Diff / DiffSettled are the two comparators. The fuzzer
// (internal/fuzz), and through it the Table 2 matrix, corpus replay and
// the RV32I conformance suite, are configurations of it, and so are the
// cross-engine tests.
package oracle

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"llhd"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// DefaultStepLimit bounds every leg of a Run given no limit: far above any
// design in the tree, low enough that an oscillation introduced by a
// miscompile is a fast, deterministic failure instead of a hang.
const DefaultStepLimit = 200_000

// Leg is one simulation of a differential run: a label and the session
// options that pick its design, top and engine.
type Leg struct {
	Name    string
	Options []llhd.SessionOption
}

// Result is what one leg of a Run left behind.
type Result struct {
	Name string
	// Trace holds every signal change the leg observed, in kernel order.
	Trace *llhd.TraceObserver
	// Finish is the session's final statistics (partial progress when Err
	// is set).
	Finish llhd.Finish
	// Err is the leg's first error, as llhd.FarmResult reports it.
	Err error
}

// Run executes the legs concurrently as one llhd.Farm — legs naming the
// same module share it frozen — each under WithStepLimit(stepLimit)
// (<= 0 means DefaultStepLimit) and with a fresh buffering observer
// attached, and returns one Result per leg, in leg order.
func Run(stepLimit int, legs ...Leg) []Result {
	if stepLimit <= 0 {
		stepLimit = DefaultStepLimit
	}
	out := make([]Result, len(legs))
	jobs := make([]llhd.FarmJob, len(legs))
	for i, leg := range legs {
		out[i] = Result{Name: leg.Name, Trace: &llhd.TraceObserver{}}
		opts := append(leg.Options[:len(leg.Options):len(leg.Options)],
			llhd.WithObserver(out[i].Trace), llhd.WithStepLimit(stepLimit))
		jobs[i] = llhd.FarmJob{Name: leg.Name, Options: opts}
	}
	var farm llhd.Farm
	for i, r := range farm.Run(nil, jobs...) {
		out[i].Finish, out[i].Err = r.Stats, r.Err
	}
	return out
}

// Lines renders a trace in the canonical comparison form, one
// "time name=value" line per change.
func Lines(o *llhd.TraceObserver) []string {
	out := make([]string, len(o.Entries))
	for i, te := range o.Entries {
		out[i] = te.Time.String() + " " + te.Sig.Name + "=" + te.Value.String()
	}
	return out
}

// Values returns the successive integer values the signal with this
// elaborated name took, in change order.
func Values(o *llhd.TraceObserver, name string) []uint64 {
	var seq []uint64
	for _, te := range o.Entries {
		if te.Sig.Name == name {
			seq = append(seq, te.Value.Bits)
		}
	}
	return seq
}

// Diff is the delta-exact comparator: it compares two traces line by line
// and returns a description of the first divergence, or "".
func Diff(an string, a *llhd.TraceObserver, bn string, b *llhd.TraceObserver) string {
	as, bs := Lines(a), Lines(b)
	n := min(len(as), len(bs))
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

// DiffSettled is the lowering comparator: a is a trace of module ma, b of
// mb, a differently lowered copy of the same design, both elaborated at
// topName. It returns a description of the first signal of the top
// entity whose physical-time-settled waveform differs, or "" (see
// diffSettled for what is compared).
//
// Targets of reg instructions are excluded: edge-triggered sampling makes
// delta-level phase observable, and lowering legitimately reshapes delta
// timing under the paper's synchronous abstraction, so a reg racing its
// clock against its data may sample differently across lowering levels
// without either side being wrong. Within a lowering level Diff still
// holds the reg traces exactly.
func DiffSettled(topName string, ma *ir.Module, a *llhd.TraceObserver, mb *ir.Module, b *llhd.TraceObserver) string {
	skip := regTargets(ma, topName)
	for n := range regTargets(mb, topName) {
		skip[n] = true
	}
	return diffSettled(topName, topSigInits(ma, topName), topSigInits(mb, topName), skip, a, b)
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
	num := u.Numbering()
	vals, known := make([]val.Value, num.Len()), make([]bool, num.Len())
	unknown := func(v ir.Value) bool { id := num.ID(v); return id < 0 || !known[id] }
	inits := map[string]string{}
	for _, in := range u.Body().Insts {
		switch {
		case in.Op == ir.OpSig:
			if !unknown(in.Args[0]) && in.ValueName() != "" {
				inits[topName+"."+in.ValueName()] = vals[ir.ValueID(in.Args[0])].String()
			}
		case in.Op.IsPure() && !slices.ContainsFunc(in.Args, unknown) && engine.EvalPure(in, vals) == nil:
			known[ir.ValueID(in)] = true
		}
	}
	return inits
}

// settledWaveforms collapses a trace to, per signal name, the sequence of
// values the signal settled to at each physical instant (delta-level
// transients within one instant keep only the final value; a value equal
// to the one settled before it is dropped by postZeroWaveform).
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
			wf[name] = append(wf[name], fmt.Sprintf("%dfs %s", l.fs, l.val))
		}
		cur[name] = &last{fs: te.Time.Fs, val: v}
	}
	for name, l := range cur {
		wf[name] = append(wf[name], fmt.Sprintf("%dfs %s", l.fs, l.val))
	}
	return wf
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
