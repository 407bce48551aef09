package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"llhd"
	"llhd/internal/bitcode"
	"llhd/internal/moore"
)

// outcome is what one finished session produced: the part of it no
// optimisation may change (end time, assertion verdict, final values of
// the testbench's own signals, the watched streams) plus the exact
// kernel counts, which are recorded but not gated.
type outcome struct {
	fin    llhd.Finish
	finals string   // digest over sorted "name=value" of top-level signals
	nsig   int      // how many signals the digest covers
	watch  []string // "name=value" per change of a watched signal, in order
}

// watchObserver records the change stream of the watched signals.
type watchObserver struct{ log []string }

func (o *watchObserver) OnChange(_ llhd.Time, sig *llhd.Signal, v llhd.Value) {
	o.log = append(o.log, sig.Name+"="+v.String())
}

// countObserver counts changes; its callback does nothing else, so an
// observed run minus a plain run is the kernel's observer dispatch cost.
type countObserver struct{ n int }

func (o *countObserver) OnChange(llhd.Time, *llhd.Signal, llhd.Value) { o.n++ }

// countWriter discards VCD output and counts its bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// topFinals digests the final value of every signal declared directly
// in the top unit. Engines name child-instance signals differently and
// lowering may inline them away; the testbench's own nets survive both.
func topFinals(s *llhd.Session, top string) (digest string, n int) {
	var lines []string
	prefix := top + "."
	for _, sig := range s.Signals() {
		if rest, ok := strings.CutPrefix(sig.Name, prefix); ok && !strings.Contains(rest, ".") {
			lines = append(lines, sig.Name+"="+sig.Value().String())
		}
	}
	sort.Strings(lines)
	// A net forwarded through several ports can be listed more than
	// once under one name; keep one line per name.
	uniq := slices.Compact(lines)
	h := sha256.Sum256([]byte(strings.Join(uniq, "\n")))
	return hex.EncodeToString(h[:8]), len(uniq)
}

// simulate is the end-to-end op of every engine leg: the options name
// the input (source text, module or compiled design) and the engine;
// the timers cover NewSession, the run and Finish. The run is taken in
// slices of simulated time, each timed on its own (times[0] is
// NewSession, the last is Finish), so that a long run is a series of
// short pieces of work that can be compared across repetitions; see
// fastest. One slice is a plain Run. What the run produced is collected
// after the timers stop.
func simulate(d *design, slices int, opts ...llhd.SessionOption) (times []float64, out outcome, err error) {
	var w *watchObserver
	if len(d.watch) > 0 {
		w = &watchObserver{}
		opts = append(opts, llhd.WithObserver(w, d.watch...))
	}
	opts = append(opts, llhd.Top(d.top))
	t0 := time.Now()
	lap := func() {
		now := time.Now()
		times = append(times, now.Sub(t0).Seconds())
		t0 = now
	}
	s, err := llhd.NewSession(opts...)
	lap()
	if err != nil {
		return times, out, err
	}
	for k := 1; k < slices && err == nil; k++ {
		err = s.RunUntil(llhd.Time{Fs: d.ref.want.fin.Now.Fs * int64(k) / int64(slices)})
		lap()
	}
	if err == nil {
		err = s.Run()
	}
	lap()
	out.fin = s.Finish()
	lap()
	if err == nil {
		err = s.Err()
	}
	out.finals, out.nsig = topFinals(s, d.top)
	if w != nil {
		out.watch = w.log
	}
	return times, out, err
}

// reference is what set-up learned a correct run of a design looks
// like; every timed op is compared against it.
type reference struct {
	cycles int
	want   outcome
	// slices is how many slices of simulated time a timed Blaze run is
	// taken in: one per sliceEvents kernel events of the reference run.
	slices int
	// wantNow is the final simulated time as text, which is how
	// expected.json pins it.
	wantNow string
	// lowered is the bitcode of the design after llhd.Lower; each
	// lowered-leg op decodes a fresh module from it outside the timer, so
	// no op sees state cached on a module by an earlier one.
	lowered []byte
	// streams are the serial reference traces of the streamed requests,
	// by simulated-time limit.
	streams map[string]*streamRef
}

// A timed run is sliced every sliceEvents kernel events of the
// reference run (0.1-0.5 ms of Blaze), into at most maxSlices slices.
const (
	sliceEvents = 200
	maxSlices   = 400
)

// cycleObserver counts testbench cycles on the design's cycle signal.
type cycleObserver struct{ n int }

func (o *cycleObserver) OnChange(_ llhd.Time, sig *llhd.Signal, v llhd.Value) {
	if v.Width > 1 || v.Bits != 0 {
		o.n++
	}
}

// buildReference runs the design once on Blaze to learn its cycle count
// and outcome, checks the outcome against the independent oracles
// available (self-checking assertions, the RV32I ISS), and lowers it.
func buildReference(d *design) (*reference, error) {
	cyc := &cycleObserver{}
	_, out, err := simulate(d, 1, llhd.FromSystemVerilog(d.source), llhd.Backend(llhd.Blaze),
		llhd.WithObserver(cyc, d.cycleSig))
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", d.name, err)
	}
	if out.fin.AssertionFailures != 0 {
		return nil, fmt.Errorf("%s: reference run: %d assertion failures", d.name, out.fin.AssertionFailures)
	}
	if cyc.n == 0 || out.nsig == 0 {
		return nil, fmt.Errorf("%s: reference run saw %d cycles on %s and %d top-level signals",
			d.name, cyc.n, d.cycleSig, out.nsig)
	}
	ref := &reference{cycles: cyc.n, want: out, wantNow: out.fin.Now.String()}
	ref.slices = min(max(out.fin.Events/sliceEvents, 1), maxSlices)
	if err := checkISS(d, out); err != nil {
		return nil, err
	}
	m, err := moore.Compile(d.name, d.source)
	if err != nil {
		return nil, err
	}
	if err := llhd.Lower(m); err != nil {
		return nil, fmt.Errorf("%s: lowering: %w", d.name, err)
	}
	if ref.lowered, err = bitcode.Encode(m); err != nil {
		return nil, fmt.Errorf("%s: encoding lowered module: %w", d.name, err)
	}
	return ref, nil
}

// checkISS compares the watched tohost/dump streams of an RV32I run
// with the instruction-set simulator's: verdict 1 and an equal dump
// stream (the core tags each dump with a sequence number in the upper
// word, which is how equal consecutive values stay distinct changes).
func checkISS(d *design, out outcome) error {
	if d.iss == nil {
		return nil
	}
	var tohost uint64
	var dumps []uint32
	for _, line := range out.watch {
		name, val, _ := strings.Cut(line, "=")
		var v uint64
		if _, err := fmt.Sscan(val, &v); err != nil {
			return fmt.Errorf("%s: watched value %q: %w", d.name, line, err)
		}
		switch {
		case strings.HasSuffix(name, ".tohost"):
			tohost = v
		case strings.HasSuffix(name, ".dump"):
			dumps = append(dumps, uint32(v))
		}
	}
	if tohost != 1 || d.iss.ToHost != 1 {
		return fmt.Errorf("%s: tohost = %d (ISS %d), want 1", d.name, tohost, d.iss.ToHost)
	}
	if len(dumps) != len(d.iss.Dump) {
		return fmt.Errorf("%s: %d dumps, ISS has %d", d.name, len(dumps), len(d.iss.Dump))
	}
	for i := range dumps {
		if dumps[i] != d.iss.Dump[i] {
			return fmt.Errorf("%s: dump %d = %#x, ISS has %#x", d.name, i, dumps[i], d.iss.Dump[i])
		}
	}
	return nil
}

// verify is the correctness gate of one timed op.
func (r *reference) verify(d *design, leg string, out outcome, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s/%s: %w", d.name, leg, err)
	case out.fin.AssertionFailures != 0:
		return fmt.Errorf("%s/%s: %d assertion failures", d.name, leg, out.fin.AssertionFailures)
	case out.fin.Now.String() != r.wantNow:
		return fmt.Errorf("%s/%s: ended at %v, reference at %s", d.name, leg, out.fin.Now, r.wantNow)
	case out.finals != r.want.finals || out.nsig != r.want.nsig:
		return fmt.Errorf("%s/%s: final top-level values %s/%d differ from reference %s/%d",
			d.name, leg, out.finals, out.nsig, r.want.finals, r.want.nsig)
	case strings.Join(out.watch, ",") != strings.Join(r.want.watch, ","):
		return fmt.Errorf("%s/%s: watched streams differ from reference", d.name, leg)
	}
	return nil
}
