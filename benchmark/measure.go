package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"llhd"
	"llhd/internal/bitcode"
	"llhd/internal/moore"
)

// leg is one way through the system that ends in a finished
// simulation. input builds the session's source options outside the
// timer.
type leg struct {
	name string
	// fine is how many times finer than the reference's slices this
	// leg's run is sliced: the slow engines take five times as long over
	// the same simulated time, and a slice should stay under a
	// millisecond or so on every engine.
	fine  int
	input func(d *design) ([]llhd.SessionOption, error)
}

func fromSource(k llhd.EngineKind, extra ...func() llhd.SessionOption) func(*design) ([]llhd.SessionOption, error) {
	return func(d *design) ([]llhd.SessionOption, error) {
		opts := []llhd.SessionOption{llhd.FromSystemVerilog(d.source), llhd.Backend(k)}
		for _, e := range extra {
			opts = append(opts, e())
		}
		return opts, nil
	}
}

var legs = []leg{
	{"blaze", 1, fromSource(llhd.Blaze)},
	{"interp", 5, fromSource(llhd.Interp)},
	{"svsim", 5, fromSource(llhd.SVSim)},
	{"blaze_vcd", 1, fromSource(llhd.Blaze, func() llhd.SessionOption { return llhd.WithVCD(&countWriter{}) })},
	{"blaze_lowered", 1, func(d *design) ([]llhd.SessionOption, error) {
		m, err := bitcode.Decode(d.ref.lowered)
		if err != nil {
			return nil, err
		}
		return []llhd.SessionOption{llhd.FromModule(m), llhd.Backend(llhd.Blaze)}, nil
	}},
}

// tally counts ops against the correctness gate.
type tally struct {
	attempted, failed int
	errs              []string // the first few failures, for the report
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// coldStart is the op behind cold_start_ms: source text in, a Blaze
// session ready to run out, no cache.
func coldStart(d *design) (secs float64, err error) {
	t0 := time.Now()
	s, err := llhd.NewSession(llhd.FromSystemVerilog(d.source), llhd.Top(d.top), llhd.Backend(llhd.Blaze))
	secs = time.Since(t0).Seconds()
	if err != nil {
		return secs, fmt.Errorf("%s/cold_start: %w", d.name, err)
	}
	s.Finish()
	return secs, nil
}

// lowerOp is the op behind lower_ms: llhd.Lower to fixpoint on a fresh
// module. Lowering is deterministic, so the result must encode to the
// bytes set-up got.
func lowerOp(d *design) (secs float64, err error) {
	m, err := moore.Compile(d.name, d.source)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = llhd.Lower(m)
	secs = time.Since(t0).Seconds()
	if err != nil {
		return secs, fmt.Errorf("%s/lower: %w", d.name, err)
	}
	enc, err := bitcode.Encode(m)
	if err != nil || !bytes.Equal(enc, d.ref.lowered) {
		return secs, fmt.Errorf("%s/lower: lowered module differs from the set-up lowering (%v)", d.name, err)
	}
	return secs, nil
}

// budget says how long to measure, and how little at least.
type budget struct {
	seconds float64
	min     int // least rounds and blocks, whatever the time
	// unit is the least time a unit spends on its leg: a sweep over the
	// designs that is cheaper is repeated, so a millisecond op is not
	// judged by the handful of samples a second-long op gets.
	unit time.Duration
}

// repeat calls round(i) until share of the time is used (the traced
// run, which keeps its phases apart); a round is only started if one of
// average length still fits.
func (b budget) repeat(share float64, round func(i int)) int {
	t0 := time.Now()
	n := 0
	for {
		round(n)
		n++
		used := time.Since(t0).Seconds()
		if n >= b.min && used+used/float64(n) > b.seconds*share {
			return n
		}
	}
}

// atLeast repeats sweep until d has passed.
func atLeast(d time.Duration, sweep func()) func() {
	return func() {
		for t0 := time.Now(); ; {
			sweep()
			if time.Since(t0) >= d {
				return
			}
		}
	}
}

// simSamples are the timings of the simulation units, per design: the
// slice times of every repetition of an engine leg, the seconds of
// every cold start and lowering.
type simSamples struct {
	leg    map[string]map[*design][][]float64
	cold   map[*design][]float64
	lower  map[*design][]float64
	rounds int
}

// simUnits returns the simulation work of one round as units of one
// leg each: every engine leg, then cold start, then lowering, each over
// all the workload's designs, one op at a time. The design order is
// reshuffled from the seed at the start of every round.
func simUnits(in *inputs, b budget, s *simSamples, t *tally) []func() {
	s.leg = map[string]map[*design][][]float64{}
	s.cold, s.lower = map[*design][]float64{}, map[*design][]float64{}
	rng := rand.New(rand.NewSource(in.seed))
	order := append([]*design(nil), in.sims...)
	var units []func()
	for i, l := range legs {
		i, l := i, l // go.mod says go 1.21: the loop variables are shared
		s.leg[l.name] = map[*design][][]float64{}
		units = append(units, atLeast(b.unit, func() {
			if i == 0 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			for _, d := range order {
				opts, err := l.input(d)
				if err != nil {
					t.op(fmt.Errorf("%s/%s: %w", d.name, l.name, err))
					continue
				}
				times, out, err := simulate(d, l.fine*d.ref.slices, opts...)
				err = d.ref.verify(d, l.name, out, err)
				t.op(err)
				if err == nil {
					s.leg[l.name][d] = append(s.leg[l.name][d], times)
				}
			}
		}))
	}
	sweep := func(op func(*design) (float64, error), into map[*design][]float64) func() {
		return atLeast(b.unit, func() {
			for _, d := range order {
				secs, err := op(d)
				t.op(err)
				if err == nil {
					into[d] = append(into[d], secs)
				}
			}
		})
	}
	return append(units, sweep(coldStart, s.cold), sweep(lowerOp, s.lower), func() { s.rounds++ })
}

// measure is the untraced run: simulation units and schedule blocks
// taken in turn, whichever is further behind its share of the time, so
// that every metric's samples are spread over the whole run. The host's
// speed changes over seconds; a metric measured in one corner of the
// run would report that corner.
func measure(in *inputs, b budget, t *tally) (simSamples, serveSamples) {
	var sim simSamples
	var srv serveSamples
	units := simUnits(in, b, &sim, t)
	simT, srvT, next := 0.0, 0.0, 0
	start := time.Now()
	for time.Since(start).Seconds() < b.seconds || sim.rounds < b.min || srv.blocks < b.min {
		// Collect the last unit's garbage now, not inside this one's ops.
		runtime.GC()
		t0 := time.Now()
		if simT*(1-in.w.simShare) <= srvT*in.w.simShare {
			units[next%len(units)]()
			next++
			simT += time.Since(t0).Seconds()
		} else {
			srv.add(in.srv.runBlock(srv.blocks, in.block(srv.blocks), nil), t)
			srvT += time.Since(t0).Seconds()
		}
	}
	return sim, srv
}

// serveSamples are the served requests of the schedule's blocks.
type serveSamples struct {
	blocks int
	reqs   []served
}

// runServeBlocks drives the schedule, block after block, for share of
// the measuring time (the traced run).
func runServeBlocks(in *inputs, b budget, share float64, t *tally, span func(block int, r request, do func())) serveSamples {
	var s serveSamples
	runtime.GC()
	b.repeat(share, func(i int) { s.add(in.srv.runBlock(i, in.block(i), span), t) })
	return s
}

func (s *serveSamples) add(blk []served, t *tally) {
	for _, r := range blk {
		t.op(r.err)
	}
	s.blocks++
	s.reqs = append(s.reqs, blk...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fastest is the time of an op that was repeated, each repetition timed
// in the same slices: per slice the fastest repetition counts.
//
// Why the fastest and not the median: on a shared host a co-tenant's
// bursts slow most samples by 20-80 % for minutes on end, then stop. The
// median of a run reports whichever regime the run fell into, and two
// runs of one build differ by that much. The fastest sample of a piece
// of work short enough to fit between bursts is the same in both
// regimes. What it hides is cost that does not hit every repetition,
// garbage collection above all; *.allocs_per_run and host.gc_cpu_share
// of the traced run are there for that.
func fastest(reps [][]float64) float64 {
	total := 0.0
	for j := range reps[0] {
		best := reps[0][j]
		for _, r := range reps[1:] {
			best = min(best, r[j])
		}
		total += best
	}
	return total
}

// best is fastest for unsliced samples: the mean of the least tenth. A
// tenth and not the single least, because among hundreds of requests
// the one fastest is an outlier of its own.
func best(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, len(s)/10)
	return sum(s[:k]) / float64(k)
}

// endToEnd turns the samples into the end-to-end metrics. Engine legs:
// per design the fastest slices (see fastest), cycles over that, and the
// geometric mean over designs. Cold start and lowering: per design the
// best tenth of the repetitions, summed over designs. Server: per class
// and design the best tenth of the requests, the mean over a class's
// designs.
func endToEnd(in *inputs, setupSecs float64, sim simSamples, srv serveSamples) map[string]metric {
	m := map[string]metric{"setup_s": {setupSecs, "s"}}
	for _, l := range legs {
		var rates []float64
		for _, d := range in.sims {
			if reps := sim.leg[l.name][d]; len(reps) > 0 {
				rates = append(rates, float64(d.ref.cycles)/fastest(reps))
			}
		}
		m[l.name+"_cycles_per_s"] = metric{geomean(rates), "cycles/s"}
	}
	cold, lower := 0.0, 0.0
	for _, d := range in.sims {
		cold += best(sim.cold[d])
		lower += best(sim.lower[d])
	}
	m["cold_start_ms"] = metric{cold * 1e3, "ms"}
	m["lower_ms"] = metric{lower * 1e3, "ms"}

	// The server, request by request. A class's requests take the designs
	// in turn and the designs differ in cost, so the samples are kept per
	// class and design: of each, the best tenth (a request is a millisecond
	// or two of work, short enough for its fastest tenth to be the same
	// whatever else the host is doing). The best tenth of a whole class
	// would be the requests of its cheapest design and, a tenth being about
	// one design's share, now and then some of the next one's.
	type group struct {
		class  reqClass
		design *design
	}
	var groups []group // in the order first served, so that sums repeat
	secs, first, bytes := map[group][]float64{}, map[group][]float64{}, map[group]int{}
	for _, r := range srv.reqs {
		if r.err != nil {
			continue
		}
		g := group{r.class, r.design}
		if secs[g] == nil {
			groups = append(groups, g)
		}
		secs[g] = append(secs[g], r.rep.secs)
		first[g] = append(first[g], r.rep.firstByte)
		bytes[g] = r.rep.bytes // the same in every reply: check compares them with the reference
	}
	// classMs is the mean over a class's designs of the best tenth.
	classMs := func(c reqClass, samples map[group][]float64) float64 {
		total, n := 0.0, 0
		for _, g := range groups {
			if g.class == c {
				total += best(samples[g])
				n++
			}
		}
		return total / float64(n) * 1e3
	}
	// One closed-loop client without think time completes one request per
	// mean latency: here the mean over the schedule's mix of each class's
	// latency.
	meanMs, n := 0.0, 0
	for c, k := range in.w.mix {
		if k > 0 {
			meanMs += float64(k) * classMs(reqClass(c), secs)
			n += k
		}
	}
	// Stream throughput: the bytes of one stream of each kind over the
	// time they take.
	streamBytes, streamSecs := 0, 0.0
	for _, g := range groups {
		if g.class == clsLong || g.class == clsWarmStream {
			streamBytes += bytes[g]
			streamSecs += best(secs[g])
		}
	}
	m["serve_sessions_per_s"] = metric{1e3 / (meanMs / float64(n)), "1/s"}
	m["serve_warm_ms"] = metric{classMs(clsWarm, secs), "ms"}
	m["serve_cold_ms"] = metric{classMs(clsUnique, secs), "ms"}
	m["serve_ttfd_ms"] = metric{classMs(clsLong, first), "ms"}
	m["serve_stream_mb_per_s"] = metric{float64(streamBytes) / 1e6 / streamSecs, "MB/s"}
	return m
}
