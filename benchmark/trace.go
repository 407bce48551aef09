package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer, or the op
// that made the calls (Parent 0). Every layer is traced from outside,
// around its public functions; spans inside the program are a later
// change. Spans of one op share Op and Round.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       string `json:"op"`
	Round    int    `json:"round"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (s span) ns() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. Every op is made
// from the benchmark's one goroutine.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) begin(parent int, name, op string, round int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		Op: op, Round: round, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	return float64(t.spans[id-1].ns()) / 1e9
}

// opSpan is an open op: layer records one call made on its behalf.
type opSpan struct {
	t     *tracer
	id    int
	op    string
	round int
}

// op opens the root span of one op; op names the kind of op and what
// it runs on ("blaze/fir").
func (t *tracer) op(op string, round int) opSpan {
	return opSpan{t: t, id: t.begin(0, "op", op, round), op: op, round: round}
}

func (o opSpan) layer(name string, f func()) {
	id := o.t.begin(o.id, name, o.op, o.round)
	f()
	o.t.end(id)
}

// done closes the op and returns its duration in seconds.
func (o opSpan) done() float64 { return o.t.end(o.id) }

// selfNs is each span's self time: its duration minus what its child
// spans cover.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.ns()
		if s.Parent != 0 {
			self[s.Parent-1] -= s.ns()
		}
	}
	return self
}

// layerMs is the layer's self time in milliseconds, summed over the
// workload's designs: per op (a kind of op on one design) the calls of
// a round are added up, the best tenth of the rounds counts (see best),
// and the ops are added up.
func (t *tracer) layerMs(name string) float64 { return t.layerMsIn("", name) }

// layerMsIn is layerMs over the ops of one kind ("blaze/").
func (t *tracer) layerMsIn(kind, name string) float64 {
	self := t.selfNs()
	type opRound struct {
		op    string
		round int
	}
	perRound := map[opRound]float64{}
	for i, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.Op, kind) {
			perRound[opRound{s.Op, s.Round}] += float64(self[i]) / 1e6
		}
	}
	perOp := map[string][]float64{}
	for k, ms := range perRound {
		perOp[k.op] = append(perOp[k.op], ms)
	}
	total := 0.0
	for _, ms := range perOp {
		total += best(ms)
	}
	return total
}

// attributed is the share of the ops' wall time that named layer spans
// cover: one minus the root spans' self time over their duration.
func (t *tracer) attributed() float64 {
	self := t.selfNs()
	var own, total int64
	for i, s := range t.spans {
		if s.Parent == 0 {
			own += self[i]
			total += s.ns()
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(own)/float64(total)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
