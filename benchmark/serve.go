package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"llhd"
	"llhd/internal/ir"
	"llhd/internal/simserver"
)

// clientProcs is the number of CPUs a long-stream request uses: one for
// the handler and one for the client reading beside it (see runBlock).
const clientProcs = 2

// streamRef is the serial reference of one streamed request: the bytes
// a TraceObserver + simserver.RenderTrace produce for the same design
// and time limit, and the statistics the result line must carry.
type streamRef struct {
	sum   [sha256.Size]byte
	bytes int
	fin   llhd.Finish
	trace *llhd.TraceObserver
}

// addStream records the serial reference stream of d run to until.
func (r *reference) addStream(d *design, until string) error {
	var limit llhd.Time
	if until != "" {
		t, err := ir.ParseTime(until)
		if err != nil {
			return err
		}
		limit = t
	}
	obs := &llhd.TraceObserver{}
	s, err := llhd.NewSession(llhd.FromSystemVerilog(d.source), llhd.Top(d.top),
		llhd.Backend(llhd.Blaze), llhd.WithObserver(obs))
	if err != nil {
		return err
	}
	err = s.RunUntil(limit)
	fin := s.Finish()
	if err != nil {
		return fmt.Errorf("%s: reference stream: %w", d.name, err)
	}
	body := simserver.RenderTrace(obs)
	if r.streams == nil {
		r.streams = map[string]*streamRef{}
	}
	r.streams[until] = &streamRef{sum: sha256.Sum256(body), bytes: len(body), fin: fin, trace: obs}
	return nil
}

// request is one scheduled submission with what a correct reply looks
// like.
type request struct {
	class  reqClass
	design *design
	path   string
	body   []byte
	status int
	result string // expected Result.Class
	cache  string // expected Result.Cache
	fin    *llhd.Finish
	stream *streamRef
}

// block generates block i of the request schedule: a pure function of
// (seed, i) that holds exactly the workload's class mix, in an order
// shuffled from the seed. Salts are unique across the whole schedule.
func (in *inputs) block(i int) []request {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(i)))
	var classes []reqClass
	for c, n := range in.w.mix {
		for k := 0; k < n; k++ {
			classes = append(classes, reqClass(c))
		}
	}
	rng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
	// The long streams go last: they are served on two Ps and the rest on
	// one (see runBlock), and the first requests after a change of that
	// pay for it.
	sort.SliceStable(classes, func(a, b int) bool { return classes[a] != clsLong && classes[b] == clsLong })
	out := make([]request, len(classes))
	var nth [numClasses]int
	for k, c := range classes {
		// The j-th request of a class over the whole schedule takes the
		// j-th design in turn. A random draw would now and then leave a
		// warm design untouched for longer than the LRU holds it, and its
		// next request would rightly be a miss.
		turn := i*in.w.mix[c] + nth[c]
		nth[c]++
		out[k] = in.request(c, turn, i*len(classes)+k)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // a Request of strings and ints always marshals
	}
	return b
}

func (in *inputs) request(c reqClass, turn, salt int) request {
	d := in.sims[turn%len(in.sims)]
	if c == clsLLHD {
		d = in.llhd[turn%len(in.llhd)]
	}
	ref := d.ref.streams[d.short]
	r := request{class: c, path: "/v1/sim", status: http.StatusOK, result: simserver.ClassOK,
		cache: "hit", fin: &ref.fin}
	wire := simserver.Request{Design: d.source, Kind: "sv", Top: d.top, Until: d.short}
	switch c {
	case clsWarmStream:
		r.path = "/v1/sim/stream"
		r.stream = ref
	case clsComment:
		wire.Design += fmt.Sprintf("\n// resubmitted %d\n", salt)
	case clsUnique:
		wire.Design += fmt.Sprintf("\nmodule salt_%[1]d;\n  bit [31:0] k;\n  assign k = 32'd%[1]d;\nendmodule\n", salt)
		r.cache = "miss"
	case clsLLHD:
		wire.Design, wire.Kind = d.asm, "llhd"
	case clsQuota:
		wire.Steps = 10
		r.status, r.result, r.fin = http.StatusTooManyRequests, "step-limit", nil
	case clsLong:
		d = in.long
		wire = simserver.Request{Design: d.source, Kind: "sv", Top: d.top, Until: in.until}
		r.path = "/v1/sim/stream"
		r.stream = d.ref.streams[in.until]
		r.fin = &r.stream.fin
	}
	r.design = d
	r.body = mustJSON(wire)
	return r
}

// server is the in-process simserver behind a real HTTP listener.
type server struct {
	srv  *simserver.Server
	http *httptest.Server
	cli  *http.Client
}

// startServer builds the server and submits every unsalted body once,
// so the measured schedule sees the cache states its classes name.
func startServer(in *inputs) (*server, error) {
	if runtime.NumCPU() < clientProcs {
		return nil, fmt.Errorf("a streaming client reads beside the handler and needs %d CPUs, the machine has %d: "+
			"time to the first byte would measure the scheduler", clientProcs, runtime.NumCPU())
	}
	srv, err := simserver.New(simserver.Config{Workers: 2, CacheCapacity: 64})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	s := &server{srv: srv, http: ts, cli: ts.Client()}
	warm := func(d *design, kind, text string) error {
		body := mustJSON(simserver.Request{Design: text, Kind: kind, Top: d.top})
		rep := s.do(request{path: "/v1/sim", body: body})
		if rep.err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %v", d.name, rep.status, rep.err)
		}
		return nil
	}
	for _, d := range in.sims {
		if err := warm(d, "sv", d.source); err != nil {
			s.close()
			return nil, err
		}
	}
	for _, d := range in.llhd {
		if err := warm(d, "llhd", d.asm); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *server) close() {
	s.cli.CloseIdleConnections()
	s.http.Close()
}

// reply is one observed response.
type reply struct {
	err       error
	status    int
	res       simserver.Result
	deltas    []byte // stream body up to the result line; dropped once checked
	bytes     int    // its length
	secs      float64
	firstByte float64 // seconds until the first body byte
}

// do sends one request and reads the whole reply.
func (s *server) do(r request) (rep reply) {
	t0 := time.Now()
	resp, err := s.cli.Post(s.http.URL+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		rep.err = err
		return rep
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	var first [1]byte
	n, err := io.ReadFull(resp.Body, first[:])
	rep.firstByte = time.Since(t0).Seconds()
	rest, rerr := io.ReadAll(resp.Body)
	rep.secs = time.Since(t0).Seconds()
	if err != nil || rerr != nil {
		rep.err = fmt.Errorf("reading reply: %v %v", err, rerr)
		return rep
	}
	body := append(first[:n], rest...)
	// The result is the last line; a stream carries delta lines before it.
	end := bytes.LastIndexByte(bytes.TrimRight(body, "\n"), '\n') + 1
	rep.deltas, rep.bytes = body[:end], end
	if err := json.Unmarshal(body[end:], &rep.res); err != nil {
		rep.err = fmt.Errorf("decoding result line: %w", err)
	}
	return rep
}

// check is the correctness gate of one reply: status, class and cache
// label as the request's class predicts, the statistics of the
// reference run, and streamed delta bytes equal to the serial trace.
func (r request) check(rep reply) error {
	name := classNames[r.class]
	switch {
	case rep.err != nil:
		return fmt.Errorf("%s: %w", name, rep.err)
	case rep.status != r.status || rep.res.Class != r.result:
		return fmt.Errorf("%s: status %d class %q (%s), want %d %q", name, rep.status, rep.res.Class,
			rep.res.Error, r.status, r.result)
	case rep.res.Cache != r.cache:
		return fmt.Errorf("%s: cache %q, want %q", name, rep.res.Cache, r.cache)
	case r.fin != nil && (rep.res.Now != r.fin.Now.String() || rep.res.DeltaSteps != r.fin.DeltaSteps ||
		rep.res.AssertionFailures != 0):
		return fmt.Errorf("%s: ended at %s after %d steps with %d assertion failures, reference %v after %d",
			name, rep.res.Now, rep.res.DeltaSteps, rep.res.AssertionFailures, r.fin.Now, r.fin.DeltaSteps)
	case r.stream != nil && sha256.Sum256(rep.deltas) != r.stream.sum:
		return fmt.Errorf("%s: %d streamed bytes differ from the %d-byte serial reference", name,
			len(rep.deltas), r.stream.bytes)
	}
	return nil
}

// served is one completed request of the measured schedule.
type served struct {
	class  reqClass
	design *design
	rep    reply
	err    error
}

// runBlock sends one block from the one closed-loop client: a request,
// its reply, the next request. span, if set, wraps each request (the
// traced run).
//
// All classes but the long stream are served on one P: client and
// handler take turns on one thread, and a latency is the work a request
// costs. With two Ps every hand-over between them can be a cross-thread
// wake-up: over twelve 5 s windows the fastest tenth of the warm requests
// of table2_sweep read 0.19-0.26 ms from two clients on two Ps,
// 0.20-0.34 ms from one client on two, 0.17-0.19 ms from one client on
// one. The long stream needs the second P: time to the first byte is the
// time until a reader that runs beside the handler sees it; on one P the
// reader runs when the handler is done.
func (s *server) runBlock(block int, reqs []request, span func(block int, r request, do func())) []served {
	out := make([]served, len(reqs))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i, r := range reqs {
		if r.class == clsLong {
			runtime.GOMAXPROCS(clientProcs) // no-op from the second on: block puts them last
		}
		var rep reply
		if span != nil {
			span(block, r, func() { rep = s.do(r) })
		} else {
			rep = s.do(r)
		}
		err := r.check(rep)
		rep.deltas = nil // megabytes per stream: not kept for the run's length
		out[i] = served{class: r.class, design: r.design, rep: rep, err: err}
	}
	return out
}
