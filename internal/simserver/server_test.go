package simserver_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/simserver"
)

// counterSrc is a small self-driving LLHD assembly design (clock
// generator + rising-edge register counter), used where SystemVerilog
// would be overkill.
const counterSrc = `
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %q = sig i32 %z32
  inst @clkgen (i1$ %clk) -> ()
  inst @ff (i1$ %clk) -> (i32$ %q)
}
proc @clkgen (i1$ %clk) -> () {
 entry:
  %period = const time 1ns
  %lo = const i1 0
  %hi = const i1 1
  %zero = const i32 0
  br %loop
 loop:
  %i = phi i32 [%zero, %entry], [%inext, %t2]
  drv i1$ %clk, %hi after %period
  wait %t1 for %period
 t1:
  drv i1$ %clk, %lo after %period
  wait %t2 for %period
 t2:
  %one = const i32 1
  %inext = add i32 %i, %one
  %n = const i32 20
  %more = ult i32 %inext, %n
  br %more, %halted, %loop
 halted:
  halt
}
entity @ff (i1$ %clk) -> (i32$ %q) {
  %delay = const time 1ns
  %one = const i32 1
  %clkp = prb i1$ %clk
  %qp = prb i32$ %q
  %qn = add i32 %qp, %one
  reg i32$ %q, %qn rise %clkp after %delay
}
`

func newTestServer(t *testing.T, cfg simserver.Config) (*simserver.Server, *httptest.Server) {
	t.Helper()
	srv, err := simserver.New(cfg)
	if err != nil {
		t.Fatalf("simserver.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url string, req simserver.Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data
}

// splitStream separates an NDJSON stream body into the delta portion
// (raw bytes, exactly as streamed) and the parsed terminal result.
func splitStream(t *testing.T, body []byte) ([]byte, simserver.Result) {
	t.Helper()
	trimmed := bytes.TrimSuffix(body, []byte("\n"))
	i := bytes.LastIndexByte(trimmed, '\n')
	var deltas, last []byte
	if i < 0 {
		deltas, last = nil, trimmed
	} else {
		deltas, last = body[:i+1], trimmed[i+1:]
	}
	var res simserver.Result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatalf("parsing result line %q: %v", last, err)
	}
	return deltas, res
}

// serialReference runs the design serially through the public Session
// API with a buffered TraceObserver and renders the reference delta
// stream.
func serialReference(t *testing.T, opts ...llhd.SessionOption) []byte {
	t.Helper()
	obs := &llhd.TraceObserver{}
	s, err := llhd.NewSession(append(opts, llhd.WithObserver(obs))...)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	return simserver.RenderTrace(obs)
}

// TestStreamMatchesSerial is the §6.1 determinism contract at the HTTP
// boundary: the streamed delta bytes for rr_arbiter are identical to a
// serial TraceObserver run, on the first (cold) and second (warm)
// submission.
func TestStreamMatchesSerial(t *testing.T) {
	d, err := designs.ByName("rr_arbiter")
	if err != nil {
		t.Fatal(err)
	}
	ref := serialReference(t,
		llhd.FromSystemVerilog(d.Source), llhd.Top(d.Top), llhd.Backend(llhd.Blaze))
	if len(ref) == 0 {
		t.Fatal("empty serial reference")
	}

	_, ts := newTestServer(t, simserver.Config{})
	req := simserver.Request{Design: d.Source, Kind: "sv", Top: d.Top}

	status, body := post(t, ts.URL+"/v1/sim/stream", req)
	if status != http.StatusOK {
		t.Fatalf("cold stream status = %d, body %s", status, body)
	}
	deltas, res := splitStream(t, body)
	if !bytes.Equal(deltas, ref) {
		t.Fatalf("cold streamed deltas differ from serial reference (%d vs %d bytes)",
			len(deltas), len(ref))
	}
	if res.Class != simserver.ClassOK || res.Cache != "miss" {
		t.Fatalf("cold result = %+v, want ok/miss", res)
	}
	if res.DeltaSteps == 0 || res.Now == "" {
		t.Fatalf("cold result missing stats: %+v", res)
	}

	status, body = post(t, ts.URL+"/v1/sim/stream", req)
	if status != http.StatusOK {
		t.Fatalf("warm stream status = %d", status)
	}
	deltas, res = splitStream(t, body)
	if !bytes.Equal(deltas, ref) {
		t.Fatal("warm streamed deltas differ from serial reference")
	}
	if res.Cache != "hit" {
		t.Fatalf("warm result = %+v, want a cache hit", res)
	}
}

// TestConcurrentSubmissionsDedupAndMatch pins the tentpole promise: N
// concurrent submissions of one design compile exactly once
// (compile-count hook) and every streamed response byte-matches the
// serial reference.
func TestConcurrentSubmissionsDedupAndMatch(t *testing.T) {
	ref := serialReference(t, llhd.FromModule(mustParse(t)), llhd.Top("top"), llhd.Backend(llhd.Blaze))

	srv, ts := newTestServer(t, simserver.Config{})
	var mu sync.Mutex
	compiles := 0
	srv.Cache().SetCompileHook(func(string) {
		mu.Lock()
		compiles++
		mu.Unlock()
	})

	const n = 8
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = post(t, ts.URL+"/v1/sim/stream",
				simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top"})
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("submission %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		deltas, res := splitStream(t, bodies[i])
		if !bytes.Equal(deltas, ref) {
			t.Fatalf("submission %d: streamed deltas differ from serial reference", i)
		}
		if res.Class != simserver.ClassOK {
			t.Fatalf("submission %d: class %q", i, res.Class)
		}
	}
	if compiles != 1 {
		t.Fatalf("%d concurrent submissions compiled %d times, want exactly 1", n, compiles)
	}
}

func mustParse(t *testing.T) *llhd.Module {
	t.Helper()
	m, err := llhd.ParseAssembly("design", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQuotaRejection: a tiny client step budget dies on the quota and
// the stream endpoint reports it as a mapped HTTP error (429) carrying
// the "step-limit" slug — the lazy-status contract.
func TestQuotaRejection(t *testing.T) {
	_, ts := newTestServer(t, simserver.Config{})
	status, body := post(t, ts.URL+"/v1/sim/stream",
		simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top", Steps: 2})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", status, body)
	}
	_, res := splitStream(t, body)
	if res.Class != "step-limit" {
		t.Fatalf("class = %q, want step-limit (%+v)", res.Class, res)
	}
}

// TestUnboundedRecursionIsQuota: a request body whose function recurses
// without end is answered 429 "step-limit" on both engines — the call
// depth bound turns what used to be Go's unrecoverable stack overflow
// under blaze (one request took the whole server down) into a quota hit —
// and the server goes on to serve the next request.
func TestUnboundedRecursionIsQuota(t *testing.T) {
	const recursive = `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %x = const i32 1
  %r = call i32 @f (i32 %x)
  halt
}
func @f (i32 %x) i32 {
 entry:
  %r = call i32 @f (i32 %x)
  ret i32 %r
}
`
	_, ts := newTestServer(t, simserver.Config{})
	for _, eng := range []string{"blaze", "interp"} {
		status, body := post(t, ts.URL+"/v1/sim/stream",
			simserver.Request{Design: recursive, Kind: "llhd", Top: "top", Engine: eng})
		if status != http.StatusTooManyRequests {
			t.Fatalf("%s: status = %d, want 429; body %s", eng, status, body)
		}
		if _, res := splitStream(t, body); res.Class != "step-limit" {
			t.Fatalf("%s: class = %q, want step-limit (%+v)", eng, res.Class, res)
		}
	}
	status, body := post(t, ts.URL+"/v1/sim",
		simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top"})
	if status != http.StatusOK {
		t.Fatalf("request after the recursive ones: status = %d, body %s", status, body)
	}
}

// TestIllegalDesignIsBadRequest: a design holding an instruction its unit
// kind does not allow is an input error, 400 "bad-request" with the words
// of ir.CheckShape, on both engines. Before sessions checked shape at
// construction this body was a 500 "internal" on interp and a 200 "ok"
// on blaze, the default engine, with the process's drives silently gone.
func TestIllegalDesignIsBadRequest(t *testing.T) {
	const regInProc = `
entity @top () -> () {
  %z = const i1 0
  %a = sig i1 %z
  %q = sig i1 %z
  inst @p (i1$ %a) -> (i1$ %q)
}
proc @p (i1$ %a) -> (i1$ %q) {
 entry:
  %x = prb i1$ %a
  %o = const i1 1
  %d = const time 1ns
  drv i1$ %q, %o after %d
  reg i1$ %q, %x rise %x
  halt
}
`
	_, ts := newTestServer(t, simserver.Config{})
	for _, eng := range []string{"blaze", "interp"} {
		status, body := post(t, ts.URL+"/v1/sim",
			simserver.Request{Design: regInProc, Kind: "llhd", Top: "top", Engine: eng})
		var res simserver.Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("%s: unmarshal: %v (%s)", eng, err, body)
		}
		const want = "ir: @p: %<reg> (reg) in %entry: illegal in proc units"
		if status != http.StatusBadRequest || res.Class != simserver.ClassBadRequest || !strings.HasSuffix(res.Error, want) {
			t.Errorf("%s: status %d, result %+v; want 400 bad-request ending %q", eng, status, res, want)
		}
	}
}

// TestNonStreamingResult: POST /v1/sim returns exactly one Result JSON
// object with the Finish statistics and cache note.
func TestNonStreamingResult(t *testing.T) {
	_, ts := newTestServer(t, simserver.Config{})
	req := simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top"}
	status, body := post(t, ts.URL+"/v1/sim", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var res simserver.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("unmarshal: %v (%s)", err, body)
	}
	if res.Class != simserver.ClassOK || res.DeltaSteps == 0 || res.Cache != "miss" {
		t.Fatalf("result = %+v", res)
	}
	if status, body = post(t, ts.URL+"/v1/sim", req); status != http.StatusOK {
		t.Fatalf("warm status = %d", status)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cache != "hit" {
		t.Fatalf("warm result = %+v, want cache hit", res)
	}
}

// TestInterpEngineMatchesBlaze: the interp path (no cache) streams the
// same bytes as the cached blaze path — the serving layer preserves
// cross-engine trace equivalence.
func TestInterpEngineMatchesBlaze(t *testing.T) {
	_, ts := newTestServer(t, simserver.Config{})
	var streams [2][]byte
	for i, eng := range []string{"blaze", "interp"} {
		status, body := post(t, ts.URL+"/v1/sim/stream",
			simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top", Engine: eng})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", eng, status, body)
		}
		streams[i], _ = splitStream(t, body)
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatal("interp and blaze delta streams differ")
	}
}

// TestBadRequests pins the 400 mapping for malformed submissions.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, simserver.Config{})
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", "{nope"},
		{"empty design", `{}`},
		{"unknown kind", `{"design":"x","kind":"vhdl"}`},
		{"parse error", `{"design":"entity @broken","kind":"llhd"}`},
		{"svsim engine", fmt.Sprintf(`{"design":%q,"kind":"llhd","engine":"svsim"}`, "x")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				data, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, data)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v1/sim")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sim status = %d, want 405", resp.StatusCode)
	}
}

// TestBusyRejection: with one worker held hostage (the compile hook
// blocks), a second submission exhausts its queue wait and degrades
// into a clean 503 "busy" result.
func TestBusyRejection(t *testing.T) {
	srv, ts := newTestServer(t, simserver.Config{Workers: 1, QueueWait: 50 * time.Millisecond})
	release := make(chan struct{})
	var once sync.Once
	srv.Cache().SetCompileHook(func(string) {
		once.Do(func() { <-release })
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		status, body := post(t, ts.URL+"/v1/sim",
			simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top"})
		if status != http.StatusOK {
			t.Errorf("hostage submission: status %d, body %s", status, body)
		}
	}()

	// Wait until the first submission holds the only worker slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Sessions struct{ Active int64 }
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Sessions.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first submission never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, body := post(t, ts.URL+"/v1/sim",
		simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", status, body)
	}
	var res simserver.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Class != simserver.ClassBusy {
		t.Fatalf("class = %q, want busy", res.Class)
	}
	close(release)
	<-done
}

// TestStatsEndpoint sanity-checks the counters surface.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, simserver.Config{})
	post(t, ts.URL+"/v1/sim", simserver.Request{Design: counterSrc, Kind: "llhd", Top: "top"})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache    llhd.CacheStats
		Sessions struct{ Served int64 }
		Quotas   struct{ MaxSteps int }
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Compiles != 1 || stats.Sessions.Served != 1 || stats.Quotas.MaxSteps == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestHealthz covers the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, simserver.Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}
