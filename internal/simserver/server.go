package simserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"llhd"
	"llhd/internal/ir"
)

// Config configures a Server. The zero value is usable: every quota
// falls back to its default — quotas are mandatory, not optional, so a
// zero field means "the server default", never "unlimited".
type Config struct {
	// Cache is the shared design cache; nil builds a private one from
	// CacheCapacity/CacheDir.
	Cache *llhd.DesignCache
	// CacheCapacity bounds resident compiled designs when the server
	// builds its own cache (0: unbounded).
	CacheCapacity int
	// CacheDir enables the persistent on-disk cache layer.
	CacheDir string
	// Workers caps concurrently running sessions (default GOMAXPROCS);
	// excess submissions queue up to QueueWait, then get 503.
	Workers int
	// QueueWait bounds how long a submission waits for a worker slot
	// (default 5s).
	QueueWait time.Duration
	// MaxSteps is the instant budget imposed on every session (default
	// 50M). Clients may request less, never more.
	MaxSteps int
	// MaxEvents is the event-traffic budget (default 200M).
	MaxEvents int
	// MaxWall is the wall-clock budget per session (default 30s).
	MaxWall time.Duration
	// MaxBody bounds the request body (default 8 MiB).
	MaxBody int64
}

const (
	defaultMaxSteps  = 50_000_000
	defaultMaxEvents = 200_000_000
	defaultMaxWall   = 30 * time.Second
	defaultMaxBody   = 8 << 20
	defaultQueueWait = 5 * time.Second

	// streamFlushThreshold is how many buffered NDJSON bytes trigger the
	// first flush. Until it is crossed the HTTP status stays undecided,
	// so short runs that die on a quota report the mapped error status
	// (429 etc.) instead of a 200 with a failure trailer.
	streamFlushThreshold = 32 << 10
)

// Server is the HTTP simulation front end. Create with New; it
// implements http.Handler with these endpoints:
//
//	POST /v1/sim         run a design, respond with one Result JSON
//	POST /v1/sim/stream  run a design, stream NDJSON deltas + Result
//	GET  /v1/stats       cache + scheduling counters
//	GET  /v1/healthz     liveness
type Server struct {
	cfg   Config
	cache *llhd.DesignCache
	sem   chan struct{}
	mux   *http.ServeMux

	served   atomic.Int64
	rejected atomic.Int64
	active   atomic.Int64
}

// New builds the server, applying config defaults and building the
// design cache if none was shared in.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = defaultQueueWait
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = defaultMaxEvents
	}
	if cfg.MaxWall <= 0 {
		cfg.MaxWall = defaultMaxWall
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = defaultMaxBody
	}
	cache := cfg.Cache
	if cache == nil {
		var err error
		cache, err = llhd.NewDesignCache(
			llhd.WithCacheCapacity(cfg.CacheCapacity),
			llhd.WithCacheDir(cfg.CacheDir))
		if err != nil {
			return nil, err
		}
	}
	s := &Server{cfg: cfg, cache: cache, sem: make(chan struct{}, cfg.Workers)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/sim", func(w http.ResponseWriter, r *http.Request) {
		s.handleSim(w, r, false)
	})
	s.mux.HandleFunc("/v1/sim/stream", func(w http.ResponseWriter, r *http.Request) {
		s.handleSim(w, r, true)
	})
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// Cache exposes the server's design cache (for tests and for embedding
// processes that want to pre-warm or inspect it).
func (s *Server) Cache() *llhd.DesignCache { return s.cache }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeResult writes a single JSON result body with the class-mapped
// status.
func writeResult(w http.ResponseWriter, res Result) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(StatusFor(res.Class))
	enc := json.NewEncoder(w)
	_ = enc.Encode(res)
}

func failRequest(w http.ResponseWriter, class string, err error) {
	writeResult(w, Result{Class: class, Error: err.Error()})
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request, stream bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		failRequest(w, ClassBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Design == "" {
		failRequest(w, ClassBadRequest, fmt.Errorf("empty design"))
		return
	}

	// Admission: wait for a worker slot, bounded by QueueWait and the
	// client's own patience. A saturated pool degrades into a clean 503,
	// never an unbounded queue.
	queueTimer := time.NewTimer(s.cfg.QueueWait)
	defer queueTimer.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-queueTimer.C:
		s.rejected.Add(1)
		failRequest(w, ClassBusy, fmt.Errorf("all %d workers busy", s.cfg.Workers))
		return
	case <-r.Context().Done():
		s.rejected.Add(1)
		failRequest(w, ClassBusy, fmt.Errorf("client gave up waiting for a worker: %v", r.Context().Err()))
		return
	}
	defer func() { <-s.sem }()
	s.active.Add(1)
	defer s.active.Add(-1)
	s.served.Add(1)

	res, sw := s.runSession(w, r, &req, stream)
	if sw != nil {
		sw.finish(res)
		return
	}
	writeResult(w, res)
}

// runSession resolves the design (through the cache for blaze), builds
// the session under the mandatory quotas, and runs it. For streaming
// requests it returns the started streamWriter; for plain requests it
// returns sw == nil and the caller writes the single result body.
func (s *Server) runSession(w http.ResponseWriter, r *http.Request, req *Request, stream bool) (Result, *streamWriter) {
	engineKind := llhd.Blaze
	if req.Engine != "" {
		k, err := llhd.ParseEngineKind(req.Engine)
		if err != nil {
			return Result{Class: ClassBadRequest, Error: err.Error()}, nil
		}
		if k == llhd.SVSim {
			return Result{Class: ClassBadRequest, Error: "engine svsim is not served; use interp or blaze"}, nil
		}
		engineKind = k
	}
	var until llhd.Time
	if req.Until != "" {
		t, err := ir.ParseTime(req.Until)
		if err != nil {
			return Result{Class: ClassBadRequest, Error: err.Error()}, nil
		}
		until = t
	}
	kind := req.Kind
	if kind == "" {
		kind = "llhd"
	}

	// Resolve the design. Blaze goes through the content-addressed
	// cache: repeat submissions skip the frontend and the compile.
	var opts []llhd.SessionOption
	cacheNote := ""
	switch {
	case engineKind == llhd.Blaze && kind == "llhd":
		cd, hit, err := s.cache.LoadAssembly("design", req.Design, req.Top, llhd.TierBytecode, false)
		if err != nil {
			return Result{Class: errClass(err), Error: err.Error()}, nil
		}
		opts = append(opts, llhd.FromCompiled(cd))
		cacheNote = cacheLabel(hit)
	case engineKind == llhd.Blaze && kind == "sv":
		cd, hit, err := s.cache.LoadSystemVerilog("design", req.Design, req.Top, llhd.TierBytecode, false)
		if err != nil {
			return Result{Class: errClass(err), Error: err.Error()}, nil
		}
		opts = append(opts, llhd.FromCompiled(cd))
		cacheNote = cacheLabel(hit)
	case kind == "llhd":
		m, err := llhd.ParseAssembly("design", req.Design)
		if err != nil {
			return Result{Class: ClassBadRequest, Error: err.Error()}, nil
		}
		opts = append(opts, llhd.FromModule(m), llhd.Backend(engineKind))
		if req.Top != "" {
			opts = append(opts, llhd.Top(req.Top))
		}
	case kind == "sv":
		opts = append(opts, llhd.FromSystemVerilog(req.Design), llhd.Backend(engineKind))
		if req.Top != "" {
			opts = append(opts, llhd.Top(req.Top))
		}
	default:
		return Result{Class: ClassBadRequest,
			Error: fmt.Sprintf("unknown design kind %q (want llhd or sv)", req.Kind)}, nil
	}

	// Mandatory quotas: the client can shrink its budget, never escape
	// the server's. The request context ties the run to the connection,
	// so a departed client cancels its session within one batch.
	opts = append(opts,
		llhd.WithStepLimit(clampQuota(req.Steps, s.cfg.MaxSteps)),
		llhd.WithEventLimit(clampQuota(req.Events, s.cfg.MaxEvents)),
		llhd.WithDeadline(time.Now().Add(s.cfg.MaxWall)),
		llhd.WithContext(r.Context()),
	)

	var sw *streamWriter
	if stream {
		sw = &streamWriter{w: w}
		opts = append(opts, llhd.WithObserver(streamObserver{sw}, req.Signals...))
	}

	sess, err := llhd.NewSession(opts...)
	if err != nil {
		return Result{Class: errClass(err), Error: err.Error(), Cache: cacheNote}, sw
	}
	runErr := sess.RunUntil(until)
	st := sess.Finish()
	if runErr == nil {
		runErr = sess.Err()
	}
	res := ResultFrom(st, runErr)
	res.Cache = cacheNote
	return res, sw
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// clampQuota resolves a client-requested budget against the server
// maximum: a positive request below the maximum stands, anything else
// (unset, zero, or an attempted escape) becomes the maximum.
func clampQuota(requested, max int) int {
	if requested > 0 && requested < max {
		return requested
	}
	return max
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"cache": st,
		"sessions": map[string]int64{
			"served":   s.served.Load(),
			"rejected": s.rejected.Load(),
			"active":   s.active.Load(),
		},
		"quotas": map[string]any{
			"maxSteps":  s.cfg.MaxSteps,
			"maxEvents": s.cfg.MaxEvents,
			"maxWall":   s.cfg.MaxWall.String(),
			"workers":   s.cfg.Workers,
		},
	})
}

// streamWriter accumulates NDJSON lines and defers the HTTP status
// decision until either streamFlushThreshold bytes are buffered (the
// run is substantial — commit to 200 and start streaming) or the run
// finishes first (map the final class to the status, so quota
// rejections and bad designs surface as proper HTTP errors even on the
// streaming endpoint).
type streamWriter struct {
	w       http.ResponseWriter
	enc     deltaEncoder
	buf     []byte
	started bool
	err     error // first failed Write; sticky: nothing is rendered or written after it
}

// streamObserver adapts the writer to the Observer contract. OnChange
// is invoked synchronously on the session goroutine in the kernel's
// deterministic order, so the buffer needs no locking. Lines are appended
// whole to the one reused buffer, so every flush ends on a line boundary.
type streamObserver struct{ sw *streamWriter }

func (o streamObserver) OnChange(t llhd.Time, sig *llhd.Signal, v llhd.Value) {
	if o.sw.err != nil {
		return
	}
	o.sw.buf = o.sw.enc.append(o.sw.buf, t, sig, v)
	if len(o.sw.buf) >= streamFlushThreshold {
		o.sw.start(http.StatusOK)
		o.sw.flush()
	}
}

func (sw *streamWriter) start(status int) {
	if sw.started {
		return
	}
	sw.started = true
	sw.w.Header().Set("Content-Type", "application/x-ndjson")
	sw.w.Header().Set("X-Content-Type-Options", "nosniff")
	sw.w.WriteHeader(status)
}

func (sw *streamWriter) flush() {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
	if f, ok := sw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// finish appends the terminal result line and flushes everything. If
// streaming never started, the result class decides the HTTP status —
// this is what maps a tiny step-limit run to 429 on the stream
// endpoint.
func (sw *streamWriter) finish(res Result) {
	sw.buf = AppendResult(sw.buf, res)
	sw.start(StatusFor(res.Class))
	sw.flush()
}
