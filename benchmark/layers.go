package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"

	"llhd"
	"llhd/internal/assembly"
	"llhd/internal/bitcode"
	"llhd/internal/designcache"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/pass"
	"llhd/internal/simserver"
	"llhd/internal/val"
)

// Shares of the measuring time in the traced run; the fixed probes take
// what they take on top (a few seconds).
const (
	tracedSimShare   = 0.5
	tracedServeShare = 0.3
)

// allocs reads the process's cumulative heap allocation count without
// stopping the world, so it can bracket a Run inside a traced op.
func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// engineSpans are the span names of a staged engine op's build and run calls.
type engineSpans struct{ build, run string }

// layerRun is the state of one traced run: the tracer plus the counts
// taken at the same boundaries as the spans, per round.
type layerRun struct {
	in *inputs
	tr *tracer
	t  *tally

	overhead [2][]float64               // staged op over facade call per design, staged second / first
	count    map[string]map[int]float64 // named count, per round, summed over designs
	inproc   map[*design][]float64      // a warm request's work done in-process, ms
}

func (lr *layerRun) add(name string, round int, v float64) {
	if lr.count[name] == nil {
		lr.count[name] = map[int]float64{}
	}
	lr.count[name][round] += v
}

// countMedian is the median over rounds of a per-round count.
func (lr *layerRun) countMedian(name string) float64 {
	var xs []float64
	for _, v := range lr.count[name] {
		xs = append(xs, v)
	}
	return median(xs)
}

// session runs the three session calls of an engine op as layer spans
// and checks the outcome.
func (lr *layerRun) session(o opSpan, d *design, names engineSpans, opts ...llhd.SessionOption) (err error) {
	var w *watchObserver
	if len(d.watch) > 0 {
		w = &watchObserver{}
		opts = append(opts, llhd.WithObserver(w, d.watch...))
	}
	opts = append(opts, llhd.Top(d.top))
	var s *llhd.Session
	var out outcome
	o.layer(names.build, func() { s, err = llhd.NewSession(opts...) })
	if err != nil {
		return err
	}
	a0 := allocs()
	o.layer(names.run, func() { err = s.Run() })
	a1 := allocs()
	o.layer("session.finish", func() { out.fin = s.Finish() })
	if err == nil {
		err = s.Err()
	}
	out.finals, out.nsig = topFinals(s, d.top)
	if w != nil {
		out.watch = w.log
	}
	lr.add(names.run+".allocs", o.round, float64(a1-a0))
	lr.add(names.run+".events", o.round, float64(out.fin.Events))
	return d.ref.verify(d, o.op, out, err)
}

// stagedRound runs every staged op once over the workload's designs.
func (lr *layerRun) stagedRound(round int) {
	for _, d := range lr.in.sims {
		// The plain facade call beside the staged one, for the staging +
		// tracing overhead; which goes first alternates, because the
		// second of the pair finds warm caches.
		var facadeMs, stagedMs float64
		facade := func() {
			times, out, err := simulate(d, 1, llhd.FromSystemVerilog(d.source), llhd.Backend(llhd.Blaze))
			lr.t.op(d.ref.verify(d, "facade", out, err))
			facadeMs = sum(times) * 1e3
		}
		if round%2 == 0 {
			facade()
		}
		stagedMs, err := lr.blazeOp(d, round)
		lr.t.op(err)
		if round%2 == 1 {
			facade()
		}
		lr.overhead[round%2] = append(lr.overhead[round%2], stagedMs/facadeMs)
		lr.t.op(lr.compiledOp(d, round))
		lr.t.op(lr.interpOp(d, round))
		lr.engineOp("svsim", d, round, engineSpans{"svsim.new", "svsim.run"}, llhd.Backend(llhd.SVSim))
		w := &countWriter{}
		lr.engineOp("vcd", d, round, engineSpans{"vcd.new", "vcd.run"}, llhd.Backend(llhd.Blaze), llhd.WithVCD(w))
		lr.add("vcd.bytes", round, float64(w.n))
		c := &countObserver{}
		lr.engineOp("observed", d, round, engineSpans{"observed.new", "observed.run"}, llhd.Backend(llhd.Blaze), llhd.WithObserver(c))
		lr.add("observed.changes", round, float64(c.n))
		lr.t.op(lr.artifactsOp(d, round))
		lr.t.op(lr.lowerOp(d, round))
		lr.t.op(lr.cacheOp(d, round))
	}
}

// engineOp is one session from source text on the engine and with the
// observers the options name.
func (lr *layerRun) engineOp(leg string, d *design, round int, names engineSpans, opts ...llhd.SessionOption) {
	o := lr.tr.op(leg+"/"+d.name, round)
	err := lr.session(o, d, names, append([]llhd.SessionOption{llhd.FromSystemVerilog(d.source)}, opts...)...)
	o.done()
	lr.t.op(err)
}

// blazeOp is the Blaze op taken apart into the calls the facade makes:
// parse, code generation, compile + elaborate, run, finish. It does the
// facade's work and no more, so its time over the facade call's is what
// staging and tracing cost.
func (lr *layerRun) blazeOp(d *design, round int) (ms float64, err error) {
	o := lr.tr.op("blaze/"+d.name, round)
	defer func() { ms = o.done() * 1e3 }()
	var file *moore.SourceFile
	var m *ir.Module
	o.layer("moore.parse", func() { file, err = moore.ParseFile(d.source) })
	if err != nil {
		return 0, err
	}
	o.layer("moore.codegen", func() { m, err = moore.CompileFile(d.name, file) })
	if err != nil {
		return 0, err
	}
	lr.add("moore.src_kb", round, float64(len(d.source))/1024)
	lr.add("moore.ir_insts", round, float64(insts(m)))
	return 0, lr.session(o, d, engineSpans{"blaze.build", "blaze.run"}, llhd.FromModule(m), llhd.Backend(llhd.Blaze))
}

// compiledOp splits what blaze.build does in one call, the way the
// design cache and the server do it: compile once (llhd.CompileBlaze),
// then elaborate a session from the compiled design.
func (lr *layerRun) compiledOp(d *design, round int) (err error) {
	m, err := moore.Compile(d.name, d.source)
	if err != nil {
		return err
	}
	o := lr.tr.op("compiled/"+d.name, round)
	var cd *llhd.CompiledDesign
	o.layer("blaze.compile", func() { cd, err = llhd.CompileBlaze(m, d.top) })
	if err == nil {
		err = lr.session(o, d, engineSpans{"blaze.elab", "compiled.run"}, llhd.FromCompiled(cd))
	}
	o.done()
	if err != nil {
		return err
	}
	// What a warm request does, in-process: a session from the compiled
	// design, run to the design's request limit. An op of its own, on a
	// collected heap like the schedule block whose requests it is compared
	// with: on one P a collection in progress slows the op it falls into.
	limit, err := ir.ParseTime(d.short)
	if d.short == "" {
		limit, err = llhd.Time{}, nil
	}
	if err != nil {
		return err
	}
	runtime.GC()
	o = lr.tr.op("inproc/"+d.name, round)
	o.layer("inproc.request", func() {
		var s *llhd.Session
		if s, err = llhd.NewSession(llhd.FromCompiled(cd)); err == nil {
			err = s.RunUntil(limit)
			s.Finish()
		}
	})
	lr.inproc[d] = append(lr.inproc[d], o.done()*1e3)
	return err
}

func (lr *layerRun) interpOp(d *design, round int) (err error) {
	o := lr.tr.op("interp/"+d.name, round)
	defer o.done()
	var m *ir.Module
	// One span for the whole frontend: blazeOp already splits it.
	o.layer("moore.compile", func() { m, err = moore.Compile(d.name, d.source) })
	if err != nil {
		return err
	}
	return lr.session(o, d, engineSpans{"sim.elab", "sim.run"}, llhd.FromModule(m), llhd.Backend(llhd.Interp))
}

func insts(m *ir.Module) int {
	n := 0
	for _, u := range m.Units {
		n += u.NumInsts()
	}
	return n
}

// artifactsOp calls the layers that turn a module into stored or
// printed forms and back: verifier, bitcode, content key, assembly,
// freeze. The decoded copy must encode to the same bytes.
func (lr *layerRun) artifactsOp(d *design, round int) (err error) {
	m, err := moore.Compile(d.name, d.source)
	if err != nil {
		return err
	}
	o := lr.tr.op("artifacts/"+d.name, round)
	defer o.done()
	var enc []byte
	var m2 *ir.Module
	var text string
	o.layer("ir.verify", func() { err = ir.Verify(m, ir.Behavioural) })
	if err != nil {
		return err
	}
	o.layer("bitcode.encode", func() { enc, err = bitcode.Encode(m) })
	if err != nil {
		return err
	}
	lr.add("bitcode.bytes", round, float64(len(enc)))
	o.layer("designcache.key", func() { _, _, err = designcache.KeyOf(m, d.top, llhd.TierBytecode) })
	if err != nil {
		return err
	}
	o.layer("bitcode.decode", func() { m2, err = bitcode.Decode(enc) })
	if err != nil {
		return err
	}
	o.layer("assembly.print", func() { text = assembly.String(m) })
	if d.asm != "" {
		o.layer("assembly.parse", func() { _, err = assembly.Parse(d.name, text) })
		if err != nil {
			return err
		}
	}
	o.layer("ir.freeze", func() { m.Freeze() })
	if again, err := bitcode.Encode(m2); err != nil || !bytes.Equal(again, enc) {
		return fmt.Errorf("%s/artifacts: decoded module does not re-encode to the same bytes (%v)", d.name, err)
	}
	return nil
}

// lowerOp replays pass.Pipeline.RunFixpoint's loop (limit 8, as
// llhd.Lower runs it) with a span around each pass application.
func (lr *layerRun) lowerOp(d *design, round int) (err error) {
	m, err := moore.Compile(d.name, d.source)
	if err != nil {
		return err
	}
	o := lr.tr.op("lower/"+d.name, round)
	defer o.done()
	pl := pass.LoweringPipeline()
	for i := 0; i < 8; i++ {
		lr.add("pass.fixpoint_iters", round, 1)
		changed := false
		for _, p := range pl.Passes {
			var c bool
			o.layer("pass."+p.Name(), func() { c, err = p.Run(m) })
			if err != nil {
				return err
			}
			if c {
				lr.add("pass."+p.Name()+"_changed", round, 1)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	lr.add("ir.lowered_insts", round, float64(insts(m)))
	if enc, err := bitcode.Encode(m); err != nil || !bytes.Equal(enc, d.ref.lowered) {
		return fmt.Errorf("%s/lower: replayed pipeline differs from llhd.Lower (%v)", d.name, err)
	}
	return nil
}

// cacheOp calls llhd.DesignCache in each state it can be in for a
// design: miss, source-memo hit, content-hash hit (new source text,
// same module) and a fresh process finding the artifact on disk.
func (lr *layerRun) cacheOp(d *design, round int) error {
	dir, err := os.MkdirTemp(lr.in.dir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mem, err := llhd.NewDesignCache()
	if err != nil {
		return err
	}
	disk1, err := llhd.NewDesignCache(llhd.WithCacheDir(dir))
	if err != nil {
		return err
	}
	if _, _, err := disk1.LoadSystemVerilog("design", d.source, d.top, llhd.TierBytecode, false); err != nil {
		return err
	}
	disk2, err := llhd.NewDesignCache(llhd.WithCacheDir(dir))
	if err != nil {
		return err
	}
	o := lr.tr.op("cache/"+d.name, round)
	defer o.done()
	for _, st := range []struct {
		name string
		dc   *llhd.DesignCache
		src  string
		hit  bool
	}{
		{"designcache.miss", mem, d.source, false},
		{"designcache.source_hit", mem, d.source, true},
		{"designcache.content_hit", mem, d.source + "\n// resubmitted\n", true},
		{"designcache.disk_hit", disk2, d.source, false},
	} {
		var hit bool
		o.layer(st.name, func() {
			_, hit, err = st.dc.LoadSystemVerilog("design", st.src, d.top, llhd.TierBytecode, false)
		})
		if err != nil || hit != st.hit {
			return fmt.Errorf("%s/%s: hit=%v, want %v (%v)", d.name, st.name, hit, st.hit, err)
		}
	}
	if got := disk2.Stats().DiskHits; got != 1 {
		return fmt.Errorf("%s/designcache.disk_hit: %d disk hits, want 1", d.name, got)
	}
	return nil
}

// ---- fixed probes ------------------------------------------------------

// The three kernel shapes of BenchmarkEngineKernel, rebuilt on the
// kernel's public API with processes that do nothing but re-arm.

type toggler struct {
	engine.ProcHandle
	ref engine.SigRef
	bit uint64
}

func (p *toggler) Name() string { return "toggler" }
func (p *toggler) Init(e *engine.Engine) {
	p.bit = 0
	p.Wake(e)
}
func (p *toggler) Wake(e *engine.Engine) {
	e.Subscribe(p.ProcID(), []engine.SigRef{p.ref})
	p.bit ^= 1
	e.Drive(p.ref, val.Int(1, p.bit), ir.Nanoseconds(1))
}

type sink struct {
	engine.ProcHandle
	ref engine.SigRef
}

func (p *sink) Name() string          { return "sink" }
func (p *sink) Init(e *engine.Engine) { e.Subscribe(p.ProcID(), []engine.SigRef{p.ref}) }
func (p *sink) Wake(e *engine.Engine) { e.Subscribe(p.ProcID(), []engine.SigRef{p.ref}) }

type chain struct {
	engine.ProcHandle
	in, out engine.SigRef
}

func (p *chain) Name() string          { return "chain" }
func (p *chain) Init(e *engine.Engine) { e.Subscribe(p.ProcID(), []engine.SigRef{p.in}) }
func (p *chain) Wake(e *engine.Engine) {
	e.Subscribe(p.ProcID(), []engine.SigRef{p.in})
	e.Drive(p.out, e.Probe(p.in), ir.Time{})
}

// kernelShape builds one shape and returns the step to time.
func kernelShape(name string) func() {
	e := engine.New()
	switch name {
	case "drive_storm", "wake_fanout64":
		ref := engine.SigRef{Sig: e.NewSignal("clk", ir.IntType(1), val.Int(1, 0))}
		e.AddProcess(&toggler{ref: ref}, true)
		if name == "wake_fanout64" {
			for i := 0; i < 64; i++ {
				e.AddProcess(&sink{ref: ref}, true)
			}
		}
		e.Init()
		return func() { e.Step() }
	default: // delta_cascade32
		const depth = 32
		sigs := make([]engine.SigRef, depth+1)
		for i := range sigs {
			sigs[i] = engine.SigRef{Sig: e.NewSignal("s", ir.IntType(8), val.Int(8, 0))}
		}
		for i := 0; i < depth; i++ {
			e.AddProcess(&chain{in: sigs[i], out: sigs[i+1]}, true)
		}
		e.Init()
		i := uint64(0)
		return func() {
			i++
			e.Drive(sigs[0], val.Int(8, i), ir.Nanoseconds(1))
			for e.Step() {
			}
		}
	}
}

// kernelProbes times the three shapes; each value is ns per step (per
// cascade for the third), the median of five batches.
func (lr *layerRun) kernelProbes(m map[string]metric) {
	for _, sh := range []struct {
		name  string
		steps int
	}{{"drive_storm", 200_000}, {"wake_fanout64", 20_000}, {"delta_cascade32", 10_000}} {
		step := kernelShape(sh.name)
		for i := 0; i < 256; i++ { // fill the kernel's slot pool and scratch slices
			step()
		}
		var ns, perStep []float64
		for rep := 0; rep < 5; rep++ {
			o := lr.tr.op("probe/engine."+sh.name, rep)
			a0 := allocs()
			o.layer("engine."+sh.name, func() {
				for i := 0; i < sh.steps; i++ {
					step()
				}
			})
			perStep = append(perStep, float64(allocs()-a0)/float64(sh.steps))
			ns = append(ns, o.done()*1e9/float64(sh.steps))
		}
		m["engine."+sh.name+"_ns"] = metric{median(ns), "ns"}
		if sh.name == "drive_storm" {
			m["engine.allocs_per_step"] = metric{median(perStep), "count"}
		}
	}
}

// sessionTable is the per-program table behind the geometric means:
// each Table 2 design on each engine, whatever the workload.
func (lr *layerRun) sessionTable(m map[string]metric) error {
	const reps = 5
	for _, d := range table2Designs() {
		var err error
		if d.ref, err = buildReference(d); err != nil {
			return err
		}
		applyPin(d, lr.in.seed, lr.in.pins)
		for _, l := range legs[:3] {
			var ms []float64
			for rep := 0; rep < reps; rep++ {
				opts, _ := l.input(d)
				o := lr.tr.op("probe/session."+d.name, rep)
				var times []float64
				var out outcome
				o.layer("session."+l.name, func() { times, out, err = simulate(d, 1, opts...) })
				o.done()
				lr.t.op(d.ref.verify(d, l.name, out, err))
				ms = append(ms, sum(times)*1e3)
			}
			m["session."+d.name+"."+l.name+"_ms"] = metric{median(ms), "ms"}
		}
	}
	return nil
}

// farmProbe runs the Table 2 designs as llhd.Farm jobs over shared
// frozen modules, four sessions per design, with one worker and two.
func (lr *layerRun) farmProbe(m map[string]metric) error {
	var jobs []llhd.FarmJob
	for _, d := range table2Designs() {
		mod, err := moore.Compile(d.name, d.source)
		if err != nil {
			return err
		}
		for k := 0; k < 4; k++ {
			jobs = append(jobs, llhd.FarmJob{Name: d.name, Options: []llhd.SessionOption{
				llhd.FromModule(mod), llhd.Top(d.top), llhd.Backend(llhd.Blaze)}})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2} {
		runtime.GOMAXPROCS(workers) // a worker per P: the rest of the run has one
		var rate []float64
		for rep := 0; rep < 5; rep++ {
			farm := llhd.Farm{Workers: workers}
			o := lr.tr.op(fmt.Sprintf("probe/farm.j%d", workers), rep)
			var results []llhd.FarmResult
			o.layer("farm.run", func() { results = farm.Run(context.Background(), jobs...) })
			secs := o.done()
			for _, r := range results {
				var err error
				if r.Err != nil || r.Stats.AssertionFailures != 0 {
					err = fmt.Errorf("farm job %s: %d assertion failures, %v", r.Name, r.Stats.AssertionFailures, r.Err)
				}
				lr.t.op(err)
			}
			rate = append(rate, float64(len(jobs))/secs)
		}
		m[fmt.Sprintf("farm.sims_per_s_j%d", workers)] = metric{median(rate), "1/s"}
	}
	return nil
}

// serverProbes times NDJSON rendering over the buffered long-stream
// trace, and the server's cheapest request.
func (lr *layerRun) serverProbes(m map[string]metric) {
	trace := lr.in.long.ref.streams[lr.in.until].trace
	var perDelta, health []float64
	var buf []byte
	for rep := 0; rep < 5; rep++ {
		o := lr.tr.op("probe/simserver.render", rep)
		o.layer("simserver.render", func() {
			buf = buf[:0]
			for _, e := range trace.Entries {
				buf = simserver.AppendDelta(buf, e.Time, e.Sig.Name, e.Value.String())
			}
		})
		perDelta = append(perDelta, o.done()*1e9/float64(len(trace.Entries)))
	}
	for rep := 0; rep < 50; rep++ {
		o := lr.tr.op("probe/simserver.healthz", rep)
		var err error
		o.layer("simserver.healthz", func() {
			var body []byte
			body, err = lr.in.srv.get("/v1/healthz")
			if err == nil && string(body) != "ok\n" {
				err = fmt.Errorf("healthz answered %q", body)
			}
		})
		health = append(health, o.done()*1e3)
		lr.t.op(err)
	}
	m["simserver.render_ns_per_delta"] = metric{median(perDelta), "ns"}
	m["simserver.healthz_ms"] = metric{median(health), "ms"}
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.cli.Get(s.http.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// ---- the traced run ----------------------------------------------------

// runTraced re-runs the workload with a span around every call into a
// layer, then the fixed probes, and derives the per-layer metrics. The
// spans go to out/trace.json.
func runTraced(in *inputs, b budget, t *tally, res *result) (map[string]metric, error) {
	lr := &layerRun{in: in, tr: newTracer(in.w.name), t: t,
		count: map[string]map[int]float64{}, inproc: map[*design][]float64{}}
	m := map[string]metric{}

	res.Reps["sim_rounds"] = b.repeat(tracedSimShare, lr.stagedRound)
	srv := runServeBlocks(in, b, tracedServeShare, t,
		func(block int, r request, do func()) {
			o := lr.tr.op("request/"+classNames[r.class], block)
			o.layer("simserver.request", do)
			o.done()
		})
	res.Reps["serve_blocks"] = srv.blocks
	lr.kernelProbes(m)
	if err := lr.sessionTable(m); err != nil {
		return nil, err
	}
	if err := lr.farmProbe(m); err != nil {
		return nil, err
	}
	lr.serverProbes(m)
	if err := lr.serverStats(m); err != nil {
		return nil, err
	}
	lr.layerMetrics(m, srv)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["host.peak_heap_mb"] = metric{float64(mem.HeapSys) / 1e6, "MB"}
	m["host.gc_cpu_share"] = metric{mem.GCCPUFraction, "ratio"}
	m["trace.spans"] = metric{float64(len(lr.tr.spans)), "count"}
	m["trace.attributed_share"] = metric{lr.tr.attributed(), "ratio"}
	return m, lr.tr.write(filepath.Join(in.dir, "trace.json"))
}

// serverStats reads the cache counters the server publishes.
func (lr *layerRun) serverStats(m map[string]metric) error {
	body, err := lr.in.srv.get("/v1/stats")
	if err != nil {
		return err
	}
	var st struct {
		Cache    llhd.CacheStats  `json:"cache"`
		Sessions map[string]int64 `json:"sessions"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	m["designcache.hit_ratio"] = metric{float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses), "ratio"}
	m["designcache.compiles"] = metric{float64(st.Cache.Compiles), "count"}
	m["designcache.evictions"] = metric{float64(st.Cache.Evictions), "count"}
	m["simserver.busy_503"] = metric{float64(st.Sessions["rejected"]), "count"}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans and the
// counts taken beside them.
func (lr *layerRun) layerMetrics(m map[string]metric, srv serveSamples) {
	tr := lr.tr
	ms := func(metricName, spanName string) { m[metricName] = metric{tr.layerMs(spanName), "ms"} }
	for _, n := range []string{"moore.parse", "moore.codegen", "ir.verify", "ir.freeze", "assembly.parse",
		"assembly.print", "bitcode.encode", "bitcode.decode", "designcache.key", "designcache.miss",
		"designcache.content_hit", "designcache.source_hit", "designcache.disk_hit", "blaze.compile",
		"blaze.elab", "blaze.run", "sim.elab", "sim.run", "svsim.new", "svsim.run"} {
		ms(n+"_ms", n)
	}
	count := func(name string) { m[name] = metric{lr.countMedian(name), "count"} }
	m["moore.src_kb"] = metric{lr.countMedian("moore.src_kb"), "KB"}
	m["bitcode.bytes"] = metric{lr.countMedian("bitcode.bytes"), "B"}
	count("moore.ir_insts")
	count("ir.lowered_insts")
	count("pass.fixpoint_iters")
	total := 0.0
	seen := map[string]bool{}
	for _, p := range pass.LoweringPipeline().Passes {
		if n := "pass." + p.Name(); !seen[n] {
			seen[n] = true
			ms(n+"_ms", n)
			count(n + "_changed")
			total += m[n+"_ms"].Value
		}
	}
	m["pass.total_ms"] = metric{total, "ms"}

	for _, e := range []struct{ layer, run string }{{"blaze", "blaze.run"}, {"sim", "sim.run"}, {"svsim", "svsim.run"}} {
		events := lr.countMedian(e.run + ".events")
		m[e.layer+".ns_per_event"] = metric{tr.layerMs(e.run) * 1e6 / events, "ns"}
		m[e.layer+".allocs_per_run"] = metric{lr.countMedian(e.run + ".allocs"), "count"}
	}
	exact := exactCounts(lr.in)
	m["engine.delta_steps"] = metric{float64(exact["engine.delta_steps"]), "count"}
	m["engine.events"] = metric{float64(exact["engine.events"]), "count"}

	// What observing costs: a run with the observer minus the plain run.
	plain := tr.layerMs("blaze.run")
	nchanges := lr.countMedian("observed.changes")
	m["engine.null_observer_ns_per_change"] = metric{(tr.layerMs("observed.run") - plain) * 1e6 / nchanges, "ns"}
	vcdMs := tr.layerMs("vcd.run") - plain
	m["vcd.ns_per_change"] = metric{vcdMs * 1e6 / nchanges, "ns"}
	m["vcd.mb_per_s"] = metric{lr.countMedian("vcd.bytes") / 1e6 / (vcdMs / 1e3), "MB/s"}

	// The server, per request class. What HTTP adds to a warm request is
	// a difference of two timings taken minutes apart, so it is taken
	// between their best tenths, design by design (see best).
	lat := map[reqClass][]float64{}
	warm := map[*design][]float64{}
	for _, r := range srv.reqs {
		if r.err != nil {
			continue
		}
		lat[r.class] = append(lat[r.class], r.rep.secs*1e3)
		if r.class == clsWarm {
			warm[r.design] = append(warm[r.design], r.rep.secs*1e3)
		}
	}
	var overhead []float64
	for _, d := range lr.in.sims {
		if len(warm[d]) > 0 && len(lr.inproc[d]) > 0 {
			overhead = append(overhead, best(warm[d])-best(lr.inproc[d]))
		}
	}
	m["simserver.http_overhead_ms"] = metric{sum(overhead) / float64(len(overhead)), "ms"}
	m["simserver.warm_p99_ms"] = metric{quantile(lat[clsWarm], 0.99), "ms"}
	m["simserver.warm_samples"] = metric{float64(len(lat[clsWarm])), "count"}
	m["simserver.cold_p99_ms"] = metric{quantile(lat[clsUnique], 0.99), "ms"}
	m["simserver.rejected_p50_ms"] = metric{median(lat[clsQuota]), "ms"}

	// Staged op over facade call, pair by pair. The second of a pair
	// finds warm caches, so the pairs where the staged op went second
	// and those where it went first are biased opposite ways: take the
	// middle of their two medians.
	over := median(lr.overhead[0])
	if len(lr.overhead[1]) > 0 {
		over = (over + median(lr.overhead[1])) / 2
	}
	m["trace.overhead_share"] = metric{over - 1, "ratio"}
	op := 0.0
	for _, n := range []string{"moore.parse", "moore.codegen", "blaze.build", "blaze.run", "session.finish"} {
		op += tr.layerMsIn("blaze/", n)
	}
	m["blaze.run_share"] = metric{plain / op, "ratio"}
}
