package llhd

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"llhd/internal/engine"
)

// FarmJob is one simulation to run: a session configuration (the same
// options NewSession takes) plus an optional time limit. Jobs that share a
// design should share it explicitly — the same *Module via FromModule, the
// same *CompiledDesign via FromCompiled, or the same source string via
// FromSystemVerilog; the farm then runs them concurrently over one frozen
// copy instead of N private ones.
type FarmJob struct {
	// Name labels the job in its FarmResult; purely informational.
	Name string
	// Options configure the session, exactly as for NewSession.
	Options []SessionOption
	// Until bounds the run like Session.RunUntil; the zero Time runs the
	// simulation to quiescence.
	Until Time
}

// FarmResult is the outcome of one FarmJob.
type FarmResult struct {
	// Name and Index identify the job (Index is its position in the Run
	// call's job list).
	Name  string
	Index int
	// Stats carries the session's final statistics. When Err is non-nil
	// they still report the partial progress up to the failure (zero if
	// the job failed before its session ran).
	Stats Finish
	// Err is the first error of the job: session construction, runtime,
	// deferred output (VCD flush), or context cancellation. Runtime
	// failures are classified *RuntimeError values — match them with
	// errors.Is against the Err* sentinels; contained panics carry the
	// recovered value and stack (kind ErrInternal).
	Err error
}

// Farm runs many independent simulation sessions concurrently over shared,
// frozen designs — the "one IR, many consumers" deployment shape: N
// parallel stimulus/backend/run-length configurations against a single
// in-memory design, for throughput (parameter sweeps, regression farms)
// or for cross-engine differential testing.
//
// Before any worker starts, Run prepares the shared artifacts serially:
// every module referenced by a job is frozen (Module.Freeze — structural
// mutation afterwards panics), and blaze jobs over a module are compiled
// once per distinct (module, top) pair into a shared CompiledDesign. After
// that preparation all cross-session state is immutable, so the fan-out
// takes no locks anywhere on a simulation path: each session owns its
// engine, frames, register files, and observers outright.
//
// The zero Farm is ready to use.
type Farm struct {
	// Workers caps the number of concurrently running sessions. Zero or
	// negative means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, routes the preparation phase's blaze
	// compilations through the shared content-addressed design cache:
	// jobs whose content matches an already-warm design reuse it without
	// freezing or recompiling, compiles are single-flighted across
	// concurrent Run calls, and warm designs persist across Run calls
	// (unlike the per-Run dedup map used without a cache). A job's own
	// WithDesignCache option takes precedence over the farm-level cache.
	Cache *DesignCache
}

// Run executes the jobs across the worker pool and returns one result per
// job, in job order. It returns when every job has finished or the context
// is cancelled; cancellation is checked between instant batches, so
// long-running simulations stop promptly with ctx.Err() recorded in their
// result. A nil ctx runs without cancellation.
func (f *Farm) Run(ctx context.Context, jobs ...FarmJob) []FarmResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]FarmResult, len(jobs))
	cfgs := make([]*sessionConfig, len(jobs))

	// Serial preparation: freeze shared modules, compile blaze designs
	// once per (module, top). This is the only phase that writes to
	// cross-session state.
	type designKey struct {
		m   *Module
		top string
	}
	compiledCache := map[designKey]*CompiledDesign{}
	for i := range jobs {
		results[i] = FarmResult{Name: jobs[i].Name, Index: i}
		cfg := &sessionConfig{}
		for _, opt := range jobs[i].Options {
			opt(cfg)
		}
		if cfg.cache == nil && f.Cache != nil && cfg.backend == Blaze && cfg.compiled == nil {
			cfg.cache = f.Cache
		}
		if cfg.cache != nil && cfg.module != nil && cfg.compiled == nil &&
			(!cfg.backendSet || cfg.backend == Blaze) {
			// Content-addressed path: the cache resolves freezing and
			// compilation itself (a warm hit does neither) and
			// single-flights compiles across concurrent Run calls.
			cd, _, err := cfg.cache.Load(cfg.module, cfg.top, TierBytecode)
			if err != nil {
				results[i].Err = fmt.Errorf("llhd: farm job %d: %w", i, err)
				continue
			}
			cfg.compiled, cfg.module, cfg.cache = cd, nil, nil
			cfg.backend, cfg.backendSet = Blaze, true
			cfgs[i] = cfg
			continue
		}
		if cfg.module != nil {
			cfg.module.Freeze()
		}
		if cfg.backend == Blaze && cfg.module != nil && cfg.compiled == nil {
			top := cfg.top
			if top == "" {
				top = defaultTop(cfg.module)
			}
			if top == "" {
				results[i].Err = fmt.Errorf("llhd: farm job %d: module has no entity; pass Top(name)", i)
				continue
			}
			key := designKey{cfg.module, top}
			cd, ok := compiledCache[key]
			if !ok {
				var err error
				cd, err = CompileBlaze(cfg.module, top)
				if err != nil {
					results[i].Err = fmt.Errorf("llhd: farm job %d: %w", i, err)
					continue
				}
				compiledCache[key] = cd
			}
			cfg.compiled, cfg.module = cd, nil
		}
		cfgs[i] = cfg
	}

	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i].Stats, results[i].Err = runFarmJob(ctx, cfgs[i], jobs[i].Until)
			}
		}()
	}
	for i := range jobs {
		if cfgs[i] == nil || results[i].Err != nil {
			continue // failed during preparation
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runFarmJob builds and runs one session under the farm's context. The
// session boundary is the containment layer: panics inside Run/Finish (a
// bug in an engine, or one provoked by a malformed design) come back as
// classified *RuntimeError values with the captured stack, so
// differential harnesses can treat "this design panics an engine" as a
// debuggable finding to report and shrink. The deferred recover here is
// the farm's last-resort backstop for the phases outside any session
// (config application, construction); it captures the stack the same
// way. Cancellation of the farm context is polled by the engine at batch
// granularity (engine.DefaultGovernBatch instants), so long-running jobs
// stop promptly with an ErrCanceled-classified result.
func runFarmJob(ctx context.Context, cfg *sessionConfig, until Time) (stats Finish, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.RuntimeError{
				Kind: engine.ErrInternal, Recovered: r, Stack: debug.Stack(),
			}
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return Finish{}, &engine.RuntimeError{Kind: engine.Classify(cerr), Cause: cerr}
	}
	if cfg.ctx == nil {
		cfg.ctx = ctx // job-level WithContext wins; the farm ctx is the default
	}
	s, err := newSession(cfg)
	if err != nil {
		return Finish{}, err
	}
	runErr := s.RunUntil(until)
	stats = s.Finish()
	if runErr != nil {
		return stats, runErr
	}
	return stats, s.Err()
}
