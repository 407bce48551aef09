package llhd

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"llhd/internal/engine"
)

// FarmJob is one simulation to run: a session configuration (the same
// options NewSession takes) plus an optional time limit. Jobs that share a
// design should name it the same way — the same *Module via FromModule,
// the same *CompiledDesign via FromCompiled, or the same source string via
// FromSystemVerilog, with the same Top, Backend and WithDesignCache; the
// farm then runs the frontend, the freeze and the blaze compile once for
// all of them and the sessions run concurrently over that one design.
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
// Before any worker starts, Run prepares the shared artifacts serially,
// once per distinct input (module, compiled design or source string; top;
// backend; cache), exactly as NewSession would for a single session: the
// frontend runs, the module is frozen (structural mutation afterwards
// panics), and blaze jobs get one shared CompiledDesign. After that
// preparation all cross-session state is immutable, so the fan-out takes
// no locks anywhere on a simulation path: each session owns its engine,
// frames, register files, and observers outright.
//
// The zero Farm is ready to use.
type Farm struct {
	// Workers caps the number of concurrently running sessions. Zero or
	// negative means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is the WithDesignCache default of the farm's
	// blaze jobs: a job whose content matches an already-warm design
	// reuses it without freezing or recompiling, compiles are
	// single-flighted across concurrent Run calls, and warm designs
	// persist across Run calls (unlike the per-Run sharing without a
	// cache). A job's own WithDesignCache option takes precedence.
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
	designs := make([]*design, len(jobs))

	// Serial preparation, the only phase that writes cross-session state.
	// A failed preparation fails every job that shares the input.
	type prepared struct {
		d   *design
		err error
	}
	shared := map[designInput]prepared{}
	for i := range jobs {
		results[i] = FarmResult{Name: jobs[i].Name, Index: i}
		cfg := newConfig(jobs[i].Options)
		if cfg.cache == nil && cfg.backend == Blaze && cfg.compiled == nil {
			cfg.cache = f.Cache
		}
		p, ok := shared[cfg.designInput]
		if !ok {
			p.d, p.err = prepare(cfg)
			shared[cfg.designInput] = p
		}
		if p.err != nil {
			results[i].Err = fmt.Errorf("llhd: farm job %d: %w", i, p.err)
			continue
		}
		cfgs[i], designs[i] = cfg, p.d
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
				results[i].Stats, results[i].Err = runFarmJob(ctx, designs[i], cfgs[i], jobs[i].Until)
			}
		}()
	}
	for i := range jobs {
		if designs[i] != nil {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// runFarmJob opens and runs one session under the farm's context. The
// session boundary is the containment layer: panics inside Run/Finish (a
// bug in an engine, or one provoked by a malformed design) come back as
// classified *RuntimeError values with the captured stack, so
// differential harnesses can treat "this design panics an engine" as a
// debuggable finding to report and shrink; open contains its own
// construction, and recoverInternal here is the worker's last resort.
// Cancellation of the farm context is polled by the engine at batch
// granularity (engine.DefaultGovernBatch instants), so long-running jobs
// stop promptly with an ErrCanceled-classified result.
func runFarmJob(ctx context.Context, d *design, cfg *sessionConfig, until Time) (stats Finish, err error) {
	defer recoverInternal(&err)
	if cerr := ctx.Err(); cerr != nil {
		return Finish{}, &engine.RuntimeError{Kind: engine.Classify(cerr), Cause: cerr}
	}
	if cfg.ctx == nil {
		cfg.ctx = ctx // job-level WithContext wins; the farm ctx is the default
	}
	s, err := d.open(cfg)
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
