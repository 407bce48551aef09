// Command benchmark is the repository's performance record: four
// workloads, each run through every engine, the lowering pipeline and
// the simulation server, every output checked, every metric printed by
// name with its unit. See README.md for the definitions.
//
//	go run ./benchmark                                  # all workloads, seed 1
//	go run ./benchmark --workload fabric_wide --seed 7  # one workload, another seed
//	go run ./benchmark --workload serve_mix --trace 1   # per-layer metrics + out/trace.json
//	go run ./benchmark -compare a.json b.json           # two result sets, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// outDir receives everything a run writes: program images, results and
// the trace. It is relative to the directory the command is run from,
// the root of the checkout.
const outDir = "benchmark/out"

// Set-up is repeated for setup_s: at least setUpReps times,
// and until minSetUpTime seconds have gone into it or maxSetUpReps is
// reached, so that a 0.1 s set-up is not judged by three samples.
const (
	setUpReps    = 3
	maxSetUpReps = 9
	minSetUpTime = 1.5
)

// config is one invocation's parameters.
type config struct {
	seed      int64
	trace     bool
	sz        sizes
	budget    budget
	setUpReps int
	dir       string
	pins      map[string]pin
}

// result is the record of one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Reps      map[string]int    `json:"reps"`
	Metrics   map[string]metric `json:"metrics"`
	// Counts are exact, repeatable counts (kernel steps and events, IR
	// and bitcode sizes): recorded for comparison, never gated.
	Counts map[string]int `json:"counts"`
}

// runWorkload sets the workload up, measures it and returns its record.
func runWorkload(w *workload, cfg config) (*result, error) {
	in, setups, err := timedSetUp(w, cfg.sz, cfg.seed, cfg.dir, cfg.pins, cfg.setUpReps)
	if err != nil {
		return nil, err
	}
	defer in.srv.close()
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.budget.seconds,
		Reps: map[string]int{"setup": len(setups)}, Counts: exactCounts(in)}
	var t tally
	b := cfg.budget
	if cfg.trace {
		res.Metrics, err = runTraced(in, b, &t, res)
		if err != nil {
			return nil, err
		}
	} else {
		sim, srv := measure(in, b, &t)
		res.Reps["sim_rounds"], res.Reps["serve_blocks"] = sim.rounds, srv.blocks
		res.Metrics = endToEnd(in, best(setups), sim, srv)
	}
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	return res, nil
}

// exactCounts are the kernel counts of the reference runs, summed over
// the workload's designs.
func exactCounts(in *inputs) map[string]int {
	c := map[string]int{}
	for _, d := range in.sims {
		c["engine.delta_steps"] += d.ref.want.fin.DeltaSteps
		c["engine.events"] += d.ref.want.fin.Events
		c["cycles"] += d.ref.cycles
		c["bitcode.lowered_bytes"] += len(d.ref.lowered)
	}
	return c
}

// host describes the machine and build a result set was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resultSet is the file a run appends to: -compare reads two of them.
type resultSet struct {
	Host host      `json:"host"`
	Runs []*result `json:"runs"`
}

// appendResult adds the run to the result set at path, creating it.
func appendResult(path string, r *result) error {
	var set resultSet
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	set.Host = thisHost()
	set.Runs = append(set.Runs, r)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// report prints every metric by name with its unit, then, as the last
// line, the one JSON object the driver reads.
func report(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  trace %v  reps %v\n", r.Workload, r.Seed, r.Trace, r.Reps)
	for _, n := range names {
		fmt.Printf("  %-36s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, e := range r.Errors {
		fmt.Printf("  FAILED %s\n", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	})
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	fmt.Printf("%s\n", line)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 25, "measuring time per workload")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics and "+outDir+"/trace.json; 0: end-to-end metrics")
	out := fs.String("out", "", "result set to append to (default "+outDir+"/results-<seed>.json)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	writeExpected := fs.Bool("write-expected", false, "print expected.json for seed 1 from this build's reference runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result sets")
		}
		return compareSets(fs.Arg(0), fs.Arg(1))
	}
	if *writeExpected {
		return printExpected()
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, trace: *trace != 0, sz: fullSizes, setUpReps: setUpReps, dir: outDir, pins: pins,
		budget: budget{seconds: *seconds, min: 2, unit: 100 * time.Millisecond}}
	// Everything is measured on one P; the two exceptions (runBlock, the
	// farm probe) raise it for as long as they last. A second P is where
	// the garbage collector, svsim's coroutines and an HTTP reply cross
	// threads, and the price of a cross-thread wake-up is the part of a
	// timing that follows the host's other tenants (README, One P).
	runtime.GOMAXPROCS(1)
	run := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		run = []workload{*w}
	}
	if *out == "" {
		*out = filepath.Join(outDir, fmt.Sprintf("results-%d.json", *seed))
	}
	failed := 0
	for i := range run {
		r, err := runWorkload(&run[i], cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", run[i].name, err)
		}
		report(r)
		if err := appendResult(*out, r); err != nil {
			return err
		}
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their correctness check: these numbers are not a result", failed)
	}
	return nil
}

// printExpected writes the pins of every design at seed 1.
func printExpected() error {
	pins := map[string]pin{}
	for i := range workloads {
		in, err := setUp(&workloads[i], fullSizes, 1, outDir, nil)
		if err != nil {
			return err
		}
		in.srv.close()
		for _, d := range in.sims {
			pins[d.name] = pinOf(d, 1)
		}
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}
