package main

import (
	"fmt"
	"os"
	"time"

	"llhd/internal/assembly"
	"llhd/internal/moore"
)

// reqClass is one class of server request; a workload's mix says how
// many of each make up one block of its schedule.
type reqClass int

const (
	clsWarm       reqClass = iota // identical-source POST /v1/sim: source-memo hit
	clsWarmStream                 // the same through /v1/sim/stream
	clsComment                    // comment-salted source: frontend runs, content-hash hit
	clsUnique                     // constant-salted design: full miss, compile, LRU pressure
	clsLLHD                       // kind:"llhd" assembly submission
	clsQuota                      // steps:10, must be refused with 429 step-limit
	clsLong                       // the workload's long NDJSON stream
	numClasses
)

var classNames = [numClasses]string{"warm", "warm-stream", "comment", "unique", "llhd", "quota", "long"}

// workload is one named set of inputs. All workloads run the same legs
// and report the same metrics; they differ in which designs the legs
// run on and in the request mix, and so in which layer does the work.
type workload struct {
	name string
	why  string
	// simShare is the part of the measuring time given to the engine,
	// cold-start and lowering legs; the server schedule gets the rest.
	simShare float64
	// mix is the number of requests of each class in one schedule block.
	mix [numClasses]int
	// build generates the designs from the seed: the ones every
	// simulation leg runs on, and the one the long-stream class submits
	// with the simulated-time limit it is streamed to ("" = to the end).
	build func(sz sizes, seed int64, dir string) (sims []*design, long *design, until string, err error)
}

// simMix is the block of the three simulation workloads: just the
// classes the serve metrics need, in equal measure.
var simMix = [numClasses]int{clsWarm: 4, clsUnique: 3, clsLong: 3}

var workloads = []workload{
	{
		name:     "rv32i_long",
		why:      "RV32I core running two 5k-cycle kernels: run phase ~95% of the op, bytecode execution and aggregate (array) values do the work",
		simShare: 0.8,
		mix:      simMix,
		build: func(sz sizes, seed int64, dir string) ([]*design, *design, string, error) {
			ds, err := rv32iDesigns(sz, seed, dir)
			if err != nil {
				return nil, nil, "", err
			}
			return ds, ds[0], "2000ns", nil
		},
	},
	{
		name:     "fabric_wide",
		why:      "16 lanes of small scalar modules on one clock, ~350 events per cycle with trivial processes: the shared event kernel does the work",
		simShare: 0.8,
		mix:      simMix,
		build: func(sz sizes, seed int64, dir string) ([]*design, *design, string, error) {
			d, err := fabricDesign(sz.fabricLanes, sz.fabricCyc, seed)
			if err != nil {
				return nil, nil, "", err
			}
			// 50 cycles: 5 ms of Blaze, and streamed in full 0.9 MB.
			d.short = "100ns"
			return []*design{d}, d, d.short, nil
		},
	},
	{
		name:     "table2_sweep",
		why:      "the paper's ten Table 2 designs, ~1 ms runs: frontend, lowering, compile and elaboration do the work, engines little",
		simShare: 0.72,
		mix:      simMix,
		build: func(sz sizes, seed int64, dir string) ([]*design, *design, string, error) {
			ds := table2Designs()
			for _, d := range ds {
				if d.name == "stream_delayer" { // the largest trace of the ten
					return ds, d, "", nil
				}
			}
			return nil, nil, "", fmt.Errorf("table2: no stream_delayer design")
		},
	},
	{
		name:     "serve_mix",
		why:      "mixed request schedule against the in-process server: HTTP, the three cache layers and NDJSON rendering do the work, simulation is small",
		simShare: 0.35,
		mix: [numClasses]int{clsWarm: 70, clsWarmStream: 10, clsComment: 5, clsUnique: 5,
			clsLLHD: 3, clsQuota: 3, clsLong: 4},
		build: func(sz sizes, seed int64, dir string) ([]*design, *design, string, error) {
			long, err := fabricDesign(sz.mixLanes, sz.mixCyc, seed)
			if err != nil {
				return nil, nil, "", err
			}
			return append(table2Designs(), long), long, fmt.Sprintf("%dns", sz.mixCyc), nil
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything set-up produces: the designs with their
// references, and the started server with its warmed cache.
type inputs struct {
	w     *workload
	seed  int64
	dir   string // where the run writes: program images, cache directories, the trace
	sims  []*design
	long  *design
	until string
	// llhd are the designs whose Moore output survives an assembly
	// print/parse round trip (monomorphised unit names do not), each
	// with that text: the bodies of the kind:"llhd" class.
	llhd []*design
	srv  *server
	pins map[string]pin
}

// setUp builds the workload's inputs for a seed: generated sources,
// program images and ISS runs, one reference run per design, the
// serial reference traces of every streamed request, and the server,
// started and warmed. It is everything before the first timed op.
func setUp(w *workload, sz sizes, seed int64, dir string, pins map[string]pin) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sims, long, until, err := w.build(sz, seed, dir)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, dir: dir, sims: sims, long: long, until: until, pins: pins}
	for _, d := range sims {
		if d.ref, err = buildReference(d); err != nil {
			return nil, err
		}
		applyPin(d, seed, pins)
		m, err := moore.Compile(d.name, d.source)
		if err != nil {
			return nil, err
		}
		text := assembly.String(m)
		if _, err := assembly.Parse(d.name, text); err == nil {
			d.asm = text
			in.llhd = append(in.llhd, d)
		}
	}
	if w.mix[clsLLHD] > 0 && len(in.llhd) == 0 {
		return nil, fmt.Errorf("%s: no design round-trips through assembly", w.name)
	}
	// The serial reference of every request: each design run to its
	// short limit, the long-stream design to the stream's.
	for _, d := range sims {
		if err := d.ref.addStream(d, d.short); err != nil {
			return nil, err
		}
	}
	if err := long.ref.addStream(long, until); err != nil {
		return nil, err
	}
	if in.srv, err = startServer(in); err != nil {
		return nil, err
	}
	return in, nil
}

// timedSetUp repeats set-up, each time from scratch, at least minReps
// times and until minSetUpTime has been spent on it (at most
// maxSetUpReps times), and returns the last inputs with every
// duration: one set-up is a single sample on a shared machine, and
// setup_s is gated like any other metric.
func timedSetUp(w *workload, sz sizes, seed int64, dir string, pins map[string]pin, minReps int) (*inputs, []float64, error) {
	var in *inputs
	var secs []float64
	for len(secs) < minReps || (sum(secs) < minSetUpTime && len(secs) < maxSetUpReps && minReps > 1) {
		if in != nil {
			in.srv.close()
		}
		t0 := time.Now()
		var err error
		if in, err = setUp(w, sz, seed, dir, pins); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return in, secs, nil
}
