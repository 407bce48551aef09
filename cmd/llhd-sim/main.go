// Command llhd-sim simulates a hardware design through the unified
// Session API: the reference interpreter by default, the compiled engine
// with -engine blaze, or the AST-level SystemVerilog engine with
// -engine svsim. Input may be LLHD assembly text (.llhd), LLHD bitcode,
// or SystemVerilog source (.sv / .v — required for -engine svsim).
//
// The blaze engine lowers every unit to flat fixed-width bytecode run by
// a threaded dispatch loop; its -trace output is byte-identical to the
// interpreter's.
//
// Usage:
//
//	llhd-sim [-top name] [-engine interp|blaze|svsim] [-t 100us] [-steps N]
//	         [-timeout 30s] [-vcd out.vcd] [-trace] [-stats-json] [-j N]
//	         design.{llhd,bc,sv}
//
// With -j N the design is run as a concurrent sweep: N independent
// sessions over one shared frozen design — whatever the input format, one
// frontend run and one blaze compile, N register files — reporting
// aggregate throughput: the smallest deployment of the llhd.Farm. -trace,
// -vcd, and -stats-json apply to single sessions only.
//
// With -stats-json the final statistics and failure class are emitted as
// one JSON object on stdout, in the same result schema llhd-serve
// returns, so scripts consume CLI runs and server runs identically.
//
// Exit status distinguishes the failure classes of the runtime's error
// taxonomy: 0 for a clean run, 1 for assertion failures (or input
// errors), 2 when a resource quota stopped the run (-steps, -timeout, or
// a library-imposed limit), 3 for an internal runtime error or contained
// engine panic — the structured diagnostic (failure kind, instant,
// process, stack for panics) is printed to stderr.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"llhd"
	"llhd/internal/ir"
	"llhd/internal/simserver"
)

const usageText = `usage: llhd-sim [-top name] [-engine interp|blaze|svsim]
                [-t 100us] [-steps N] [-timeout 30s] [-vcd out.vcd] [-trace]
                [-stats-json] [-j N] design.{llhd,bc,sv}

exit status: 0 ok | 1 assertion failures or input errors
             2 resource quota exceeded (step/deadline/event/memory limit,
               cancellation) | 3 internal runtime error or engine panic

flags:
`

func main() {
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usageText)
		flag.PrintDefaults()
	}
	top := flag.String("top", "", "top unit to elaborate (default: last entity in the module; required for -engine svsim)")
	engineName := flag.String("engine", "interp", "simulation engine: interp, blaze, or svsim")
	limit := flag.String("t", "", "simulation time limit, e.g. 100us (default: run to quiescence)")
	steps := flag.Int("steps", 0, "deterministic instant budget: stop with exit status 2 after N instants (0: unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget: stop with exit status 2 after this long (0: unlimited)")
	trace := flag.Bool("trace", false, "stream every signal change to stdout")
	statsJSON := flag.Bool("stats-json", false, "emit the final statistics and failure class as one JSON object on stdout (the llhd-serve result schema)")
	vcdPath := flag.String("vcd", "", "write the waveform as VCD to this file")
	jobs := flag.Int("j", 1, "run N concurrent sessions over one shared frozen design (sweep mode)")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(1)
	}
	if *jobs > 1 && (*trace || *vcdPath != "" || *statsJSON) {
		fatal(fmt.Errorf("-j %d is a throughput sweep; -trace, -vcd, and -stats-json need a single session", *jobs))
	}
	kind, err := llhd.ParseEngineKind(*engineName)
	if err != nil {
		fatal(err)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	var limitTime llhd.Time
	if *limit != "" {
		t, err := ir.ParseTime(*limit)
		if err != nil {
			fatal(err)
		}
		limitTime = t
	}

	opts := []llhd.SessionOption{
		llhd.Backend(kind),
		llhd.WithDisplay(func(s string) { fmt.Println(s) }),
	}
	if *top != "" {
		opts = append(opts, llhd.Top(*top))
	}
	if *steps > 0 {
		opts = append(opts, llhd.WithStepLimit(*steps))
	}
	if *timeout > 0 {
		opts = append(opts, llhd.WithDeadline(time.Now().Add(*timeout)))
	}

	// Source selection: bitcode by magic, SystemVerilog by extension (or
	// because svsim executes the source directly), assembly otherwise.
	ext := strings.ToLower(filepath.Ext(path))
	switch {
	case bytes.HasPrefix(data, []byte("LLHD")):
		if kind == llhd.SVSim {
			fatal(fmt.Errorf("-engine svsim needs SystemVerilog source, not bitcode"))
		}
		m, err := llhd.DecodeBitcode(data)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, llhd.FromModule(m))
	case ext == ".sv" || ext == ".v" || kind == llhd.SVSim:
		if kind == llhd.SVSim && ext == ".llhd" {
			fatal(fmt.Errorf("-engine svsim needs SystemVerilog source, not LLHD assembly"))
		}
		opts = append(opts, llhd.FromSystemVerilog(string(data)))
	default:
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		m, err := llhd.ParseAssembly(name, string(data))
		if err != nil {
			fatal(err)
		}
		opts = append(opts, llhd.FromModule(m))
	}

	if *jobs > 1 {
		runSweep(*jobs, limitTime, opts)
		return
	}

	if *trace {
		opts = append(opts, llhd.WithObserver(printObserver{}))
	}
	var vcdFile *os.File
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		vcdFile = f
		opts = append(opts, llhd.WithVCD(f))
	}

	sess, err := llhd.NewSession(opts...)
	if err != nil {
		fatal(err)
	}
	runErr := sess.RunUntil(limitTime)
	st := sess.Finish()
	if runErr == nil {
		runErr = sess.Err() // deferred output errors flushed by Finish
	}
	if vcdFile != nil {
		if err := vcdFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if *statsJSON {
		// One JSON object on stdout in the llhd-serve result schema
		// (statistics, failure class slug, error text); diagnostics stay
		// on stderr and the exit status keeps its taxonomy mapping.
		res := simserver.ResultFrom(st, runErr)
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		if runErr != nil {
			fatal(runErr)
		}
		if st.AssertionFailures > 0 {
			os.Exit(1)
		}
		return
	}
	if runErr != nil {
		fatal(runErr)
	}
	fmt.Printf("simulation finished at %v: %d delta steps, %d events, %d assertion failures\n",
		st.Now, st.DeltaSteps, st.Events, st.AssertionFailures)
	if st.AssertionFailures > 0 {
		os.Exit(1)
	}
}

// runSweep fans n identical sessions across the farm's worker pool. The
// jobs carry the same options, so the farm prepares the design once
// (frontend for .sv input, freeze, blaze compile) before the fan-out and
// the n sessions share all static artifacts.
func runSweep(n int, limit llhd.Time, opts []llhd.SessionOption) {
	farmJobs := make([]llhd.FarmJob, n)
	for i := range farmJobs {
		farmJobs[i] = llhd.FarmJob{Name: fmt.Sprintf("session-%d", i), Options: opts, Until: limit}
	}
	var farm llhd.Farm
	t0 := time.Now()
	results := farm.Run(context.Background(), farmJobs...)
	secs := time.Since(t0).Seconds()
	failures := 0
	for _, r := range results {
		if r.Err != nil {
			fatal(fmt.Errorf("%s: %w", r.Name, r.Err))
		}
		failures += r.Stats.AssertionFailures
	}
	st := results[0].Stats
	fmt.Printf("%d sessions finished at %v: %d delta steps each, %d total assertion failures\n",
		n, st.Now, st.DeltaSteps, failures)
	fmt.Printf("sweep took %.3fs: %.1f sims/sec\n", secs, float64(n)/secs)
	if failures > 0 {
		os.Exit(1)
	}
}

// printObserver streams changes to stdout as they settle — bounded
// memory, unlike the retired grow-only trace buffer.
type printObserver struct{}

func (printObserver) OnChange(t llhd.Time, sig *llhd.Signal, v llhd.Value) {
	fmt.Printf("%-14v %s = %s\n", t, sig.Name, v)
}

// fatal prints the diagnostic and exits with the taxonomy-derived status:
// 2 for quota/cancellation errors, 3 for internal runtime errors and
// contained panics, 1 for everything else (I/O, parse, configuration).
// Structured runtime errors print their full context — kind, failing
// instant, executing process, and the captured stack for panics.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llhd-sim:", err)
	var re *llhd.RuntimeError
	code := 1
	switch {
	case errors.Is(err, llhd.ErrStepLimit), errors.Is(err, llhd.ErrDeadline),
		errors.Is(err, llhd.ErrCanceled), errors.Is(err, llhd.ErrMemoryLimit),
		errors.Is(err, llhd.ErrEventLimit):
		code = 2
	case errors.As(err, &re):
		code = 3 // internal runtime error or contained panic
	}
	if errors.As(err, &re) {
		fmt.Fprintf(os.Stderr, "llhd-sim: failure class %s at %v (%d instants, %d events",
			llhd.ErrorClass(err), re.Time, re.DeltaSteps, re.Events)
		if re.Proc != "" {
			fmt.Fprintf(os.Stderr, ", proc %s", re.Proc)
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	os.Exit(code)
}
