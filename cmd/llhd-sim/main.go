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
// process, stack for panics) is printed to stderr. Stdout is buffered
// unless it is a terminal; SIGINT and SIGTERM flush it before the process
// leaves with status 128+signal.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
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
             128+N ended by SIGINT or SIGTERM, after flushing stdout

stdout is buffered (64 KiB) unless it is a terminal: redirected output
appears when the buffer fills and when the program ends.

flags:
`

// stdout is the one writer everything a run prints goes through — trace
// lines, $display text, the closing summary or the -stats-json object —
// so they come out in the order they were produced, in large writes
// instead of one write(2) per signal change. Every way out of the program
// is exit, which flushes it.
var stdout = newOutput(os.Stdout, isTerminal(os.Stdout))

// output is a line-oriented buffered writer. The lock makes a line atomic:
// the sessions of a -j sweep call the display handler from the farm's
// worker goroutines, and the signal handler flushes from its own. A
// bufio.Writer keeps its first write error and returns it from Flush, so
// the writes in between go unchecked.
type output struct {
	mu  sync.Mutex
	w   *bufio.Writer
	tty bool // a person is watching: every line goes out as it is written
}

func newOutput(w io.Writer, tty bool) *output {
	return &output{w: bufio.NewWriterSize(w, 64<<10), tty: tty}
}

func isTerminal(f *os.File) bool {
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// begin locks the writer for one line, end closes the line.
func (o *output) begin() { o.mu.Lock() }

func (o *output) end() {
	if o.tty {
		o.w.Flush()
	}
	o.mu.Unlock()
}

func (o *output) println(s string) {
	o.begin()
	o.w.WriteString(s)
	o.w.WriteByte('\n')
	o.end()
}

func (o *output) printf(format string, args ...any) {
	o.begin()
	fmt.Fprintf(o.w, format, args...)
	o.end()
}

func (o *output) flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.w.Flush()
}

// exit flushes stdout and ends the process; it keeps the lock, so nothing
// is written after the flush. A clean run whose output could not be
// written is not clean.
func exit(code int) {
	stdout.mu.Lock()
	if err := stdout.w.Flush(); err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, "llhd-sim:", err)
		code = 1
	}
	os.Exit(code)
}

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

	// An interrupted run keeps what it printed: flush, then leave with the
	// status a shell reports for a death by that signal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		exit(128 + int(sig.(syscall.Signal)))
	}()

	if flag.NArg() != 1 {
		flag.Usage()
		exit(1)
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
		llhd.WithDisplay(stdout.println),
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
		exit(0)
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
		res, err := json.Marshal(simserver.ResultFrom(st, runErr))
		if err != nil {
			fatal(err)
		}
		stdout.println(string(res))
		if runErr != nil {
			fatal(runErr)
		}
		if st.AssertionFailures > 0 {
			exit(1)
		}
		exit(0)
	}
	if runErr != nil {
		fatal(runErr)
	}
	stdout.printf("simulation finished at %v: %d delta steps, %d events, %d assertion failures\n",
		st.Now, st.DeltaSteps, st.Events, st.AssertionFailures)
	if st.AssertionFailures > 0 {
		exit(1)
	}
	exit(0)
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
	stdout.printf("%d sessions finished at %v: %d delta steps each, %d total assertion failures\n",
		n, st.Now, st.DeltaSteps, failures)
	stdout.printf("sweep took %.3fs: %.1f sims/sec\n", secs, float64(n)/secs)
	if failures > 0 {
		exit(1)
	}
}

// printObserver streams changes to stdout as they settle — bounded
// memory, unlike the retired grow-only trace buffer. A line is the time
// left-aligned in 14 columns, then "name = value", appended piece by piece
// with the value types' own formatters into stdout's buffer.
type printObserver struct{}

func (printObserver) OnChange(t llhd.Time, sig *llhd.Signal, v llhd.Value) {
	const timeColumn = 14
	stdout.begin()
	b := stdout.w.AvailableBuffer()
	b = t.Append(b)
	for len(b) < timeColumn {
		b = append(b, ' ')
	}
	b = append(b, ' ')
	b = append(b, sig.Name...)
	b = append(b, " = "...)
	b = v.Append(b)
	b = append(b, '\n')
	stdout.w.Write(b)
	stdout.end()
}

// fatal prints the diagnostic and exits with the taxonomy-derived status:
// 2 for quota/cancellation errors, 3 for internal runtime errors and
// contained panics, 1 for everything else (I/O, parse, configuration).
// Structured runtime errors print their full context — kind, failing
// instant, executing process, and the captured stack for panics.
func fatal(err error) {
	stdout.flush() // what the run printed comes before the diagnostic
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
	exit(code)
}
