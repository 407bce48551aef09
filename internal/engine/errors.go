package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"llhd/internal/ir"
)

// The error taxonomy: every runtime failure the kernel or an engine
// records is classified as exactly one of these sentinel kinds, wrapped
// in a *RuntimeError that carries the simulation context at the point of
// failure. Callers classify with errors.Is (the RuntimeError unwraps to
// its kind and its cause) and inspect with errors.As.
var (
	// ErrStepLimit: the deterministic instant budget (Engine.StepLimit or
	// a per-wake livelock guard) was exhausted.
	ErrStepLimit = errors.New("step limit exceeded")
	// ErrDeadline: the wall-clock deadline passed (Engine.Deadline, or a
	// context with a deadline).
	ErrDeadline = errors.New("deadline exceeded")
	// ErrCanceled: the governing context was cancelled. A RuntimeError of
	// this kind also matches errors.Is(err, context.Canceled) through its
	// cause.
	ErrCanceled = errors.New("simulation canceled")
	// ErrMemoryLimit: the approximate memory watermark (heap in use,
	// Engine.MemLimit) was exceeded.
	ErrMemoryLimit = errors.New("memory limit exceeded")
	// ErrEventLimit: the event quota (applied + queued events,
	// Engine.EventLimit) was exceeded.
	ErrEventLimit = errors.New("event limit exceeded")
	// ErrAssertFailed: an assertion failure was promoted to an error.
	ErrAssertFailed = errors.New("assertion failed")
	// ErrInternal: an engine defect or a design that provoked one — a
	// recovered panic, a malformed drive, an invalid ProcID.
	ErrInternal = errors.New("internal runtime error")
)

// MaxCallDepth bounds the live function-call chain of one activation in
// both LLHD engines. Neither engine keeps its own call stack — a call
// recurses on the Go stack — so an unbounded recursion in the design would
// end in Go's unrecoverable stack overflow; past this depth the call
// fails as an ErrStepLimit quota hit instead.
const MaxCallDepth = 1000

// kinds lists the taxonomy for classification scans; order matters only
// in that ErrInternal is the fallback and is not scanned.
var kinds = []error{
	ErrStepLimit, ErrDeadline, ErrCanceled,
	ErrMemoryLimit, ErrEventLimit, ErrAssertFailed,
}

// KindName returns the stable short slug of a taxonomy kind ("step-limit",
// "panic", ...), the spelling shared by the fuzzer's failure classes and
// CLI diagnostics. Unknown errors classify as "error".
func KindName(err error) string {
	var re *RuntimeError
	if errors.As(err, &re) && re.Recovered != nil {
		return "panic"
	}
	switch {
	case errors.Is(err, ErrStepLimit):
		return "step-limit"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrMemoryLimit):
		return "memory-limit"
	case errors.Is(err, ErrEventLimit):
		return "event-limit"
	case errors.Is(err, ErrAssertFailed):
		return "assert"
	case errors.Is(err, ErrInternal):
		return "internal"
	}
	return "error"
}

// RuntimeError is a classified simulation failure: the taxonomy kind,
// the underlying cause (if any), and the scheduling context the engine
// was in when it failed. It is the concrete type behind every error the
// kernel records; errors.Is matches both the Kind sentinel and the Cause
// chain (so e.g. a cancellation matches both ErrCanceled and
// context.Canceled).
type RuntimeError struct {
	// Kind is the taxonomy sentinel (ErrStepLimit, ErrInternal, ...).
	Kind error
	// Cause is the wrapped underlying error, when the failure grew out of
	// one (a drive error, ctx.Err(), an interpreter fault). Nil for pure
	// quota hits and recovered panics.
	Cause error
	// Recovered is the recovered panic value for contained panics, nil
	// otherwise.
	Recovered any
	// Stack is the goroutine stack captured at recovery (debug.Stack),
	// nil for non-panic failures. It is printed after the first line of
	// Error(), so the first line stays deterministic for a fixed seed.
	Stack []byte
	// Time, DeltaSteps, and Events locate the failure in simulation
	// progress: the current instant, executed instants, and applied
	// events at the point of failure.
	Time       ir.Time
	DeltaSteps int
	Events     int
	// Proc names the process the engine was initializing or waking, ""
	// when the failure happened outside process execution.
	Proc string
}

// Error renders the failure as one deterministic diagnostic line (kind,
// detail, process, simulation progress), followed by the captured panic
// stack when there is one.
func (e *RuntimeError) Error() string {
	var b strings.Builder
	switch {
	case e.Recovered != nil:
		fmt.Fprintf(&b, "panic: %v", e.Recovered)
	case e.Cause != nil:
		b.WriteString(e.Cause.Error())
	default:
		b.WriteString(e.Kind.Error())
	}
	fmt.Fprintf(&b, " [%s", KindName(e))
	if e.Proc != "" {
		fmt.Fprintf(&b, ", proc %s", e.Proc)
	}
	fmt.Fprintf(&b, ", t=%v, %d instants, %d events]", e.Time, e.DeltaSteps, e.Events)
	if len(e.Stack) > 0 {
		b.WriteByte('\n')
		b.Write(e.Stack)
	}
	return b.String()
}

// Unwrap exposes the kind sentinel and the cause to errors.Is/As.
func (e *RuntimeError) Unwrap() []error {
	out := make([]error, 0, 2)
	if e.Kind != nil {
		out = append(out, e.Kind)
	}
	if e.Cause != nil {
		out = append(out, e.Cause)
	}
	return out
}

// Classify maps an arbitrary error to its taxonomy kind: an existing
// RuntimeError keeps its kind, context errors map to ErrCanceled /
// ErrDeadline, wrapped sentinels are honoured, and everything else is
// ErrInternal.
func Classify(err error) error {
	var re *RuntimeError
	if errors.As(err, &re) {
		return re.Kind
	}
	if errors.Is(err, context.Canceled) {
		return ErrCanceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	for _, k := range kinds {
		if errors.Is(err, k) {
			return k
		}
	}
	return ErrInternal
}

// Capture builds a RuntimeError of the given kind carrying the engine's
// current scheduling context (instant, progress counters, executing
// process). It does not record the error; pair it with SetError.
func (e *Engine) Capture(kind, cause error, recovered any, stack []byte) *RuntimeError {
	return &RuntimeError{
		Kind: kind, Cause: cause, Recovered: recovered, Stack: stack,
		Time: e.Now, DeltaSteps: e.DeltaCount, Events: e.EventCount,
		Proc: e.RunningProc(),
	}
}
