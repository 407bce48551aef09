// Package simserver is the HTTP serving layer over the llhd runtime:
// clients POST a design (LLHD assembly or SystemVerilog) plus a stimulus
// configuration and get back either a single JSON result or an NDJSON
// stream of observer deltas followed by the final result. Sessions run
// under mandatory server-imposed quotas (step, event, wall-clock) and
// farm-style worker scheduling, and blaze compilations go through the
// shared content-addressed design cache, so N submissions of one design
// compile once.
//
// The wire format lives in this file so the server, the CLI (-stats-json
// shares the Result schema), and the smoke/round-trip tests agree on the
// exact bytes: delta lines are rendered by one encoder (deltaEncoder;
// AppendDelta is its string form) whether they come from a live streaming
// session or from a buffered serial TraceObserver reference, which is what
// makes "streamed trace is byte-identical to a serial run" a testable
// contract rather than a hope.
package simserver

import (
	"encoding/json"
	"errors"
	"net/http"

	"llhd"
)

// Request is a simulation submission.
type Request struct {
	// Design is the design source text.
	Design string `json:"design"`
	// Kind declares the source language: "llhd" (assembly, the default)
	// or "sv" (SystemVerilog via the Moore frontend).
	Kind string `json:"kind,omitempty"`
	// Top selects the unit to elaborate (default: last entity).
	Top string `json:"top,omitempty"`
	// Engine selects "blaze" (the default; cache-accelerated) or
	// "interp" (the reference interpreter).
	Engine string `json:"engine,omitempty"`
	// Until bounds simulation time, e.g. "100us"; empty runs to
	// quiescence (under the server quotas).
	Until string `json:"until,omitempty"`
	// Steps and Events request tighter budgets than the server defaults;
	// the server clamps them to its own maxima — a client can shrink its
	// quota, never escape it.
	Steps  int `json:"steps,omitempty"`
	Events int `json:"events,omitempty"`
	// Signals restricts the streamed deltas to these hierarchical paths;
	// empty streams every signal.
	Signals []string `json:"signals,omitempty"`
}

// Delta is one streamed signal change: the settled value of one signal
// at one instant. The stream carries them in simulation order, and
// within an instant in ascending signal-ID order — the kernel's §6.1
// determinism contract — so two runs of one design produce identical
// byte streams.
type Delta struct {
	T   string `json:"t"`
	Sig string `json:"sig"`
	Val string `json:"val"`
}

// Result is the terminal record of a run: the Finish statistics, the
// failure class slug from the error taxonomy ("ok" for a clean run),
// and, for server runs, whether the design was a cache hit. It is the
// last line of a stream, the whole body of a non-streaming response,
// and the llhd-sim -stats-json output.
type Result struct {
	Now               string `json:"now"`
	DeltaSteps        int    `json:"deltaSteps"`
	Events            int    `json:"events"`
	AssertionFailures int    `json:"assertionFailures"`
	// Class is "ok" or the taxonomy slug: "assert", "step-limit",
	// "deadline", "canceled", "memory-limit", "event-limit", "panic",
	// "internal", "bad-request", "busy", or "error".
	Class string `json:"class"`
	Error string `json:"error,omitempty"`
	// Cache reports "hit" or "miss" for cache-routed designs.
	Cache string `json:"cache,omitempty"`
}

// Classes outside the runtime error taxonomy, produced by the serving
// layer itself.
const (
	ClassOK         = "ok"
	ClassBadRequest = "bad-request"
	ClassBusy       = "busy"
)

// ResultFrom folds a session's final statistics and error into the wire
// result. A nil error (and no assertion failures) is class "ok";
// assertion failures without a promoted error still classify as
// "assert", mirroring llhd-sim's exit status 1.
func ResultFrom(st llhd.Finish, err error) Result {
	r := Result{
		Now:               st.Now.String(),
		DeltaSteps:        st.DeltaSteps,
		Events:            st.Events,
		AssertionFailures: st.AssertionFailures,
		Class:             ClassOK,
	}
	if err != nil {
		r.Class = llhd.ErrorClass(err)
		r.Error = err.Error()
	} else if st.AssertionFailures > 0 {
		r.Class = llhd.ErrorClass(llhd.ErrAssertFailed)
	}
	return r
}

// StatusFor maps a result class to its HTTP status, mirroring the
// llhd-sim exit-code mapping: quota classes (exit 2) become 429,
// internal errors and contained panics (exit 3) become 500, assertion
// failures (exit 1) become 422, input errors (also exit 1) become 400,
// and a saturated worker pool is 503.
func StatusFor(class string) int {
	switch class {
	case ClassOK:
		return http.StatusOK
	case "assert":
		return http.StatusUnprocessableEntity
	case "step-limit", "deadline", "canceled", "memory-limit", "event-limit":
		return http.StatusTooManyRequests
	case ClassBadRequest:
		return http.StatusBadRequest
	case ClassBusy:
		return http.StatusServiceUnavailable
	default: // "panic", "internal", "error"
		return http.StatusInternalServerError
	}
}

// AppendDelta appends one NDJSON delta line (newline-terminated) to buf
// and returns the extended slice: the bytes json.Marshal(Delta{t.String(),
// sig, val}) yields, without the marshaller. It is the string form of the
// one delta rendering; the server's stream and RenderTrace go through a
// deltaEncoder, which writes the same line from a signal and a value.
func AppendDelta(buf []byte, t llhd.Time, sig string, val string) []byte {
	buf = append(buf, `{"t":"`...)
	buf = t.Append(buf)
	buf = append(buf, `","sig":`...)
	buf = appendJSONString(buf, sig)
	buf = append(buf, `,"val":`...)
	buf = appendJSONString(buf, val)
	return append(buf, "}\n"...)
}

// appendJSONString appends s as a JSON string literal, byte for byte as
// encoding/json renders it. Printable ASCII that json.Marshal copies
// through is copied through; a string holding anything else (a quote, a
// backslash, the HTML-sensitive <, > and &, a control byte, any non-ASCII
// or invalid UTF-8) is handed to encoding/json itself, so there is no
// second copy of its escaping rules to drift.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			lit, err := json.Marshal(s)
			if err != nil {
				panic(err) // unreachable: a string always marshals
			}
			return append(buf, lit...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// deltaEncoder renders the delta lines of one session. Per signal it
// keeps the bytes of the line that never change — `","sig":<name>,"val":"`,
// the name escaped once — in a table indexed by the dense signal ID, so a
// line is the time, that fragment and the value appended to the caller's
// buffer: no marshaller, no intermediate string, nothing allocated once
// each signal has been seen. The time and the value are appended bare
// because the alphabet of ir.Time.Append and val.Value.Append (digits,
// unit and logic letters, space, comma, brackets, '-', '?') needs no JSON
// escaping; TestDeltaEncoderMatchesMarshal holds both to json.Marshal.
type deltaEncoder struct {
	frags []sigFragment
}

// sigFragment is one table entry; sig guards against a stale or foreign
// entry under the same ID (a trace that mixes engines).
type sigFragment struct {
	sig   *llhd.Signal
	bytes []byte
}

func (d *deltaEncoder) append(buf []byte, t llhd.Time, sig *llhd.Signal, v llhd.Value) []byte {
	buf = append(buf, `{"t":"`...)
	buf = t.Append(buf)
	buf = append(buf, d.fragment(sig)...)
	buf = v.Append(buf)
	return append(buf, "\"}\n"...)
}

func (d *deltaEncoder) fragment(sig *llhd.Signal) []byte {
	if sig.ID >= len(d.frags) {
		d.frags = append(d.frags, make([]sigFragment, sig.ID+1-len(d.frags))...)
	}
	f := &d.frags[sig.ID]
	if f.sig != sig {
		f.sig = sig
		f.bytes = append(appendJSONString([]byte(`","sig":`), sig.Name), `,"val":"`...)
	}
	return f.bytes
}

// AppendResult appends the terminal NDJSON result line to buf.
func AppendResult(buf []byte, r Result) []byte {
	line, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	buf = append(buf, line...)
	return append(buf, '\n')
}

// RenderTrace renders a buffered serial trace in the exact bytes the
// streaming endpoint produces for its delta portion — the reference
// side of the byte-for-byte stream determinism check.
func RenderTrace(o *llhd.TraceObserver) []byte {
	var (
		enc deltaEncoder
		buf []byte
	)
	for _, e := range o.Entries {
		buf = enc.append(buf, e.Time, e.Sig, e.Value)
	}
	return buf
}

// errClass extracts the class for an error produced outside a run,
// defaulting construction and decode failures to bad-request unless the
// error already carries a taxonomy kind.
func errClass(err error) string {
	var re *llhd.RuntimeError
	if errors.As(err, &re) {
		return llhd.ErrorClass(err)
	}
	return ClassBadRequest
}
