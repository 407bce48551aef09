// Package vcd renders engine observer streams as standard Value Change
// Dump waveforms (IEEE 1364 §18), the interchange format every waveform
// viewer reads. The Writer is an engine.Observer: attach it with
// Engine.Observe (or through the llhd.WithVCD session option) and it
// streams each settled change as it happens — bounded memory, no trace
// accumulation.
//
// Signal hierarchy is reconstructed from the elaborator's dotted signal
// names ("top.sub_1.q" becomes scope top, scope sub_1, var q). Integer,
// enum, and logic-typed signals are dumped; time- and aggregate-typed
// signals have no VCD representation and are skipped (the Writer
// subscribes only to representable signals, so skipped nets cost nothing
// at runtime).
package vcd

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/logic"
	"llhd/internal/val"
)

// Writer streams signal changes as VCD. Create it with NewWriter after
// elaboration (all signals registered), then attach it as an observer.
// The header and the time-zero value dump are written immediately.
//
// The Writer appends, it never formats: every line is appended whole to
// one buffer the Writer owns and reuses, which goes to the underlying
// writer once flushThreshold bytes have gathered and at Flush. A change
// in steady state allocates nothing, and because the buffer only ever
// holds whole lines, whatever reaches the underlying writer ends on a
// line boundary — the waveform of a run that failed half way is
// well-formed up to the failure instant.
type Writer struct {
	w   io.Writer
	buf []byte
	err error

	// vars is the dense per-signal-ID table, matching the kernel's dense
	// observer mask: no hashing on the per-change streaming path.
	vars   []dumpedVar
	lastFs int64
}

// dumpedVar is what the change stream needs of one signal: its width and
// tail, the bytes of its change lines that never change — " <id>\n"; a
// scalar line is the value bit followed by tail[1:]. A nil tail means the
// signal is not dumped.
type dumpedVar struct {
	tail  []byte
	width int
}

// flushThreshold is how many buffered bytes send the buffer to the
// underlying writer.
const flushThreshold = 32 << 10

// vcdVar is one dumped signal while the scope tree is being built.
type vcdVar struct {
	id    string // identifier code
	name  string // leaf name within its scope
	width int
}

// scopeNode is one level of the reconstructed design hierarchy.
type scopeNode struct {
	name     string
	children map[string]*scopeNode
	order    []string // child scope names in first-seen order
	vars     []vcdVar
}

// representable reports whether the signal has a VCD value encoding and
// its bit width.
func representable(s *engine.Signal) (int, bool) {
	ty := s.Type
	if ty == nil {
		return 0, false
	}
	switch ty.Kind {
	case ir.IntKind, ir.LogicKind:
		return ty.Width, true
	case ir.EnumKind:
		return ty.BitWidth(), true
	}
	return 0, false
}

// Signals returns the representable subset of the engine's signals — the
// set a Writer built from the same engine dumps. Use it as the Observe
// subscription so unrepresentable nets never reach the Writer.
func Signals(e *engine.Engine) []*engine.Signal {
	var out []*engine.Signal
	for _, s := range e.Signals() {
		if _, ok := representable(s); ok {
			out = append(out, s)
		}
	}
	return out
}

// NewWriter builds a VCD writer over the engine's elaborated signals and
// immediately emits the header (timescale, scope tree, variable
// definitions) and the time-zero dump of initial values. The caller owns
// w; call Flush when the simulation is done.
func NewWriter(w io.Writer, e *engine.Engine) *Writer {
	nsig := len(e.Signals())
	vw := &Writer{
		w:      w,
		vars:   make([]dumpedVar, nsig),
		lastFs: -1,
	}
	root := &scopeNode{children: map[string]*scopeNode{}}
	var dumped []*engine.Signal
	for _, s := range e.Signals() {
		width, ok := representable(s)
		if !ok {
			continue
		}
		id := idCode(len(dumped))
		vw.vars[s.ID] = dumpedVar{tail: []byte(" " + id + "\n"), width: width}
		dumped = append(dumped, s)
		scope, leaf := root, s.Name
		if parts := strings.Split(s.Name, "."); len(parts) > 1 {
			leaf = parts[len(parts)-1]
			for _, p := range parts[:len(parts)-1] {
				child, ok := scope.children[p]
				if !ok {
					child = &scopeNode{name: p, children: map[string]*scopeNode{}}
					scope.children[p] = child
					scope.order = append(scope.order, p)
				}
				scope = child
			}
		}
		scope.vars = append(scope.vars, vcdVar{id: id, name: leaf, width: width})
	}

	vw.printf("$timescale 1fs $end\n")
	vw.writeScope(root)
	vw.printf("$enddefinitions $end\n")
	vw.printf("#0\n$dumpvars\n")
	for _, s := range dumped {
		vw.buf = appendChange(vw.buf, vw.vars[s.ID], s.Value())
	}
	vw.printf("$end\n")
	vw.lastFs = 0
	return vw
}

// writeScope emits one scope level; the root node has no name and emits
// only its children (top-level signals without a dot land directly under
// no scope, which viewers accept).
func (vw *Writer) writeScope(n *scopeNode) {
	if n.name != "" {
		vw.printf("$scope module %s $end\n", escapeName(n.name))
	}
	// Vars sorted by leaf name for a stable header independent of signal
	// registration order within a scope.
	vars := append([]vcdVar(nil), n.vars...)
	sort.SliceStable(vars, func(i, j int) bool { return vars[i].name < vars[j].name })
	for _, v := range vars {
		vw.printf("$var wire %d %s %s $end\n", v.width, v.id, escapeName(v.name))
	}
	for _, name := range n.order {
		vw.writeScope(n.children[name])
	}
	if n.name != "" {
		vw.printf("$upscope $end\n")
	}
}

// OnChange implements engine.Observer: it streams one settled change.
// Instants that differ only in delta/epsilon steps share one VCD
// timestamp; the last value written under a timestamp wins, matching
// waveform-viewer semantics.
func (vw *Writer) OnChange(t ir.Time, sig *engine.Signal, v val.Value) {
	if vw.err != nil {
		return
	}
	if sig.ID >= len(vw.vars) || vw.vars[sig.ID].tail == nil {
		return // not representable (or registered after NewWriter)
	}
	buf := vw.buf
	if t.Fs != vw.lastFs {
		buf = append(buf, '#')
		buf = strconv.AppendInt(buf, t.Fs, 10)
		buf = append(buf, '\n')
		vw.lastFs = t.Fs
	}
	vw.buf = appendChange(buf, vw.vars[sig.ID], v)
	if len(vw.buf) >= flushThreshold {
		vw.Flush() // the error is sticky: the next call and the caller's Flush see it
	}
}

// appendChange appends one value-change line: the scalar form for a
// two-state bit, the vector form for everything else.
func appendChange(b []byte, dv dumpedVar, v val.Value) []byte {
	if dv.width == 1 && v.Kind == val.KindInt {
		b = append(b, '0'+byte(v.Bits&1))
		return append(b, dv.tail[1:]...)
	}
	b = append(b, 'b')
	b = appendBits(b, v, dv.width)
	return append(b, dv.tail...)
}

// appendBits appends the value MSB-first in the four VCD value characters
// (0, 1, x, z). Nine-valued logic collapses onto them: forcing/weak levels
// keep their polarity, Z stays z, everything else is x.
func appendBits(b []byte, v val.Value, width int) []byte {
	n := len(b)
	b = slices.Grow(b, width)[:n+width]
	out := b[n:]
	switch v.Kind {
	case val.KindInt:
		for i := range out {
			out[width-1-i] = '0' + byte(v.Bits>>uint(i)&1)
		}
	case val.KindLogic:
		lv := v.Logic()
		for i := range out {
			c := byte('x')
			if i < len(lv) {
				l := lv[i]
				switch {
				case l.IsHigh():
					c = '1'
				case l.IsLow():
					c = '0'
				case l == logic.Z:
					c = 'z'
				}
			}
			out[width-1-i] = c
		}
	default:
		for i := range out {
			out[i] = 'x'
		}
	}
	return b
}

// Flush forces buffered output to the underlying writer and returns the
// first write error encountered, if any. The error is sticky: once a
// write has failed the Writer renders nothing more.
func (vw *Writer) Flush() error {
	if vw.err == nil && len(vw.buf) > 0 {
		_, vw.err = vw.w.Write(vw.buf)
	}
	vw.buf = vw.buf[:0]
	return vw.err
}

// printf appends one formatted piece of the header; the change stream
// does not come here.
func (vw *Writer) printf(format string, args ...any) {
	vw.buf = fmt.Appendf(vw.buf, format, args...)
}

// idCode maps a dense variable index onto the VCD identifier alphabet
// (printable ASCII 33..126), little-endian multi-character for indexes
// past 93.
func idCode(n int) string {
	const lo, hi = 33, 126
	const base = hi - lo + 1
	var b []byte
	for {
		b = append(b, byte(lo+n%base))
		n = n/base - 1
		if n < 0 {
			return string(b)
		}
	}
}

// escapeName replaces characters VCD identifiers cannot contain.
func escapeName(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}
