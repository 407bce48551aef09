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
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/logic"
	"llhd/internal/val"
)

// Writer streams signal changes as VCD. Create it with NewWriter after
// elaboration (all signals registered), then attach it as an observer.
// The header and the time-zero value dump are written immediately.
type Writer struct {
	w   *bufio.Writer
	err error

	// Dense per-signal-ID tables, matching the kernel's dense observer
	// mask: no hashing on the per-change streaming path. An empty id
	// string means the signal is not dumped.
	ids    []string
	widths []int
	lastFs int64
}

// vcdVar is one dumped signal while the scope tree is being built.
type vcdVar struct {
	sig   *engine.Signal
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
		w:      bufio.NewWriter(w),
		ids:    make([]string, nsig),
		widths: make([]int, nsig),
		lastFs: -1,
	}
	root := &scopeNode{children: map[string]*scopeNode{}}
	var dumped []*engine.Signal
	for _, s := range e.Signals() {
		width, ok := representable(s)
		if !ok {
			continue
		}
		vw.ids[s.ID] = idCode(len(dumped))
		vw.widths[s.ID] = width
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
		scope.vars = append(scope.vars, vcdVar{sig: s, name: leaf, width: width})
	}

	vw.printf("$timescale 1fs $end\n")
	vw.writeScope(root)
	vw.printf("$enddefinitions $end\n")
	vw.printf("#0\n$dumpvars\n")
	for _, s := range dumped {
		vw.writeValue(s, s.Value())
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
		vw.printf("$var wire %d %s %s $end\n", v.width, vw.ids[v.sig.ID], escapeName(v.name))
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
	if sig.ID >= len(vw.ids) || vw.ids[sig.ID] == "" {
		return // not representable (or registered after NewWriter)
	}
	if t.Fs != vw.lastFs {
		vw.printf("#%d\n", t.Fs)
		vw.lastFs = t.Fs
	}
	vw.writeValue(sig, v)
}

// writeValue emits one value-change line for the signal.
func (vw *Writer) writeValue(sig *engine.Signal, v val.Value) {
	id := vw.ids[sig.ID]
	width := vw.widths[sig.ID]
	if width == 1 && v.Kind == val.KindInt {
		vw.printf("%d%s\n", v.Bits&1, id)
		return
	}
	vw.printf("b%s %s\n", bits(v, width), id)
}

// bits renders the value MSB-first using the four VCD value characters
// (0, 1, x, z). Nine-valued logic collapses onto them: forcing/weak levels
// keep their polarity, Z stays z, everything else is x.
func bits(v val.Value, width int) string {
	buf := make([]byte, width)
	switch v.Kind {
	case val.KindInt:
		for i := 0; i < width; i++ {
			buf[width-1-i] = '0' + byte(v.Bits>>uint(i)&1)
		}
	case val.KindLogic:
		lv := v.Logic()
		for i := 0; i < width; i++ {
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
			buf[width-1-i] = c
		}
	default:
		for i := range buf {
			buf[i] = 'x'
		}
	}
	return string(buf)
}

// Flush forces buffered output to the underlying writer and returns the
// first write error encountered, if any.
func (vw *Writer) Flush() error {
	if err := vw.w.Flush(); vw.err == nil && err != nil {
		vw.err = err
	}
	return vw.err
}

func (vw *Writer) printf(format string, args ...any) {
	if vw.err != nil {
		return
	}
	if _, err := fmt.Fprintf(vw.w, format, args...); err != nil {
		vw.err = err
	}
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
