// Package engine implements the discrete-event simulation kernel shared by
// the LLHD reference interpreter (internal/sim), the compiled simulator
// (internal/blaze) and the SystemVerilog interpreter (internal/svsim):
// signals, the (time, delta, epsilon) event queue, process scheduling,
// design elaboration, and streaming change observation.
//
// A process reaches a signal through Probe and Drive only, and arms
// itself through Subscribe and ScheduleWake. One rule retires everything a
// process armed: each process carries a generation, sensitivity entries
// and timeouts record the generation they were armed under, and they count
// only while it is still the process's current one. Subscribe replaces the
// process's sensitivity (it starts a new generation), a one-shot wake and
// Halt start a new generation and arm nothing.
package engine

import (
	"fmt"

	"llhd/internal/ir"
	"llhd/internal/val"
)

// Signal is one elaborated signal net. A signal created by a sig
// instruction inside an instantiated entity appears once per instance.
type Signal struct {
	ID    int
	Name  string // hierarchical name, e.g. "acc_tb.q"
	Type  *ir.Type
	value val.Value

	// subscribers are the processes woken when the value changes, in
	// arming order. Stale entries (see subscription) stay in the list until
	// Step walks it or Subscribe finds it full.
	subscribers []subscription
	// changeStamp marks the step in which the signal last changed,
	// deduplicating multi-drive instants without a per-step map.
	changeStamp uint64
}

// subscription is one sensitivity entry: live only while gen is still the
// generation of procs[proc], exactly like a pending timeout event.
type subscription struct {
	proc ProcID
	gen  uint64
}

// Value returns the signal's current value.
func (s *Signal) Value() val.Value { return s.value }

// ProjKind discriminates signal projections.
type ProjKind uint8

// Projection kinds (§2.5.6: extf and exts on signals).
const (
	ProjField ProjKind = iota // array element or struct field A
	ProjSlice                 // slice [A, A+B)
)

// Proj is one step of a signal projection: a field index or a slice.
type Proj struct {
	Kind ProjKind
	A, B int
}

// SigRef names a signal or a part of one: the root net plus a projection
// path. Probing and driving through the path touches only the selected
// part, which is how LLHD models partially-accessed signals.
type SigRef struct {
	Sig  *Signal
	Path []Proj
}

// Valid reports whether the reference points at a signal.
func (r SigRef) Valid() bool { return r.Sig != nil }

// Extend returns r with one more projection step.
func (r SigRef) Extend(p Proj) SigRef {
	path := make([]Proj, len(r.Path)+1)
	copy(path, r.Path)
	path[len(r.Path)] = p
	return SigRef{Sig: r.Sig, Path: path}
}

// project reads the referenced part out of whole.
func project(whole val.Value, path []Proj) (val.Value, error) {
	v := whole
	for _, p := range path {
		var err error
		switch p.Kind {
		case ProjField:
			v, err = val.ExtF(v, p.A)
		case ProjSlice:
			v, err = val.ExtS(v, p.A, p.B)
		}
		if err != nil {
			return val.Value{}, err
		}
	}
	return v, nil
}

// inject writes part into whole at the path and returns the new whole.
func inject(whole, part val.Value, path []Proj) (val.Value, error) {
	if len(path) == 0 {
		return part, nil
	}
	p := path[0]
	var sub val.Value
	var err error
	switch p.Kind {
	case ProjField:
		sub, err = val.ExtF(whole, p.A)
	case ProjSlice:
		sub, err = val.ExtS(whole, p.A, p.B)
	}
	if err != nil {
		return val.Value{}, err
	}
	newSub, err := inject(sub, part, path[1:])
	if err != nil {
		return val.Value{}, err
	}
	switch p.Kind {
	case ProjField:
		return val.InsF(whole, newSub, p.A)
	case ProjSlice:
		return val.InsS(whole, newSub, p.A, p.B)
	}
	return val.Value{}, fmt.Errorf("engine: bad projection")
}

// Probe reads the current value of the referenced signal part.
func (e *Engine) Probe(r SigRef) val.Value {
	if len(r.Path) == 0 {
		// Whole-signal reads skip the projection walk (and its copies);
		// this is the hot shape — scalar probes in process bodies — and
		// the one Probe inlines with.
		return r.Sig.value
	}
	return e.probePath(r)
}

// probePath reads a signal part through its projection path.
func (e *Engine) probePath(r SigRef) val.Value {
	v, err := project(r.Sig.value, r.Path)
	if err != nil {
		e.SetError(fmt.Errorf("probe %s: %w", r.Sig.Name, err))
		return val.Default(ir.IntType(1))
	}
	return v
}
