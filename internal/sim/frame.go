package sim

import (
	"fmt"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// frame is the slot-indexed runtime environment of one interpreted unit
// activation: a flat value array indexed by the unit's ir.Numbering, plus a
// generation stamp per slot so a wake or call can invalidate every
// non-constant slot with a single counter bump instead of clearing (or
// worse, re-allocating) the storage. It replaces the map[ir.Value]
// environments the interpreter used to hash on every operand access.
//
// Slots stamped constStamp hold elaboration-time constants: they survive
// reset, so the const prefix of an entity frame is copied exactly once.
type frame struct {
	vals  []val.Value
	stamp []uint64
	gen   uint64

	// Stack memory for var/alloc results, indexed by the same numbering and
	// materialized on the first var/alloc execution (most entities and many
	// processes never touch memory). Slots are live iff their stamp matches
	// gen, so resetting a pooled function frame invalidates them for free.
	mem      []memSlot
	memStamp []uint64

	// Reusable scratch for simultaneous phi assignment on block entry.
	phiVals []val.Value
	phiIDs  []int
}

// memSlot is one var/alloc memory cell.
type memSlot struct {
	v     val.Value
	freed bool
}

// sigTable is the dense signal-reference table of a process or entity
// activation: elaborated bindings seeded from the instance, plus signal
// projections (extf/exts on signals) recorded at runtime. A function
// activation leaves it empty: nothing in a function is a signal.
type sigTable struct {
	sigs     []engine.SigRef // value ID -> signal reference
	sigKnown []bool
}

// seedSigs sizes the table and copies the instance's elaborated bindings.
func (t *sigTable) seedSigs(inst *engine.Instance, n int) {
	t.sigs = make([]engine.SigRef, n)
	t.sigKnown = make([]bool, n)
	refs, bound := inst.BindTable()
	copy(t.sigs, refs)
	copy(t.sigKnown, bound)
}

// sigOf resolves an operand to a signal reference, if it is one.
func (t *sigTable) sigOf(v ir.Value) (engine.SigRef, bool) {
	if id := ir.ValueID(v); id >= 0 && id < len(t.sigKnown) && t.sigKnown[id] {
		return t.sigs[id], true
	}
	return engine.SigRef{}, false
}

// setSig records a runtime signal projection.
func (t *sigTable) setSig(v ir.Value, r engine.SigRef) {
	if id := ir.ValueID(v); id >= 0 {
		t.sigs[id] = r
		t.sigKnown[id] = true
	}
}

// constStamp marks a slot holding an elaboration-time constant; such slots
// are valid under every generation.
const constStamp = ^uint64(0)

// newFrame returns a frame with n value slots.
func newFrame(n int) *frame {
	return &frame{
		vals:  make([]val.Value, n),
		stamp: make([]uint64, n),
		gen:   1,
	}
}

// seedConst installs an elaboration-time constant that survives reset.
func (f *frame) seedConst(id int, v val.Value) {
	f.vals[id] = v
	f.stamp[id] = constStamp
}

// reset invalidates every non-constant value and memory slot in O(1).
func (f *frame) reset() {
	f.gen++
	if f.gen == constStamp { // wrapped: rewind all runtime stamps
		for i, s := range f.stamp {
			if s != constStamp {
				f.stamp[i] = 0
			}
		}
		clear(f.memStamp)
		f.gen = 1
	}
}

// live reports whether slot id was computed this generation (or holds a
// constant).
func (f *frame) live(id int) bool {
	s := f.stamp[id]
	return s == f.gen || s == constStamp
}

// touch marks slot id computed this generation. Constant slots keep the
// constant stamp: re-executing an elaboration-folded pure instruction
// recomputes the identical value, so the slot stays valid across resets
// either way.
func (f *frame) touch(id int) {
	if f.stamp[id] != constStamp {
		f.stamp[id] = f.gen
	}
}

// set stores v into slot id.
func (f *frame) set(id int, v val.Value) {
	f.touch(id)
	f.vals[id] = v
}

// defineMem (re-)binds the memory slot id to the init value, reviving a
// freed slot, matching stack-slot semantics for re-executed var/alloc. The
// memory store materializes on first use.
func (f *frame) defineMem(id int, init val.Value) {
	if f.mem == nil {
		f.mem = make([]memSlot, len(f.vals))
		f.memStamp = make([]uint64, len(f.vals))
	}
	f.mem[id] = memSlot{v: init}
	f.memStamp[id] = f.gen
}

// boolAt reads an operand as a truth value (a nonzero integer) without
// copying the value struct. ok is false when the slot is stale or holds a
// non-integer.
func (f *frame) boolAt(v ir.Value) (truth bool, ok bool) {
	id := ir.ValueID(v)
	if id < 0 || !f.live(id) {
		return false, false
	}
	p := &f.vals[id]
	return p.Bits != 0, p.Kind == val.KindInt
}

// memOf resolves a pointer operand to its live memory slot.
func (f *frame) memOf(ptr ir.Value) (*memSlot, error) {
	in, ok := ptr.(*ir.Inst)
	if !ok {
		return nil, fmt.Errorf("pointer %s is not var/alloc result", ptr)
	}
	id := ir.ValueID(in)
	if id < 0 || id >= len(f.mem) || f.memStamp[id] != f.gen {
		return nil, fmt.Errorf("pointer %s not materialized", ptr)
	}
	s := &f.mem[id]
	if s.freed {
		return nil, fmt.Errorf("use after free through %s", ptr)
	}
	return s, nil
}
