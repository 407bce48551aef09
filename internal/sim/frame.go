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

	// lookup adapts the frame to engine.EvalPure's operand callback. It is
	// built once per frame so the hot loop never allocates a closure.
	lookup func(ir.Value) (val.Value, bool)
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
	f := &frame{
		vals:  make([]val.Value, n),
		stamp: make([]uint64, n),
		gen:   1,
	}
	f.lookup = func(x ir.Value) (val.Value, bool) {
		if id := ir.ValueID(x); id >= 0 {
			return f.get(id)
		}
		return val.Value{}, false
	}
	return f
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

// get returns the value in slot id, if it was computed this generation (or
// is a constant).
func (f *frame) get(id int) (val.Value, bool) {
	if s := f.stamp[id]; s == f.gen || s == constStamp {
		return f.vals[id], true
	}
	return val.Value{}, false
}

// set stores v into slot id. Writes to constant slots keep the constant
// stamp: re-executing an elaboration-folded pure instruction recomputes the
// identical value, so the slot stays valid across resets either way.
func (f *frame) set(id int, v val.Value) {
	if f.stamp[id] != constStamp {
		f.stamp[id] = f.gen
	}
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

// intAt reads slot id as a scalar integer without copying the value
// struct. ok is false when the slot is stale or holds a non-integer.
func (f *frame) intAt(v ir.Value) (bits uint64, w int, ok bool) {
	id := ir.ValueID(v)
	if id < 0 {
		return 0, 0, false
	}
	if s := f.stamp[id]; s != f.gen && s != constStamp {
		return 0, 0, false
	}
	p := &f.vals[id]
	if p.Kind != val.KindInt {
		return 0, 0, false
	}
	return p.Bits, int(p.Width), true
}

// boolAt reads slot id as a truth value (nonzero integer) without copying.
func (f *frame) boolAt(v ir.Value) (truth bool, ok bool) {
	bits, _, ok := f.intAt(v)
	return bits != 0, ok
}

// setInt stores a width-w integer into slot id in place, writing only the
// scalar fields instead of copying a whole value struct (a stale payload
// pointer stays behind, inert under the Kind-first rule).
func (f *frame) setInt(id, w int, bits uint64) {
	if f.stamp[id] != constStamp {
		f.stamp[id] = f.gen
	}
	p := &f.vals[id]
	p.Kind = val.KindInt
	p.Width = int32(w)
	p.Bits = ir.MaskWidth(bits, w)
}

// evalFast executes the scalar-integer pure ops — constants, not/neg,
// binary arithmetic, comparisons, and integer slice extract/insert —
// directly on frame slots through pointers. The generic engine.EvalPure
// path moves every operand and result by value through a lookup
// callback; on the interpreter's hot rows that dominates the profile, so
// the common cases are special-cased here. It reports
// handled=false when the op or its runtime operand kinds (logic vectors,
// aggregates, times, unavailable operands) need the generic evaluator,
// which also owns all error reporting.
func (f *frame) evalFast(in *ir.Inst) bool {
	op := in.Op
	switch {
	case op == ir.OpConstInt:
		ty := in.Ty
		w := ty.Width
		if ty.IsEnum() {
			w = ty.BitWidth()
		} else if !ty.IsInt() {
			w = 1
		}
		f.setInt(ir.ValueID(in), w, in.IVal)
		return true

	case op == ir.OpNot:
		a, w, ok := f.intAt(in.Args[0])
		if !ok {
			return false
		}
		f.setInt(ir.ValueID(in), w, ^a)
		return true

	case op == ir.OpNeg:
		a, w, ok := f.intAt(in.Args[0])
		if !ok {
			return false
		}
		f.setInt(ir.ValueID(in), w, -a)
		return true

	case op == ir.OpExtS:
		a, w, ok := f.intAt(in.Args[0])
		if !ok || in.Imm0 < 0 || in.Imm0+in.Imm1 > w {
			return false
		}
		f.setInt(ir.ValueID(in), in.Imm1, a>>uint(in.Imm0))
		return true

	case op == ir.OpInsS:
		a, w, ok := f.intAt(in.Args[0])
		if !ok || in.Imm0 < 0 || in.Imm0+in.Imm1 > w {
			return false
		}
		v, _, ok := f.intAt(in.Args[1])
		if !ok {
			return false
		}
		f.setInt(ir.ValueID(in), w, val.InsBits(a, v, in.Imm0, in.Imm1))
		return true

	case op.IsBinary() || op.IsCompare():
		a, wa, ok := f.intAt(in.Args[0])
		if !ok {
			return false
		}
		b, wb, ok := f.intAt(in.Args[1])
		if !ok {
			return false
		}
		id := ir.ValueID(in)
		switch op {
		case ir.OpAnd:
			f.setInt(id, wa, a&b)
		case ir.OpOr:
			f.setInt(id, wa, a|b)
		case ir.OpXor:
			f.setInt(id, wa, a^b)
		case ir.OpAdd:
			f.setInt(id, wa, a+b)
		case ir.OpSub:
			f.setInt(id, wa, a-b)
		case ir.OpMul:
			f.setInt(id, wa, a*b)
		case ir.OpShl:
			f.setInt(id, wa, val.Shl(a, b))
		case ir.OpShr:
			f.setInt(id, wa, val.Shr(a, b))
		case ir.OpAshr:
			f.setInt(id, wa, val.Ashr(a, b, wa))
		case ir.OpEq:
			f.setBool(id, wa == wb && a == b)
		case ir.OpNeq:
			f.setBool(id, wa != wb || a != b)
		case ir.OpUlt:
			f.setBool(id, a < b)
		case ir.OpUgt:
			f.setBool(id, a > b)
		case ir.OpUle:
			f.setBool(id, a <= b)
		case ir.OpUge:
			f.setBool(id, a >= b)
		case ir.OpSlt:
			f.setBool(id, val.Slt(a, b, wa))
		case ir.OpSgt:
			f.setBool(id, val.Sgt(a, b, wa))
		case ir.OpSle:
			f.setBool(id, val.Sle(a, b, wa))
		case ir.OpSge:
			f.setBool(id, val.Sge(a, b, wa))
		default:
			// udiv/sdiv/umod/smod: the generic path owns the
			// division-by-zero diagnostics.
			return false
		}
		return true
	}
	return false
}

// setBool stores an i1 result.
func (f *frame) setBool(id int, b bool) {
	if b {
		f.setInt(id, 1, 1)
	} else {
		f.setInt(id, 1, 0)
	}
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
