// Package val implements the LLHD runtime value domain and the evaluation
// of pure LLHD instructions over it. It is shared by the reference
// interpreter (internal/sim), the compiled simulator (internal/blaze), and
// the constant-folding pass (internal/pass).
package val

import (
	"fmt"
	"slices"
	"strconv"
	"unsafe"

	"llhd/internal/ir"
	"llhd/internal/logic"
)

// Kind discriminates runtime value representations.
type Kind uint8

// Value kinds.
const (
	KindInt   Kind = iota // iN and nN: Bits/Width
	KindTime              // time: Time()
	KindLogic             // lN: Logic()
	KindAgg               // arrays and structs: Len()/Elem(i)
)

// Value is a runtime LLHD value: three words. Integers (capped at 64 bits;
// wider words are represented as arrays by frontends) live entirely in
// Kind/Width/Bits. Every other kind keeps its data out of line behind p,
// and that payload is immutable once constructed: operations build new
// payloads, never write through an existing one, so values may be copied,
// retained and shared freely without cloning. The zero Value is the
// integer 0.
//
// For non-integer kinds Width and Bits belong to this package (they hold
// the payload's shape) and must not be written from outside. Code that
// overwrites a value in place as an integer writes Kind, Width and Bits
// together and may leave a stale p behind: every accessor checks Kind
// first, so the stale pointer is inert.
type Value struct {
	Kind  Kind
	Width int32  // KindInt: bit width. KindAgg: packed element width, 0 when generic
	Bits  uint64 // KindInt: payload, masked to Width. KindLogic/KindAgg: element count
	// p is the payload: *ir.Time for KindTime, the first logic.Value for
	// KindLogic, the first uint64 of a packed aggregate (every element a
	// two-state integer of the one width Width), the first Value of a
	// generic one.
	p unsafe.Pointer
}

// Int returns a width-w integer value.
func Int(w int, bits uint64) Value {
	if w <= 0 {
		w = 1
	}
	return Value{Kind: KindInt, Width: int32(w), Bits: ir.MaskWidth(bits, w)}
}

// Bool returns an i1 value.
func Bool(b bool) Value {
	if b {
		return Int(1, 1)
	}
	return Int(1, 0)
}

// TimeVal wraps a time into a value.
func TimeVal(t ir.Time) Value { return Value{Kind: KindTime, p: unsafe.Pointer(&t)} }

// LogicVal wraps a logic vector. The value takes ownership of v: the
// caller must not write to it afterwards.
func LogicVal(v logic.Vector) Value {
	return Value{Kind: KindLogic, Bits: uint64(len(v)), p: unsafe.Pointer(unsafe.SliceData(v))}
}

// maxPackedWidth is the widest element a packed aggregate holds.
const maxPackedWidth = 64

// Agg builds an aggregate from elements and takes ownership of elems.
// The representation is canonical: when every element is a two-state
// integer of one width the aggregate is packed into 8 bytes per element
// (pointer-free, so the collector never scans it); anything else —
// logic elements, nested aggregates, mixed widths, the empty aggregate —
// keeps the elements as they are. Both forms behave identically under
// every operation of this package.
func Agg(elems []Value) Value {
	if w, ok := packableWidth(elems); ok {
		words := make([]uint64, len(elems))
		for i := range elems {
			words[i] = elems[i].Bits
		}
		return packedAgg(w, words)
	}
	return genericAgg(elems)
}

func packableWidth(elems []Value) (int32, bool) {
	if len(elems) == 0 {
		return 0, false
	}
	w := elems[0].Width
	if w <= 0 || w > maxPackedWidth {
		return 0, false
	}
	for i := range elems {
		if elems[i].Kind != KindInt || elems[i].Width != w {
			return 0, false
		}
	}
	return w, true
}

func packedAgg(w int32, words []uint64) Value {
	return Value{Kind: KindAgg, Width: w, Bits: uint64(len(words)), p: unsafe.Pointer(unsafe.SliceData(words))}
}

func genericAgg(elems []Value) Value {
	return Value{Kind: KindAgg, Bits: uint64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

// Time returns the payload of a time value, the zero time for any other
// kind.
func (v Value) Time() ir.Time {
	if v.Kind != KindTime || v.p == nil {
		return ir.Time{}
	}
	return *(*ir.Time)(v.p)
}

// Logic returns the payload of a logic value, nil for any other kind. The
// vector is shared with the value and must not be written to.
func (v Value) Logic() logic.Vector {
	if v.Kind != KindLogic {
		return nil
	}
	return unsafe.Slice((*logic.Value)(v.p), int(v.Bits))
}

// Len returns the element count of an aggregate, 0 for any other kind.
func (v Value) Len() int {
	if v.Kind != KindAgg {
		return 0
	}
	return int(v.Bits)
}

// Elem returns element i of an aggregate. It panics when i is out of
// range, like a slice index.
func (v Value) Elem(i int) Value {
	if v.Width != 0 {
		return Value{Kind: KindInt, Width: v.Width, Bits: v.words()[i]}
	}
	return v.elems()[i]
}

// words views a packed aggregate's elements; nil for anything else.
func (v Value) words() []uint64 {
	if v.Kind != KindAgg || v.Width == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(v.p), int(v.Bits))
}

// elems views a generic aggregate's elements; nil for anything else.
func (v Value) elems() []Value {
	if v.Kind != KindAgg || v.Width != 0 {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), int(v.Bits))
}

// unpacked returns the aggregate's elements as a fresh slice the caller
// owns.
func (v Value) unpacked() []Value {
	out := make([]Value, v.Len())
	for i := range out {
		out[i] = v.Elem(i)
	}
	return out
}

// Default returns the zero-initialized value for an IR type: 0 for
// integers, U for logic, zero time, recursively for aggregates.
func Default(ty *ir.Type) Value {
	switch ty.Kind {
	case ir.IntKind, ir.EnumKind:
		return Int(ty.Width, 0)
	case ir.TimeKind:
		return TimeVal(ir.Time{})
	case ir.LogicKind:
		return LogicVal(logic.NewVector(ty.Width))
	case ir.ArrayKind:
		elems := make([]Value, ty.Width)
		if len(elems) > 0 {
			// Every element is the same immutable value: build it once.
			elems[0] = Default(ty.Elem)
			for i := 1; i < len(elems); i++ {
				elems[i] = elems[0]
			}
		}
		return Agg(elems)
	case ir.StructKind:
		elems := make([]Value, len(ty.Fields))
		for i, f := range ty.Fields {
			elems[i] = Default(f)
		}
		return Agg(elems)
	case ir.PointerKind, ir.SignalKind:
		return Value{Kind: KindInt, Width: 64}
	default:
		return Value{Kind: KindInt, Width: 1}
	}
}

// IsTrue reports whether the value is a nonzero i1.
func (v Value) IsTrue() bool { return v.Kind == KindInt && v.Bits != 0 }

// Eq reports deep equality of two runtime values. It does not depend on
// how an aggregate is represented.
func (v Value) Eq(u Value) bool {
	if v.Kind != u.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.Width == u.Width && v.Bits == u.Bits
	case KindTime:
		return v.Time() == u.Time()
	case KindLogic:
		return v.Logic().Eq(u.Logic())
	case KindAgg:
		if v.Bits != u.Bits {
			return false
		}
		if v.Width != 0 && v.Width == u.Width {
			return slices.Equal(v.words(), u.words())
		}
		for i, n := 0, v.Len(); i < n; i++ {
			if !v.Elem(i).Eq(u.Elem(i)) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the value for traces and error messages: Append onto a
// small stack buffer, so a scalar costs the one string it returns.
func (v Value) String() string {
	var buf [24]byte
	return string(v.Append(buf[:0]))
}

// Append appends the String form of v to b and returns the extended
// slice. It is the one formatter of a runtime value — integers in
// unsigned decimal, times and logic vectors as ir.Time and logic.Vector
// append themselves, aggregates as "[e0, e1, ...]" whatever their
// representation — and it allocates only when b must grow, which is what
// lets the trace renderers run allocation-free on a reused buffer.
func (v Value) Append(b []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendUint(b, v.Bits, 10)
	case KindTime:
		return v.Time().Append(b)
	case KindLogic:
		return v.Logic().Append(b)
	case KindAgg:
		b = append(b, '[')
		for i, n := 0, v.Len(); i < n; i++ {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = v.Elem(i).Append(b)
		}
		return append(b, ']')
	}
	return append(b, '?')
}

// Unary evaluates a pure unary LLHD op.
func Unary(op ir.Opcode, ty *ir.Type, a Value) (Value, error) {
	switch op {
	case ir.OpNot:
		if a.Kind == KindLogic {
			in := a.Logic()
			out := logic.NewVector(len(in))
			for i, x := range in {
				out[i] = logic.Not(x)
			}
			return LogicVal(out), nil
		}
		return Int(int(a.Width), ^a.Bits), nil
	case ir.OpNeg:
		return Int(int(a.Width), -a.Bits), nil
	}
	return Value{}, fmt.Errorf("val: not a unary op: %s", op)
}

// The scalar-integer rules that are more than one Go operator, on raw bit
// patterns masked to their width w. Binary, Compare and InsS below, the
// interpreter's in-place fast path and blaze's dispatch loop all call
// these, one helper per op so a dispatch site stays a single switch; the
// caller masks the result to w. Ops that are one operator (add, and, ult,
// ...) are written out where they execute.

// Shl shifts left; a shift amount of 64 or more clears the value (Go would
// already, the rule is stated here so it cannot drift).
func Shl(a, sh uint64) uint64 {
	if sh >= 64 {
		return 0
	}
	return a << sh
}

// Shr shifts right logically, clearing the value from 64 up.
func Shr(a, sh uint64) uint64 {
	if sh >= 64 {
		return 0
	}
	return a >> sh
}

// Ashr shifts the w-bit value right arithmetically; amounts of w or more
// saturate at w-1, leaving the sign bit everywhere.
func Ashr(a, sh uint64, w int) uint64 {
	if sh >= uint64(w) {
		sh = uint64(w - 1)
	}
	return uint64(ir.SignExtend(a, w) >> sh)
}

// Slt, Sgt, Sle and Sge compare two w-bit values as signed.
func Slt(a, b uint64, w int) bool { return ir.SignExtend(a, w) < ir.SignExtend(b, w) }
func Sgt(a, b uint64, w int) bool { return ir.SignExtend(a, w) > ir.SignExtend(b, w) }
func Sle(a, b uint64, w int) bool { return ir.SignExtend(a, w) <= ir.SignExtend(b, w) }
func Sge(a, b uint64, w int) bool { return ir.SignExtend(a, w) >= ir.SignExtend(b, w) }

// InsBits replaces the n bits of a at offset off with the low n bits of v.
func InsBits(a, v uint64, off, n int) uint64 {
	mask := ir.MaskWidth(^uint64(0), n) << uint(off)
	return a&^mask | v<<uint(off)&mask
}

// Binary evaluates a pure binary LLHD op on two same-typed values.
func Binary(op ir.Opcode, a, b Value) (Value, error) {
	if a.Kind == KindLogic || b.Kind == KindLogic {
		return binaryLogic(op, a, b)
	}
	if a.Kind != KindInt || b.Kind != KindInt {
		return Value{}, fmt.Errorf("val: binary %s on non-integer values", op)
	}
	w := int(a.Width)
	switch op {
	case ir.OpAnd:
		return Int(w, a.Bits&b.Bits), nil
	case ir.OpOr:
		return Int(w, a.Bits|b.Bits), nil
	case ir.OpXor:
		return Int(w, a.Bits^b.Bits), nil
	case ir.OpAdd:
		return Int(w, a.Bits+b.Bits), nil
	case ir.OpSub:
		return Int(w, a.Bits-b.Bits), nil
	case ir.OpMul:
		return Int(w, a.Bits*b.Bits), nil
	case ir.OpUdiv:
		if b.Bits == 0 {
			return Value{}, fmt.Errorf("val: division by zero")
		}
		return Int(w, a.Bits/b.Bits), nil
	case ir.OpSdiv:
		if b.Bits == 0 {
			return Value{}, fmt.Errorf("val: division by zero")
		}
		return Int(w, uint64(ir.SignExtend(a.Bits, w)/ir.SignExtend(b.Bits, w))), nil
	case ir.OpUmod:
		if b.Bits == 0 {
			return Value{}, fmt.Errorf("val: modulo by zero")
		}
		return Int(w, a.Bits%b.Bits), nil
	case ir.OpSmod:
		if b.Bits == 0 {
			return Value{}, fmt.Errorf("val: modulo by zero")
		}
		return Int(w, uint64(ir.SignExtend(a.Bits, w)%ir.SignExtend(b.Bits, w))), nil
	case ir.OpShl:
		return Int(w, Shl(a.Bits, b.Bits)), nil
	case ir.OpShr:
		return Int(w, Shr(a.Bits, b.Bits)), nil
	case ir.OpAshr:
		return Int(w, Ashr(a.Bits, b.Bits, w)), nil
	}
	if op.IsCompare() {
		return Compare(op, a, b)
	}
	return Value{}, fmt.Errorf("val: not a binary op: %s", op)
}

func binaryLogic(op ir.Opcode, a, b Value) (Value, error) {
	if op == ir.OpEq || op == ir.OpNeq {
		eq := a.Logic().Eq(b.Logic())
		if op == ir.OpNeq {
			eq = !eq
		}
		return Bool(eq), nil
	}
	var f func(x, y logic.Value) logic.Value
	switch op {
	case ir.OpAnd:
		f = logic.And
	case ir.OpOr:
		f = logic.Or
	case ir.OpXor:
		f = logic.Xor
	default:
		return Value{}, fmt.Errorf("val: %s unsupported on logic values", op)
	}
	x, y := a.Logic(), b.Logic()
	out := logic.NewVector(len(x))
	for i := range out {
		out[i] = f(x[i], y[i])
	}
	return LogicVal(out), nil
}

// Compare evaluates a comparison producing an i1.
func Compare(op ir.Opcode, a, b Value) (Value, error) {
	switch op {
	case ir.OpEq:
		return Bool(a.Eq(b)), nil
	case ir.OpNeq:
		return Bool(!a.Eq(b)), nil
	}
	if a.Kind != KindInt || b.Kind != KindInt {
		return Value{}, fmt.Errorf("val: ordered comparison %s on non-integers", op)
	}
	w := int(a.Width)
	switch op {
	case ir.OpUlt:
		return Bool(a.Bits < b.Bits), nil
	case ir.OpUgt:
		return Bool(a.Bits > b.Bits), nil
	case ir.OpUle:
		return Bool(a.Bits <= b.Bits), nil
	case ir.OpUge:
		return Bool(a.Bits >= b.Bits), nil
	case ir.OpSlt:
		return Bool(Slt(a.Bits, b.Bits, w)), nil
	case ir.OpSgt:
		return Bool(Sgt(a.Bits, b.Bits, w)), nil
	case ir.OpSle:
		return Bool(Sle(a.Bits, b.Bits, w)), nil
	case ir.OpSge:
		return Bool(Sge(a.Bits, b.Bits, w)), nil
	}
	return Value{}, fmt.Errorf("val: not a comparison: %s", op)
}

// Mux selects among the aggregate's elements by the selector, clamping out
// of range selections to the last element (§2.5.4).
func Mux(choices Value, sel Value) (Value, error) {
	if choices.Len() == 0 {
		return Value{}, fmt.Errorf("val: mux needs a non-empty aggregate")
	}
	return ExtFDyn(choices, sel.Bits)
}

// ExtF extracts element/field idx from an aggregate.
func ExtF(a Value, idx int) (Value, error) {
	if idx < 0 || idx >= a.Len() {
		return Value{}, fmt.Errorf("val: extf index %d out of range", idx)
	}
	return a.Elem(idx), nil
}

// ExtFDyn is ExtF with a runtime index. Dynamic indices can execute
// speculatively once lowering has hoisted pure data flow past its control
// guards, so an out-of-range read clamps to the nearest valid element (the
// last: the index is unsigned) instead of trapping, the same lenient
// convention Mux uses. Static indices stay strict.
func ExtFDyn(a Value, idx uint64) (Value, error) {
	if n := a.Len(); n > 0 {
		if idx >= uint64(n) {
			idx = uint64(n - 1)
		}
		return a.Elem(int(idx)), nil
	}
	return Value{}, fmt.Errorf("val: extf index %d out of range", idx)
}

// InsF returns a with element/field idx replaced by v.
func InsF(a, v Value, idx int) (Value, error) {
	if idx < 0 || idx >= a.Len() {
		return Value{}, fmt.Errorf("val: insf index %d out of range", idx)
	}
	if a.Width != 0 && v.Kind == KindInt && v.Width == a.Width {
		words := slices.Clone(a.words())
		words[idx] = v.Bits
		return packedAgg(a.Width, words), nil
	}
	elems := a.unpacked()
	elems[idx] = v
	return Agg(elems), nil
}

// InsFDyn is InsF with a runtime index. A speculative out-of-range write
// is dropped (see ExtFDyn): the aggregate comes back unchanged.
func InsFDyn(a, v Value, idx uint64) (Value, error) {
	if a.Kind == KindAgg && idx >= a.Bits {
		return a, nil
	}
	return InsF(a, v, int(idx))
}

// ExtS extracts a slice of length n at offset off: bits of an integer,
// elements of an array, positions of a logic vector. Array and logic
// results share the source's storage.
func ExtS(a Value, off, n int) (Value, error) {
	switch a.Kind {
	case KindInt:
		if off < 0 || off+n > int(a.Width) {
			return Value{}, fmt.Errorf("val: exts [%d..%d) out of i%d", off, off+n, a.Width)
		}
		return Int(n, a.Bits>>uint(off)), nil
	case KindLogic:
		if off < 0 || n < 0 || off+n > int(a.Bits) {
			return Value{}, fmt.Errorf("val: exts out of range")
		}
		return LogicVal(a.Logic()[off : off+n]), nil
	case KindAgg:
		if off < 0 || n < 0 || off+n > a.Len() {
			return Value{}, fmt.Errorf("val: exts out of range")
		}
		if n == 0 {
			return genericAgg(nil), nil
		}
		if a.Width != 0 {
			return packedAgg(a.Width, a.words()[off:off+n]), nil
		}
		// A slice of a generic aggregate may itself be packable.
		return Agg(slices.Clone(a.elems()[off : off+n])), nil
	}
	return Value{}, fmt.Errorf("val: exts on unsupported value")
}

// InsS returns a with the slice [off, off+n) replaced by v.
func InsS(a, v Value, off, n int) (Value, error) {
	switch a.Kind {
	case KindInt:
		if off < 0 || off+n > int(a.Width) {
			return Value{}, fmt.Errorf("val: inss out of range")
		}
		return Int(int(a.Width), InsBits(a.Bits, v.Bits, off, n)), nil
	case KindLogic:
		if off < 0 || n < 0 || off+n > int(a.Bits) {
			return Value{}, fmt.Errorf("val: inss out of range")
		}
		out := a.Logic().Clone()
		copy(out[off:off+n], v.Logic())
		return LogicVal(out), nil
	case KindAgg:
		if off < 0 || n < 0 || off+n > a.Len() || v.Len() < n {
			return Value{}, fmt.Errorf("val: inss out of range")
		}
		if a.Width != 0 && v.Width == a.Width {
			words := slices.Clone(a.words())
			copy(words[off:off+n], v.words())
			return packedAgg(a.Width, words), nil
		}
		elems := a.unpacked()
		for i := 0; i < n; i++ {
			elems[off+i] = v.Elem(i)
		}
		return Agg(elems), nil
	}
	return Value{}, fmt.Errorf("val: inss on unsupported value")
}
