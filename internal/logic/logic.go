// Package logic implements the IEEE 1164 nine-valued logic system used by
// the LLHD lN type (§2.3 of the paper). The nine values model the states a
// physical signal wire may be in: drive strength, drive collisions,
// floating gates, and unknown values.
package logic

import "fmt"

// Value is a single IEEE 1164 logic value.
type Value uint8

// The nine IEEE 1164 values.
const (
	U  Value = iota // uninitialized
	X               // forcing unknown
	L0              // forcing 0
	L1              // forcing 1
	Z               // high impedance
	W               // weak unknown
	WL              // weak 0
	WH              // weak 1
	DC              // don't care
)

var names = [...]byte{'U', 'X', '0', '1', 'Z', 'W', 'L', 'H', '-'}

// String returns the canonical IEEE 1164 character for v.
func (v Value) String() string {
	if int(v) < len(names) {
		return string(names[v])
	}
	return fmt.Sprintf("logic(%d)", uint8(v))
}

// FromRune parses an IEEE 1164 character (case-insensitive).
func FromRune(r rune) (Value, error) {
	switch r {
	case 'U', 'u':
		return U, nil
	case 'X', 'x':
		return X, nil
	case '0':
		return L0, nil
	case '1':
		return L1, nil
	case 'Z', 'z':
		return Z, nil
	case 'W', 'w':
		return W, nil
	case 'L', 'l':
		return WL, nil
	case 'H', 'h':
		return WH, nil
	case '-':
		return DC, nil
	}
	return U, fmt.Errorf("logic: invalid IEEE 1164 character %q", string(r))
}

// resolutionTable is the IEEE 1164 resolution function for two drivers of
// the same wire (std_logic resolution). It is symmetric.
var resolutionTable = [9][9]Value{
	//          U  X  0  1  Z  W  L  H  -
	/* U */ {U, U, U, U, U, U, U, U, U},
	/* X */ {U, X, X, X, X, X, X, X, X},
	/* 0 */ {U, X, L0, X, L0, L0, L0, L0, X},
	/* 1 */ {U, X, X, L1, L1, L1, L1, L1, X},
	/* Z */ {U, X, L0, L1, Z, W, WL, WH, X},
	/* W */ {U, X, L0, L1, W, W, W, W, X},
	/* L */ {U, X, L0, L1, WL, W, WL, W, X},
	/* H */ {U, X, L0, L1, WH, W, W, WH, X},
	/* - */ {U, X, X, X, X, X, X, X, X},
}

// Resolve combines two drivers of the same wire per IEEE 1164.
func Resolve(a, b Value) Value { return resolutionTable[a][b] }

// ResolveAll folds Resolve over all drivers; with no drivers the wire
// floats (Z).
func ResolveAll(vs []Value) Value {
	if len(vs) == 0 {
		return Z
	}
	r := vs[0]
	for _, v := range vs[1:] {
		r = Resolve(r, v)
	}
	return r
}

// IsHigh reports whether v reads as logical 1 (forcing or weak).
func (v Value) IsHigh() bool { return v == L1 || v == WH }

// IsLow reports whether v reads as logical 0 (forcing or weak).
func (v Value) IsLow() bool { return v == L0 || v == WL }

// IsKnown reports whether v is a defined 0/1 level.
func (v Value) IsKnown() bool { return v.IsHigh() || v.IsLow() }

// ToBit maps v to a two-valued bit: 1 for high, 0 for everything else
// (matching the SystemVerilog bit cast).
func (v Value) ToBit() uint64 {
	if v.IsHigh() {
		return 1
	}
	return 0
}

// FromBit lifts a two-valued bit into the forcing 0/1 levels.
func FromBit(b uint64) Value {
	if b != 0 {
		return L1
	}
	return L0
}

// And is the IEEE 1164 AND for nine-valued operands.
func And(a, b Value) Value {
	switch {
	case a.IsLow() || b.IsLow():
		return L0
	case a.IsHigh() && b.IsHigh():
		return L1
	case a == U || b == U:
		return U
	default:
		return X
	}
}

// Or is the IEEE 1164 OR for nine-valued operands.
func Or(a, b Value) Value {
	switch {
	case a.IsHigh() || b.IsHigh():
		return L1
	case a.IsLow() && b.IsLow():
		return L0
	case a == U || b == U:
		return U
	default:
		return X
	}
}

// Xor is the IEEE 1164 XOR for nine-valued operands.
func Xor(a, b Value) Value {
	switch {
	case a.IsKnown() && b.IsKnown():
		return FromBit(a.ToBit() ^ b.ToBit())
	case a == U || b == U:
		return U
	default:
		return X
	}
}

// Not is the IEEE 1164 inverter.
func Not(a Value) Value {
	switch {
	case a.IsHigh():
		return L0
	case a.IsLow():
		return L1
	case a == U:
		return U
	default:
		return X
	}
}

// Vector is a fixed-width vector of logic values, index 0 being the least
// significant position (matching lN bit order).
type Vector []Value

// NewVector returns a width-w vector initialized to U, the IEEE 1164
// power-on state.
func NewVector(w int) Vector {
	v := make(Vector, w)
	for i := range v {
		v[i] = U
	}
	return v
}

// FromUint converts the low len(v) bits of b into forcing levels.
func (v Vector) FromUint(b uint64) Vector {
	for i := range v {
		v[i] = FromBit(b >> uint(i) & 1)
	}
	return v
}

// ToUint collapses the vector to a two-valued integer.
func (v Vector) ToUint() uint64 {
	var b uint64
	for i, x := range v {
		b |= x.ToBit() << uint(i)
	}
	return b
}

// Eq reports exact nine-valued equality.
func (v Vector) Eq(u Vector) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if v[i] != u[i] {
			return false
		}
	}
	return true
}

// String renders the vector MSB-first, e.g. "01XZ".
func (v Vector) String() string { return string(v.Append(make([]byte, 0, len(v)))) }

// Append appends the String form of v to b and returns the extended
// slice.
func (v Vector) Append(b []byte) []byte {
	for i := len(v) - 1; i >= 0; i-- {
		b = append(b, names[v[i]])
	}
	return b
}

// ParseVector parses an MSB-first IEEE 1164 string.
func ParseVector(s string) (Vector, error) {
	v := make(Vector, len(s))
	for i, r := range s {
		x, err := FromRune(r)
		if err != nil {
			return nil, err
		}
		v[len(s)-1-i] = x
	}
	return v, nil
}

// ResolveVectors resolves multiple drivers element-wise.
func ResolveVectors(drivers []Vector, width int) Vector {
	out := make(Vector, width)
	tmp := make([]Value, 0, len(drivers))
	for i := 0; i < width; i++ {
		tmp = tmp[:0]
		for _, d := range drivers {
			if i < len(d) {
				tmp = append(tmp, d[i])
			}
		}
		out[i] = ResolveAll(tmp)
	}
	return out
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	return append(Vector(nil), v...)
}
