// Package ir implements the LLHD intermediate representation: a multi-level
// SSA form for hardware description languages as described in "LLHD: A
// Multi-level Intermediate Representation for Hardware Description
// Languages" (PLDI 2020).
//
// The IR has three constructs, called units: functions (control flow,
// immediate), processes (control flow, timed) and entities (data flow,
// timed). Units live in a Module. Instructions are SSA values; constants
// are instructions too (as in the LLHD assembly text). The IR has three
// nested levels — Behavioural ⊃ Structural ⊃ Netlist — enforced by Verify.
package ir

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// TypeKind enumerates the kinds of LLHD types (§2.3 of the paper).
type TypeKind uint8

const (
	// VoidKind is the type of instructions that produce no value.
	VoidKind TypeKind = iota
	// TimeKind represents a point in (or span of) physical time.
	TimeKind
	// IntKind is an N-bit integer iN.
	IntKind
	// EnumKind is an enumeration nN with N distinct values.
	EnumKind
	// LogicKind is an N-wide nine-valued logic vector lN (IEEE 1164).
	LogicKind
	// PointerKind is a pointer T* to stack or heap memory.
	PointerKind
	// SignalKind is a signal T$ carrying a value of type T.
	SignalKind
	// ArrayKind is a fixed-size array [N x T].
	ArrayKind
	// StructKind is a structure {T1, T2, ...}.
	StructKind
	// FuncKind is a function signature (T1, T2, ...) R, used for callees.
	FuncKind
)

// Type is an interned LLHD type. Because all types are canonicalized in
// process-global tables, *Type values are comparable by pointer: two types
// are identical iff their pointers are equal.
type Type struct {
	Kind   TypeKind
	Width  int     // bit width for iN/nN/lN, length for [N x T]
	Elem   *Type   // element for pointer/signal/array, result for func
	Fields []*Type // struct fields or function parameters
}

// scalarKey identifies every type but structs and funcs by value. Element
// types are interned themselves, so their pointer is their identity.
type scalarKey struct {
	kind  TypeKind
	width int
	elem  *Type
}

var (
	typeMu      sync.Mutex
	scalarTypes = map[scalarKey]*Type{}
	// Structs and funcs, keyed by their structural string (appendKey).
	compoundTypes = map[string]*Type{}

	// Pre-interned singletons for the common cases.
	voidType = internScalar(scalarKey{kind: VoidKind})
	timeType = internScalar(scalarKey{kind: TimeKind})
)

// internScalar returns the one *Type for k, allocating it on first use.
func internScalar(k scalarKey) *Type {
	typeMu.Lock()
	t, ok := scalarTypes[k]
	if !ok {
		t = &Type{Kind: k.kind, Width: k.width, Elem: k.elem}
		scalarTypes[k] = t
	}
	typeMu.Unlock()
	return t
}

// internElem interns a pointer, signal or array type over elem.
func internElem(kind TypeKind, n int, elem *Type) *Type {
	if elem == nil {
		panic("ir: nil element type")
	}
	return internScalar(scalarKey{kind: kind, width: n, elem: elem})
}

// internCompound interns a struct or func type.
func internCompound(t *Type) *Type {
	key := t.appendKey(nil)
	typeMu.Lock()
	defer typeMu.Unlock()
	if have, ok := compoundTypes[string(key)]; ok {
		return have
	}
	compoundTypes[string(key)] = t
	return t
}

// appendKey appends a unique structural key for t to b.
func (t *Type) appendKey(b []byte) []byte {
	switch t.Kind {
	case VoidKind:
		return append(b, 'v')
	case TimeKind:
		return append(b, 't')
	case IntKind:
		return strconv.AppendInt(append(b, 'i'), int64(t.Width), 10)
	case EnumKind:
		return strconv.AppendInt(append(b, 'n'), int64(t.Width), 10)
	case LogicKind:
		return strconv.AppendInt(append(b, 'l'), int64(t.Width), 10)
	case PointerKind:
		return append(t.Elem.appendKey(append(b, "p("...)), ')')
	case SignalKind:
		return append(t.Elem.appendKey(append(b, "s("...)), ')')
	case ArrayKind:
		b = strconv.AppendInt(append(b, 'a'), int64(t.Width), 10)
		return append(t.Elem.appendKey(append(b, '(')), ')')
	case StructKind:
		b = append(b, '{')
		for i, f := range t.Fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = f.appendKey(b)
		}
		return append(b, '}')
	case FuncKind:
		b = append(b, "f("...)
		for i, f := range t.Fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = f.appendKey(b)
		}
		return t.Elem.appendKey(append(b, ")->"...))
	default:
		panic(fmt.Sprintf("ir: unknown type kind %d", t.Kind))
	}
}

// VoidType returns the void type.
func VoidType() *Type { return voidType }

// TimeType returns the time type.
func TimeType() *Type { return timeType }

// IntType returns the N-bit integer type iN. N must be positive.
func IntType(n int) *Type {
	if n <= 0 {
		panic(fmt.Sprintf("ir: invalid integer width %d", n))
	}
	return internScalar(scalarKey{kind: IntKind, width: n})
}

// EnumType returns the enumeration type nN with N distinct values.
func EnumType(n int) *Type {
	if n <= 0 {
		panic(fmt.Sprintf("ir: invalid enum cardinality %d", n))
	}
	return internScalar(scalarKey{kind: EnumKind, width: n})
}

// LogicType returns the nine-valued logic vector type lN.
func LogicType(n int) *Type {
	if n <= 0 {
		panic(fmt.Sprintf("ir: invalid logic width %d", n))
	}
	return internScalar(scalarKey{kind: LogicKind, width: n})
}

// PointerType returns T*.
func PointerType(elem *Type) *Type {
	return internElem(PointerKind, 0, elem)
}

// SignalType returns T$, the type of a signal carrying values of type elem.
func SignalType(elem *Type) *Type {
	return internElem(SignalKind, 0, elem)
}

// ArrayType returns [n x elem].
func ArrayType(n int, elem *Type) *Type {
	if n < 0 {
		panic(fmt.Sprintf("ir: invalid array length %d", n))
	}
	return internElem(ArrayKind, n, elem)
}

// StructType returns {fields...}.
func StructType(fields ...*Type) *Type {
	cp := make([]*Type, len(fields))
	copy(cp, fields)
	return internCompound(&Type{Kind: StructKind, Fields: cp})
}

// FuncType returns the signature (params...) -> result.
func FuncType(result *Type, params ...*Type) *Type {
	cp := make([]*Type, len(params))
	copy(cp, params)
	return internCompound(&Type{Kind: FuncKind, Elem: result, Fields: cp})
}

// IsVoid reports whether t is the void type.
func (t *Type) IsVoid() bool { return t.Kind == VoidKind }

// IsInt reports whether t is an integer type iN.
func (t *Type) IsInt() bool { return t.Kind == IntKind }

// IsBool reports whether t is exactly i1.
func (t *Type) IsBool() bool { return t.Kind == IntKind && t.Width == 1 }

// IsTime reports whether t is the time type.
func (t *Type) IsTime() bool { return t.Kind == TimeKind }

// IsSignal reports whether t is a signal type T$.
func (t *Type) IsSignal() bool { return t.Kind == SignalKind }

// IsPointer reports whether t is a pointer type T*.
func (t *Type) IsPointer() bool { return t.Kind == PointerKind }

// IsLogic reports whether t is a logic type lN.
func (t *Type) IsLogic() bool { return t.Kind == LogicKind }

// IsEnum reports whether t is an enum type nN.
func (t *Type) IsEnum() bool { return t.Kind == EnumKind }

// IsArray reports whether t is an array type.
func (t *Type) IsArray() bool { return t.Kind == ArrayKind }

// IsStruct reports whether t is a struct type.
func (t *Type) IsStruct() bool { return t.Kind == StructKind }

// IsAggregate reports whether t is an array or struct.
func (t *Type) IsAggregate() bool { return t.Kind == ArrayKind || t.Kind == StructKind }

// BitWidth returns the number of bits needed to store a value of type t.
// Aggregates report the sum of their element widths. Void and time report 0.
func (t *Type) BitWidth() int {
	switch t.Kind {
	case IntKind, LogicKind:
		return t.Width
	case EnumKind:
		w := 0
		for n := t.Width - 1; n > 0; n >>= 1 {
			w++
		}
		if w == 0 {
			w = 1
		}
		return w
	case ArrayKind:
		return t.Width * t.Elem.BitWidth()
	case StructKind:
		sum := 0
		for _, f := range t.Fields {
			sum += f.BitWidth()
		}
		return sum
	case PointerKind, SignalKind:
		return 64
	default:
		return 0
	}
}

// String renders the type in LLHD assembly syntax, e.g. "i32", "i1$",
// "[4 x i8]", "{i32, time}".
func (t *Type) String() string {
	switch t.Kind {
	case VoidKind:
		return "void"
	case TimeKind:
		return "time"
	case IntKind:
		return fmt.Sprintf("i%d", t.Width)
	case EnumKind:
		return fmt.Sprintf("n%d", t.Width)
	case LogicKind:
		return fmt.Sprintf("l%d", t.Width)
	case PointerKind:
		return t.Elem.String() + "*"
	case SignalKind:
		return t.Elem.String() + "$"
	case ArrayKind:
		return fmt.Sprintf("[%d x %s]", t.Width, t.Elem)
	case StructKind:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case FuncKind:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.String()
		}
		return "(" + strings.Join(parts, ", ") + ") " + t.Elem.String()
	default:
		return fmt.Sprintf("?type(%d)", t.Kind)
	}
}
