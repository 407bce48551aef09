package val

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"llhd/internal/ir"
	"llhd/internal/logic"
)

func TestDefaults(t *testing.T) {
	if v := Default(ir.IntType(8)); v.Kind != KindInt || v.Bits != 0 || v.Width != 8 {
		t.Errorf("Default(i8) = %+v", v)
	}
	st := Default(ir.StructType(ir.IntType(1), ir.TimeType()))
	if st.Kind != KindAgg || st.Len() != 2 || st.Elem(1).Kind != KindTime {
		t.Errorf("Default(struct) = %+v", st)
	}
	lg := Default(ir.LogicType(4))
	if lg.Kind != KindLogic || len(lg.Logic()) != 4 {
		t.Errorf("Default(l4) = %+v", lg)
	}
}

func TestBinaryMasksToWidth(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := Int(8, uint64(a)), Int(8, uint64(b))
		sum, err := Binary(ir.OpAdd, x, y)
		if err != nil {
			return false
		}
		return sum.Bits == uint64(uint8(a+b)) && sum.Width == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, op := range []ir.Opcode{ir.OpUdiv, ir.OpSdiv, ir.OpUmod, ir.OpSmod} {
		if _, err := Binary(op, Int(8, 1), Int(8, 0)); err == nil {
			t.Errorf("%v by zero not rejected", op)
		}
	}
}

func TestSignedOps(t *testing.T) {
	minus1 := Int(8, 0xFF)
	one := Int(8, 1)
	lt, _ := Compare(ir.OpSlt, minus1, one)
	if !lt.IsTrue() {
		t.Error("-1 <s 1 must hold")
	}
	ult, _ := Compare(ir.OpUlt, minus1, one)
	if ult.IsTrue() {
		t.Error("255 <u 1 must not hold")
	}
	q, err := Binary(ir.OpSdiv, minus1, one)
	if err != nil || ir.SignExtend(q.Bits, 8) != -1 {
		t.Errorf("-1 /s 1 = %v (err %v)", q, err)
	}
	sr, _ := Binary(ir.OpAshr, minus1, Int(8, 3))
	if sr.Bits != 0xFF {
		t.Errorf("-1 >>s 3 = %#x, want 0xFF", sr.Bits)
	}
}

func TestInsExtRoundTrip(t *testing.T) {
	f := func(base uint32, part uint8, offRaw uint8) bool {
		off := int(offRaw % 24)
		v := Int(32, uint64(base))
		ins, err := InsS(v, Int(8, uint64(part)), off, 8)
		if err != nil {
			return false
		}
		back, err := ExtS(ins, off, 8)
		if err != nil {
			return false
		}
		return back.Bits == uint64(part)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqDistinguishesWidth(t *testing.T) {
	if Int(8, 1).Eq(Int(9, 1)) {
		t.Error("values of different widths must differ")
	}
	if Bool(true).Eq(Bool(false)) {
		t.Error("true == false")
	}
}

func l4(s string) Value {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return LogicVal(v)
}

// aggCase is one aggregate shape of the table: its IR type, n distinct
// element values drawn by elem (elem(k) differs from elem(j) for k != j
// and from the type's default), and whether the canonical form is packed.
type aggCase struct {
	name   string
	ty     *ir.Type
	elemTy func(i int) *ir.Type
	elem   func(i, k int) Value // a k-th distinct value fit for position i
	packed bool
}

func aggCases() []aggCase {
	intElem := func(w int) func(i, k int) Value {
		return func(i, k int) Value { return Int(w, uint64(k+1)*0x9E3779B97F4A7C15>>uint(64-w)|1) }
	}
	arr := func(n int, e *ir.Type) (*ir.Type, func(int) *ir.Type) {
		return ir.ArrayType(n, e), func(int) *ir.Type { return e }
	}
	var cs []aggCase
	add := func(name string, ty *ir.Type, ety func(int) *ir.Type, elem func(i, k int) Value, packed bool) {
		cs = append(cs, aggCase{name, ty, ety, elem, packed})
	}
	ty, ety := arr(5, ir.IntType(1))
	add("[5 x i1]", ty, ety, func(i, k int) Value { return Int(1, 1) }, true)
	ty, ety = arr(32, ir.IntType(32))
	add("[32 x i32]", ty, ety, intElem(32), true)
	ty, ety = arr(4, ir.IntType(64))
	add("[4 x i64]", ty, ety, intElem(64), true)
	ty, ety = arr(3, ir.LogicType(4))
	add("[3 x l4]", ty, ety, func(i, k int) Value { return l4([]string{"01XZ", "1100", "ZZ01", "HL10"}[k%4]) }, false)
	inner := ir.ArrayType(3, ir.IntType(8))
	ty, ety = arr(2, inner)
	add("[2 x [3 x i8]]", ty, ety, func(i, k int) Value {
		return Agg([]Value{Int(8, uint64(k+1)), Int(8, uint64(k+2)), Int(8, uint64(k+3))})
	}, false)
	fields := []*ir.Type{ir.IntType(8), ir.IntType(32), ir.TimeType()}
	add("{i8, i32, time}", ir.StructType(fields...), func(i int) *ir.Type { return fields[i] }, func(i, k int) Value {
		switch i {
		case 0:
			return Int(8, uint64(k+1))
		case 1:
			return Int(32, uint64(k+1)<<20)
		}
		return TimeVal(ir.Nanoseconds(int64(k + 1)))
	}, false)
	ty, ety = arr(0, ir.IntType(8))
	add("[0 x i8]", ty, ety, intElem(8), false)
	return cs
}

// generic rebuilds v in the generic form whatever its canonical form is.
func generic(v Value) Value { return genericAgg(v.unpacked()) }

func TestAggregateOps(t *testing.T) {
	for _, c := range aggCases() {
		t.Run(c.name, func(t *testing.T) {
			d := Default(c.ty)
			n := d.Len()
			if d.Kind != KindAgg || (c.ty.Kind == ir.ArrayKind && n != c.ty.Width) {
				t.Fatalf("Default = %v", d)
			}
			if got := d.Width != 0; got != c.packed {
				t.Fatalf("Default packed = %v, want %v", got, c.packed)
			}
			for i := 0; i < n; i++ {
				if !d.Elem(i).Eq(Default(c.elemTy(i))) {
					t.Fatalf("Default elem %d = %v", i, d.Elem(i))
				}
			}

			// Build a fully distinct aggregate through InsF, checking after
			// every step that the input survived untouched.
			a := d
			for i := 0; i < n; i++ {
				before, beforeStr := a, a.String()
				e := c.elem(i, i)
				next, err := InsF(a, e, i)
				if err != nil {
					t.Fatal(err)
				}
				if next.p == a.p {
					t.Fatal("InsF result aliases its input")
				}
				if !a.Eq(before) || a.String() != beforeStr {
					t.Fatalf("InsF changed its input: %v -> %v", beforeStr, a)
				}
				got, err := ExtF(next, i)
				if err != nil || !got.Eq(e) {
					t.Fatalf("ExtF(InsF(a, e, %d), %d) = %v (%v), want %v", i, i, got, err, e)
				}
				for j := 0; j < n; j++ {
					if j != i && !next.Elem(j).Eq(a.Elem(j)) {
						t.Fatalf("InsF at %d changed element %d", i, j)
					}
				}
				if got := next.Width != 0; got != c.packed {
					t.Fatalf("InsF result packed = %v, want %v", got, c.packed)
				}
				a = next
			}

			// Both forms of the same aggregate are equal and print alike.
			g := generic(a)
			if !a.Eq(g) || !g.Eq(a) || a.String() != g.String() {
				t.Errorf("forms differ: %v vs %v", a, g)
			}
			if n > 0 && a.Eq(d) {
				t.Error("distinct aggregate equals the default")
			}
			// Append is the one formatter: in both forms it yields the text
			// the fmt/strings.Join renderer it replaced yielded, after
			// whatever the buffer already held.
			for _, v := range []Value{d, a, g} {
				checkAppend(t, v)
			}

			// Static out-of-range indices keep their messages.
			for _, idx := range []int{-1, n, n + 5} {
				want := "val: extf index " + strconv.Itoa(idx) + " out of range"
				if _, err := ExtF(a, idx); err == nil || err.Error() != want {
					t.Errorf("ExtF(%d) error = %v, want %q", idx, err, want)
				}
				want = "val: insf index " + strconv.Itoa(idx) + " out of range"
				if _, err := InsF(a, d, idx); err == nil || err.Error() != want {
					t.Errorf("InsF(%d) error = %v, want %q", idx, err, want)
				}
			}
			if _, err := ExtS(a, 0, n+1); err == nil || err.Error() != "val: exts out of range" {
				t.Errorf("ExtS past the end: %v", err)
			}
			if _, err := InsS(a, a, 1, n); err == nil || err.Error() != "val: inss out of range" {
				t.Errorf("InsS past the end: %v", err)
			}
			if n == 0 {
				if _, err := Mux(a, Int(8, 0)); err == nil {
					t.Error("mux over the empty aggregate accepted")
				}
				if _, err := ExtFDyn(a, 0); err == nil {
					t.Error("dynamic extf from the empty aggregate accepted")
				}
				return
			}

			// Dynamic indices: reads clamp to the last element, writes
			// past the end are dropped; the index is unsigned.
			for _, idx := range []uint64{uint64(n), 1 << 63, ^uint64(0)} {
				got, err := ExtFDyn(a, idx)
				if err != nil || !got.Eq(a.Elem(n-1)) {
					t.Errorf("ExtFDyn(%#x) = %v (%v), want last", idx, got, err)
				}
				same, err := InsFDyn(a, c.elem(0, 7), idx)
				if err != nil || !same.Eq(a) {
					t.Errorf("InsFDyn(%#x) = %v (%v), want unchanged", idx, same, err)
				}
				m, err := Mux(a, Int(64, idx))
				if err != nil || !m.Eq(a.Elem(n-1)) {
					t.Errorf("Mux(%#x) = %v (%v), want last", idx, m, err)
				}
			}
			if got, err := ExtFDyn(a, 0); err != nil || !got.Eq(a.Elem(0)) {
				t.Errorf("ExtFDyn(0) = %v (%v)", got, err)
			}
			if m, err := Mux(generic(a), Int(8, 0)); err != nil || !m.Eq(a.Elem(0)) {
				t.Errorf("Mux(generic, 0) = %v (%v)", m, err)
			}

			// Slices: exts/inss agree with element-wise reconstruction in
			// both forms.
			if n < 2 {
				return
			}
			for _, src := range []Value{a, g} {
				sl, err := ExtS(src, 1, n-1)
				if err != nil || sl.Len() != n-1 {
					t.Fatalf("ExtS = %v (%v)", sl, err)
				}
				for i := 0; i < n-1; i++ {
					if !sl.Elem(i).Eq(a.Elem(i + 1)) {
						t.Fatalf("ExtS elem %d = %v", i, sl.Elem(i))
					}
				}
				if c.ty.Kind != ir.ArrayKind {
					continue // a struct slice is not re-insertable at another offset
				}
				back, err := InsS(d, sl, 0, n-1)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n-1; i++ {
					if !back.Elem(i).Eq(a.Elem(i + 1)) {
						t.Fatalf("InsS elem %d = %v", i, back.Elem(i))
					}
				}
				if !back.Elem(n - 1).Eq(d.Elem(n - 1)) {
					t.Fatal("InsS wrote past its window")
				}
			}
			if empty, err := ExtS(a, 1, 0); err != nil || empty.Len() != 0 || empty.String() != "[]" {
				t.Errorf("empty ExtS = %v (%v)", empty, err)
			}
		})
	}
}

// TestInsFLeavesPackedFormOnKindMismatch: a write the packed form cannot
// hold (a different width, a non-integer) falls back to the generic form
// instead of truncating.
func TestInsFLeavesPackedFormOnKindMismatch(t *testing.T) {
	a := Agg([]Value{Int(8, 1), Int(8, 2)})
	for _, e := range []Value{Int(9, 0x1FF), l4("01XZ"), TimeVal(ir.Nanoseconds(3))} {
		out, err := InsF(a, e, 1)
		if err != nil || out.Width != 0 || !out.Elem(1).Eq(e) || !out.Elem(0).Eq(Int(8, 1)) {
			t.Errorf("InsF(%v) = %v (%v)", e, out, err)
		}
	}
	// And writing the matching element back re-canonicalises.
	mixed, _ := InsF(a, Int(9, 3), 1)
	back, err := InsF(mixed, Int(8, 2), 1)
	if err != nil || back.Width != 8 || !back.Eq(a) {
		t.Errorf("InsF back = %v (%v)", back, err)
	}
}

// oldString is the renderer Value.String was before Append: strconv for
// integers, a []string and strings.Join for aggregates. It stays here as
// the reference Append is held to.
func oldString(v Value) string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatUint(v.Bits, 10)
	case KindTime:
		return v.Time().String()
	case KindLogic:
		return v.Logic().String()
	case KindAgg:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = oldString(v.Elem(i))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}

func checkAppend(t *testing.T, v Value) {
	t.Helper()
	want := oldString(v)
	if got := v.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := string(v.Append([]byte("x = "))); got != "x = "+want {
		t.Errorf("Append = %q, want %q", got, "x = "+want)
	}
}

func TestStringForms(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Value{}, "0"},
		{Int(1, 1), "1"},
		{Int(32, 0xDEADBEEF), "3735928559"},
		{Int(64, ^uint64(0)), "18446744073709551615"},
		{l4("01XZ"), "01XZ"},
		{l4("UX01ZWLH-"), "UX01ZWLH-"},
		{LogicVal(nil), ""},
		{TimeVal(ir.Time{Fs: 1500, Delta: 2, Eps: 1}), "1500fs 2d 1e"},
		{Agg([]Value{Int(8, 1), Int(8, 255)}), "[1, 255]"},
		{Agg([]Value{Int(8, 1), Agg([]Value{Int(4, 2)})}), "[1, [2]]"},
		{Agg([]Value{Agg(nil), Agg([]Value{Agg(nil)})}), "[[], [[]]]"},
		{Agg(nil), "[]"},
		{Agg([]Value{l4("01XZ"), TimeVal(ir.Nanoseconds(1))}), "[01XZ, 1ns]"},
		{Value{Kind: KindTime}, ir.Time{}.String()},
		{Value{Kind: KindAgg}, "[]"},
		{Value{Kind: Kind(9)}, "?"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
		checkAppend(t, c.v)
	}
}

func TestLogicSlicesShareButNeverWrite(t *testing.T) {
	a := l4("01XZ")
	sl, err := ExtS(a, 1, 2)
	if err != nil || sl.String() != l4("1X").String() {
		t.Fatalf("ExtS = %v (%v)", sl, err)
	}
	ins, err := InsS(a, l4("11"), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "01XZ" || sl.String() != l4("1X").String() {
		t.Errorf("InsS wrote through shared storage: a=%v sl=%v ins=%v", a, sl, ins)
	}
}
