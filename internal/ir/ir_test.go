package ir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTypeInterning(t *testing.T) {
	if IntType(32) != IntType(32) {
		t.Error("IntType(32) not interned")
	}
	if IntType(32) == IntType(16) {
		t.Error("distinct widths interned to the same type")
	}
	if SignalType(IntType(8)) != SignalType(IntType(8)) {
		t.Error("signal types not interned")
	}
	if PointerType(IntType(8)) == SignalType(IntType(8)) {
		t.Error("pointer and signal types conflated")
	}
	st := StructType(IntType(1), TimeType())
	if st != StructType(IntType(1), TimeType()) {
		t.Error("struct types not interned")
	}
	if ArrayType(4, IntType(8)) != ArrayType(4, IntType(8)) {
		t.Error("array types not interned")
	}
	if ArrayType(4, IntType(8)) == ArrayType(5, IntType(8)) {
		t.Error("array lengths conflated")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty   *Type
		want string
	}{
		{VoidType(), "void"},
		{TimeType(), "time"},
		{IntType(1), "i1"},
		{IntType(32), "i32"},
		{EnumType(4), "n4"},
		{LogicType(9), "l9"},
		{PointerType(IntType(32)), "i32*"},
		{SignalType(IntType(1)), "i1$"},
		{ArrayType(4, IntType(8)), "[4 x i8]"},
		{StructType(IntType(32), TimeType()), "{i32, time}"},
		{SignalType(ArrayType(2, IntType(16))), "[2 x i16]$"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if !IntType(1).IsBool() || IntType(2).IsBool() {
		t.Error("IsBool wrong")
	}
	if !SignalType(IntType(4)).IsSignal() {
		t.Error("IsSignal wrong")
	}
	if !ArrayType(3, IntType(1)).IsAggregate() || !StructType().IsAggregate() {
		t.Error("IsAggregate wrong")
	}
}

func TestBitWidth(t *testing.T) {
	cases := []struct {
		ty   *Type
		want int
	}{
		{IntType(13), 13},
		{LogicType(9), 9},
		{EnumType(4), 2},
		{EnumType(5), 3},
		{EnumType(1), 1},
		{ArrayType(4, IntType(8)), 32},
		{StructType(IntType(3), IntType(5)), 8},
		{VoidType(), 0},
	}
	for _, c := range cases {
		if got := c.ty.BitWidth(); got != c.want {
			t.Errorf("%s.BitWidth() = %d, want %d", c.ty, got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Nanoseconds(2)
	b := Time{Delta: 1}
	if got := a.Add(b); got != (Time{Fs: 2 * Nanosecond, Delta: 1}) {
		t.Errorf("2ns + 1d = %v", got)
	}
	// Adding physical time resets delta.
	c := Time{Fs: Nanosecond, Delta: 3}
	if got := c.Add(Nanoseconds(1)); got != (Time{Fs: 2 * Nanosecond}) {
		t.Errorf("1ns3d + 1ns = %v", got)
	}
	if !a.Before(Time{Fs: 2 * Nanosecond, Delta: 1}) {
		t.Error("delta ordering broken")
	}
	if Nanoseconds(1).Compare(Nanoseconds(1)) != 0 {
		t.Error("equal times not equal")
	}
}

func TestTimeStringRoundTrip(t *testing.T) {
	cases := []Time{
		{},
		Nanoseconds(1),
		Picoseconds(250),
		{Fs: 1500}, // 1500 fs: no coarser unit divides it
		{Fs: Nanosecond, Delta: 2},
		{Fs: 0, Delta: 1, Eps: 3},
	}
	for _, c := range cases {
		s := c.String()
		got, err := ParseTime(s)
		if err != nil {
			t.Fatalf("ParseTime(%q): %v", s, err)
		}
		if got != c {
			t.Errorf("round trip %v -> %q -> %v", c, s, got)
		}
	}
}

// oldTimeString is the fmt-based renderer Time.String was before Append;
// it stays here as the reference Append is held to.
func oldTimeString(t Time) string {
	fs := fmt.Sprintf("%dfs", t.Fs)
	if t.Fs == 0 {
		fs = "0s"
	} else {
		for _, u := range []struct {
			fs   int64
			name string
		}{{Second, "s"}, {Millisecond, "ms"}, {Microsecond, "us"}, {Nanosecond, "ns"}, {Picosecond, "ps"}} {
			if t.Fs%u.fs == 0 {
				fs = fmt.Sprintf("%d%s", t.Fs/u.fs, u.name)
				break
			}
		}
	}
	if t.Delta != 0 {
		fs += fmt.Sprintf(" %dd", t.Delta)
	}
	if t.Eps != 0 {
		fs += fmt.Sprintf(" %de", t.Eps)
	}
	return fs
}

// TestTimeAppendProperty: over random (Fs, Delta, Eps) — every unit
// boundary, its neighbours and 0s among them — the text parses back to the
// time it came from, and Append yields exactly what the fmt-based String
// yielded, after whatever the buffer already held.
func TestTimeAppendProperty(t *testing.T) {
	units := []int64{Femtosecond, Picosecond, Nanosecond, Microsecond, Millisecond, Second}
	check := func(c Time) {
		t.Helper()
		s := c.String()
		if want := oldTimeString(c); s != want {
			t.Fatalf("String(%+v) = %q, want %q", c, s, want)
		}
		if got := string(c.Append([]byte("t="))); got != "t="+s {
			t.Fatalf("Append(%+v) = %q, want %q", c, got, "t="+s)
		}
		got, err := ParseTime(s)
		if err != nil || got != c {
			t.Fatalf("ParseTime(%q) = %+v (%v), want %+v", s, got, err, c)
		}
	}
	steps := []int{0, 1, 2, 7, 1000, 1 << 30}
	for _, d := range steps {
		for _, e := range steps {
			check(Time{Delta: d, Eps: e})
			for _, u := range units {
				for _, fs := range []int64{u, u - 1, u + 1, 999 * u, 1000*u - 1, 1000*u + u, 9223 * u} {
					check(Time{Fs: fs, Delta: d, Eps: e})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20000; i++ {
		// A random count of a random unit, so every suffix is drawn as
		// often as "fs"; the count stays clear of int64 overflow.
		u := units[rng.Intn(len(units))]
		c := Time{Fs: rng.Int63n(math.MaxInt64/u) >> uint(rng.Intn(40)) * u}
		if rng.Intn(2) == 0 {
			c.Delta = rng.Intn(1 << 20)
		}
		if rng.Intn(3) == 0 {
			c.Eps = rng.Intn(1 << 20)
		}
		check(c)
	}
}

func TestParseTimeErrors(t *testing.T) {
	for _, s := range []string{"", "abc", "1", "1xs", "1ns 2q"} {
		if _, err := ParseTime(s); err == nil {
			t.Errorf("ParseTime(%q) unexpectedly succeeded", s)
		}
	}
}

func TestTimeCompareProperties(t *testing.T) {
	// Compare must be antisymmetric and consistent with Add monotonicity.
	f := func(aFs, bFs uint16, aD, bD uint8) bool {
		a := Time{Fs: int64(aFs), Delta: int(aD)}
		b := Time{Fs: int64(bFs), Delta: int(bD)}
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Adding the same physical time preserves order of Fs-only times.
		if a.Delta == 0 && b.Delta == 0 {
			d := Nanoseconds(1)
			if a.Compare(b) != a.Add(d).Compare(b.Add(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskAndSignExtend(t *testing.T) {
	if MaskWidth(0xff, 4) != 0xf {
		t.Error("MaskWidth wrong")
	}
	if MaskWidth(0x1234, 64) != 0x1234 {
		t.Error("MaskWidth at 64 must be identity")
	}
	if SignExtend(0xf, 4) != -1 {
		t.Error("SignExtend negative wrong")
	}
	if SignExtend(0x7, 4) != 7 {
		t.Error("SignExtend positive wrong")
	}
	if SignExtend(0x80, 8) != -128 {
		t.Error("SignExtend boundary wrong")
	}
}

func TestSignExtendProperty(t *testing.T) {
	f := func(v uint32, wRaw uint8) bool {
		w := int(wRaw%63) + 1
		masked := MaskWidth(uint64(v), w)
		se := SignExtend(masked, w)
		// Re-masking the sign-extended value must give back the original.
		return MaskWidth(uint64(se), w) == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildCounterProc constructs a small process with a loop for CFG tests.
func buildCounterProc(t *testing.T) *Unit {
	t.Helper()
	u := NewUnit(UnitProc, "counter")
	clk := u.AddInput("clk", SignalType(IntType(1)))
	q := u.AddOutput("q", SignalType(IntType(8)))
	b := NewBuilder(u)

	entry := u.AddBlock("entry")
	loop := u.AddBlock("loop")
	b.SetBlock(entry)
	zero := b.ConstInt(IntType(8), 0)
	one := b.ConstInt(IntType(8), 1)
	del := b.ConstTime(Nanoseconds(1))
	b.Br(loop)
	b.SetBlock(loop)
	phi := b.Phi(IntType(8), []Value{zero, nil}, []*Block{entry, loop})
	next := b.Add(phi, one)
	phi.Args[1] = next
	b.Drv(q, next, del, nil)
	b.Wait(loop, nil, clk)
	return u
}

func TestBuilderAndVerify(t *testing.T) {
	m := NewModule("test")
	u := buildCounterProc(t)
	// Remove the synthetic empty first block created before entry? NewUnit
	// for proc has no blocks, so entry is Blocks[0]. Just verify.
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := Verify(m, Structural); err == nil {
		t.Error("process verified at structural level; want error")
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitFunc, "f")
	u.RetType = VoidType()
	b := NewBuilder(u)
	blk := u.AddBlock("entry")
	b.SetBlock(blk)
	b.ConstInt(IntType(8), 1) // no terminator
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err == nil {
		t.Error("missing terminator not caught")
	}
}

func TestVerifyCatchesSignalOpsInFunc(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitFunc, "f")
	sig := u.AddInput("s", SignalType(IntType(1)))
	b := NewBuilder(u)
	blk := u.AddBlock("entry")
	b.SetBlock(blk)
	b.Prb(sig)
	b.Ret(nil)
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err == nil {
		t.Error("prb in function not caught")
	}
}

func TestVerifyCatchesRetInProcess(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitProc, "p")
	b := NewBuilder(u)
	blk := u.AddBlock("entry")
	b.SetBlock(blk)
	b.Ret(nil)
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err == nil {
		t.Error("ret in process not caught")
	}
}

func TestEntityLevels(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitEntity, "top")
	b := NewBuilder(u)
	zero := b.ConstInt(IntType(1), 0)
	b.Sig(zero)
	m.MustAdd(u)
	if err := Verify(m, Netlist); err != nil {
		t.Fatalf("sig entity should be netlist level: %v", err)
	}
	if got := LevelOf(m); got != Netlist {
		t.Errorf("LevelOf = %v, want netlist", got)
	}

	// Adding an add instruction pushes it to structural.
	one := b.ConstInt(IntType(1), 1)
	b.Add(zero, one)
	if err := Verify(m, Netlist); err == nil {
		t.Error("add verified at netlist level; want error")
	}
	if err := Verify(m, Structural); err != nil {
		t.Errorf("add entity should be structural: %v", err)
	}
	if got := LevelOf(m); got != Structural {
		t.Errorf("LevelOf = %v, want structural", got)
	}
}

func TestLevelContains(t *testing.T) {
	// Netlist ⊂ Structural ⊂ Behavioural (§2.2).
	if !Behavioural.Contains(Netlist) || !Behavioural.Contains(Structural) {
		t.Error("behavioural must contain the lower levels")
	}
	if !Structural.Contains(Netlist) {
		t.Error("structural must contain netlist")
	}
	if Netlist.Contains(Structural) || Netlist.Contains(Behavioural) {
		t.Error("netlist must not contain higher levels")
	}
}

func TestUsesAndReplace(t *testing.T) {
	u := buildCounterProc(t)
	var phi, add *Inst
	u.ForEachInst(func(_ *Block, in *Inst) {
		switch in.Op {
		case OpPhi:
			phi = in
		case OpAdd:
			add = in
		}
	})
	uses := u.Uses()
	if len(uses[phi]) != 1 || uses[phi][0] != add {
		t.Fatalf("uses of phi = %v, want [add]", uses[phi])
	}
	// Replace the phi by a constant everywhere.
	b := NewBuilder(u)
	b.SetBlock(u.Entry())
	k := &Inst{Op: OpConstInt, Ty: IntType(8), IVal: 7}
	u.Entry().InsertBefore(k, u.Entry().Insts[0])
	n := u.ReplaceAllUses(phi, k)
	if n != 1 {
		t.Errorf("ReplaceAllUses = %d, want 1", n)
	}
	if add.Args[0] != k {
		t.Error("add operand not rewritten")
	}
}

func TestDomTree(t *testing.T) {
	//      entry
	//      /   \
	//     a     b
	//      \   /
	//       join -> exit
	u := NewUnit(UnitFunc, "f")
	cond := u.AddInput("c", IntType(1))
	b := NewBuilder(u)
	entry := u.AddBlock("entry")
	ba := u.AddBlock("a")
	bb := u.AddBlock("b")
	join := u.AddBlock("join")
	exit := u.AddBlock("exit")
	b.SetBlock(entry)
	b.BrCond(cond, ba, bb)
	b.SetBlock(ba)
	b.Br(join)
	b.SetBlock(bb)
	b.Br(join)
	b.SetBlock(join)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(nil)

	dt := NewDomTree(u)
	if dt.IDom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", dt.IDom(join))
	}
	if dt.IDom(ba) != entry || dt.IDom(bb) != entry {
		t.Error("idom of branches should be entry")
	}
	if dt.IDom(exit) != join {
		t.Errorf("idom(exit) = %v, want join", dt.IDom(exit))
	}
	if !dt.Dominates(entry, exit) {
		t.Error("entry must dominate exit")
	}
	if dt.Dominates(ba, join) {
		t.Error("a must not dominate join")
	}
	if got := dt.CommonDominator(ba, bb); got != entry {
		t.Errorf("common dominator = %v, want entry", got)
	}
}

func TestModuleLink(t *testing.T) {
	m1 := NewModule("a")
	m1.MustAdd(NewUnit(UnitEntity, "top"))
	m2 := NewModule("b")
	m2.MustAdd(NewUnit(UnitEntity, "sub"))
	if err := m1.Link(m2); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if m1.Unit("sub") == nil {
		t.Error("linked unit not found")
	}
	m3 := NewModule("c")
	m3.MustAdd(NewUnit(UnitEntity, "top"))
	if err := m1.Link(m3); err == nil {
		t.Error("duplicate link not rejected")
	}
}

func TestModuleDuplicate(t *testing.T) {
	m := NewModule("test")
	m.MustAdd(NewUnit(UnitEntity, "x"))
	if err := m.Add(NewUnit(UnitProc, "x")); err == nil {
		t.Error("duplicate global name not rejected")
	}
}

func TestInstCloneDetached(t *testing.T) {
	u := buildCounterProc(t)
	orig := u.Entry().Insts[0]
	cp := orig.Clone()
	if cp.Block() != nil {
		t.Error("clone should be detached")
	}
	cp.Args = append(cp.Args, nil)
	if len(orig.Args) == len(cp.Args) {
		t.Error("clone shares Args slice")
	}
}

func TestMemFootprintGrowth(t *testing.T) {
	m := NewModule("test")
	base := m.MemFootprint()
	m.MustAdd(buildCounterProc(t))
	if m.MemFootprint() <= base {
		t.Error("footprint must grow when units are added")
	}
}

func TestBlockInsertRemove(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	b := NewBuilder(u)
	k1 := b.ConstInt(IntType(8), 1)
	k2 := b.ConstInt(IntType(8), 2)
	body := u.Body()
	k0 := &Inst{Op: OpConstInt, Ty: IntType(8), IVal: 0}
	body.InsertBefore(k0, k1)
	if body.Insts[0] != k0 {
		t.Error("InsertBefore did not prepend")
	}
	if body.Index(k2) != 2 {
		t.Errorf("Index(k2) = %d, want 2", body.Index(k2))
	}
	body.Remove(k1)
	if body.Index(k1) != -1 || len(body.Insts) != 2 {
		t.Error("Remove failed")
	}
}

// TestRegModeFires is the full truth table of the reg firing rule that
// both engines call: levels look at the current sample alone, edges at the
// transition from the previous one.
func TestRegModeFires(t *testing.T) {
	// Indexed [was][now] as 00, 01, 10, 11.
	table := map[RegMode][4]bool{
		RegLow:  {true, false, true, false},
		RegHigh: {false, true, false, true},
		RegRise: {false, true, false, false},
		RegFall: {false, false, true, false},
		RegBoth: {false, true, true, false},
	}
	for mode, want := range table {
		for i, w := range want {
			was, now := i&2 != 0, i&1 != 0
			if got := mode.Fires(was, now); got != w {
				t.Errorf("%s.Fires(was=%v, now=%v) = %v, want %v", mode, was, now, got, w)
			}
		}
	}
	if RegMode(200).Fires(false, true) {
		t.Error("an unknown mode fired")
	}
}
