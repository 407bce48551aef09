package bytecode

import (
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/logic"
	"llhd/internal/val"
)

// opCase is one executable form of an opcode for
// TestOpsReadOperandsBeforeDst: Dst is register 0 and the register
// operands are 1, 2 and 3, so that nothing aliases.
type opCase struct {
	ins     Instr
	regs    string       // which of A, B, C are registers: a subset of "ABC"
	aux     []int32      // the unit's aux pool
	auxRegs []int        // positions in aux that hold register numbers
	vals    [4]val.Value // initial registers 0..3
}

func logicVal(t *testing.T, s string) val.Value {
	t.Helper()
	v, err := logic.ParseVector(s)
	if err != nil {
		t.Fatal(err)
	}
	return val.LogicVal(v)
}

func bytesVal(xs ...uint64) val.Value {
	elems := make([]val.Value, len(xs))
	for i, x := range xs {
		elems[i] = val.Int(8, x)
	}
	return val.Agg(elems)
}

// TestOpsReadOperandsBeforeDst pins the invariant store coalescing rests
// on (rule 2 of plan.go): every arm of run reads all its operands before
// it writes Dst. Each opcode that writes a Dst register is executed once
// with distinct registers and once per register operand with Dst naming
// that operand's register — in the instruction and in its aux record, on
// scalar, logic and aggregate operands — and must produce the same value.
// The walk is over the opcode space: an opcode that is in neither
// opWritesDst nor the no-Dst list below, or that writes Dst and has no
// case here, fails the test until it is covered.
func TestOpsReadOperandsBeforeDst(t *testing.T) {
	noDst := map[Op]bool{
		opDrv: true, opDrvCond: true, opDel: true, opReg: true,
		opAssert: true, opDisplay: true, opBadCall: true,
		opJump: true, opBranch: true, opBrEq: true, opBrUlt: true, opMoves: true, opWaitArm: true, opSuspend: true,
		opHalt: true, opRet: true, opRetV: true, opUnreach: true,
	}

	i8 := func(x uint64) val.Value { return val.Int(8, x) }
	lv := func(s string) val.Value { return logicVal(t, s) }
	pair := val.Agg([]val.Value{i8(3), lv("01XZ")}) // a struct: not packable
	none := lv("ZZZZZ")                             // in r0 until the instruction writes it; no case produces it

	// The integer ops share one shape.
	intBin := func(op Op) []opCase {
		return []opCase{{ins: Instr{Op: op, A: 1, B: 2, C: 8}, regs: "AB", vals: [4]val.Value{none, i8(0xb5), i8(3)}}}
	}
	cases := map[Op][]opCase{
		opMove: {
			{ins: Instr{Op: opMove, A: 1}, regs: "A", vals: [4]val.Value{i8(1), i8(7)}},
			{ins: Instr{Op: opMove, A: 1}, regs: "A", vals: [4]val.Value{i8(1), lv("1X0Z")}},
			{ins: Instr{Op: opMove, A: 1}, regs: "A", vals: [4]val.Value{i8(1), bytesVal(1, 2, 3)}},
		},
		opClone:   {{ins: Instr{Op: opClone, A: 1}, regs: "A", vals: [4]val.Value{i8(1), bytesVal(4, 5)}}},
		opCloneP:  {{ins: Instr{Op: opCloneP, A: 0}, vals: [4]val.Value{none}}},
		opNot:     {{ins: Instr{Op: opNot, A: 1, C: 8}, regs: "A", vals: [4]val.Value{none, i8(0x5a)}}},
		opNeg:     {{ins: Instr{Op: opNeg, A: 1, C: 8}, regs: "A", vals: [4]val.Value{none, i8(0x5a)}}},
		opEq:      {{ins: Instr{Op: opEq, A: 1, B: 2}, regs: "AB", vals: [4]val.Value{none, i8(4), i8(4)}}},
		opNeq:     {{ins: Instr{Op: opNeq, A: 1, B: 2}, regs: "AB", vals: [4]val.Value{none, i8(4), i8(5)}}},
		opExtSInt: {{ins: Instr{Op: opExtSInt, A: 1, B: 2, C: 4}, regs: "A", vals: [4]val.Value{none, i8(0xb5)}}},
		opInsSInt: {{ins: Instr{Op: opInsSInt, A: 1, B: 2, C: 0}, regs: "AB", aux: []int32{2, 3, 8},
			vals: [4]val.Value{none, i8(0xff), i8(0x2)}}},
		opInsSCat: {{ins: Instr{Op: opInsSCat, A: 1, B: 2, C: 0}, regs: "A", aux: []int32{8, 2, 0, 2, 3, 5, 3}, auxRegs: []int{1, 4},
			vals: [4]val.Value{none, i8(0xff), i8(0x1), i8(0x2)}}},
		opInsSRep: {{ins: Instr{Op: opInsSRep, A: 1, B: 2, C: 0}, regs: "A", aux: []int32{8, 2, 0, 1, 3, 3, 3, 2, 2}, auxRegs: []int{1, 5},
			vals: [4]val.Value{none, i8(0xff), i8(0x1), i8(0x2)}}},
		opEvalBin: {
			{ins: Instr{Op: opEvalBin, A: 1, B: 2, C: int32(ir.OpUdiv)}, regs: "AB", vals: [4]val.Value{none, i8(200), i8(7)}},
			{ins: Instr{Op: opEvalBin, A: 1, B: 2, C: int32(ir.OpXor)}, regs: "AB", vals: [4]val.Value{none, lv("01XZ"), lv("1100")}},
		},
		opEvalUn: {{ins: Instr{Op: opEvalUn, A: 1, C: int32(ir.OpNot)}, regs: "A", vals: [4]val.Value{none, lv("01XZ")}}},
		opMux: {
			{ins: Instr{Op: opMux, A: 1, B: 2}, regs: "AB", vals: [4]val.Value{none, bytesVal(10, 20, 30), i8(1)}},
			{ins: Instr{Op: opMux, A: 1, B: 2}, regs: "AB", vals: [4]val.Value{none, val.Agg([]val.Value{lv("01"), lv("ZX")}), i8(1)}},
		},
		opExtF: {
			{ins: Instr{Op: opExtF, A: 1, B: 2}, regs: "A", vals: [4]val.Value{none, bytesVal(10, 20, 30)}},
			{ins: Instr{Op: opExtF, A: 1, B: 1}, regs: "A", vals: [4]val.Value{none, pair}},
		},
		opExtFDyn: {{ins: Instr{Op: opExtFDyn, A: 1, B: 2}, regs: "AB", vals: [4]val.Value{none, bytesVal(10, 20, 30), i8(2)}}},
		opExtS: {
			{ins: Instr{Op: opExtS, A: 1, B: 1, C: 2}, regs: "A", vals: [4]val.Value{none, lv("01XZ")}},
			{ins: Instr{Op: opExtS, A: 1, B: 1, C: 2}, regs: "A", vals: [4]val.Value{none, bytesVal(10, 20, 30)}},
		},
		opInsF: {
			{ins: Instr{Op: opInsF, A: 1, B: 2, C: 1}, regs: "AB", vals: [4]val.Value{none, bytesVal(10, 20, 30), i8(99)}},
			{ins: Instr{Op: opInsF, A: 1, B: 2, C: 1}, regs: "AB", vals: [4]val.Value{none, pair, lv("1111")}},
		},
		opInsFDyn: {{ins: Instr{Op: opInsFDyn, A: 1, B: 2, C: 3}, regs: "ABC",
			vals: [4]val.Value{none, bytesVal(10, 20, 30), i8(99), i8(2)}}},
		opInsS: {
			{ins: Instr{Op: opInsS, A: 1, B: 2, C: 0}, regs: "AB", aux: []int32{1, 2}, vals: [4]val.Value{none, lv("0000"), lv("X1")}},
			{ins: Instr{Op: opInsS, A: 1, B: 2, C: 0}, regs: "AB", aux: []int32{1, 2},
				vals: [4]val.Value{none, bytesVal(10, 20, 30), bytesVal(7, 8)}},
		},
		opAgg: {{ins: Instr{Op: opAgg, A: 0, B: 3}, aux: []int32{1, 2, 3}, auxRegs: []int{0, 1, 2},
			vals: [4]val.Value{none, i8(1), lv("0Z"), bytesVal(5)}}},
		opPrb:     {{ins: Instr{Op: opPrb, A: 0}, vals: [4]val.Value{none}}},
		opCall:    {{ins: Instr{Op: opCall, A: 0, B: 0, C: 2}, aux: []int32{1, 2}, auxRegs: []int{0, 1}, vals: [4]val.Value{none, i8(30), i8(12)}}},
		opTimeNow: {{ins: Instr{Op: opTimeNow}, vals: [4]val.Value{none}}},
		// Dst is its one register operand: TestBrRiseReadsDstBeforeWrite.
		opBrRise: {{ins: Instr{Op: opBrRise, A: 0, B: 1, C: 1}, vals: [4]val.Value{none}}},
	}
	for _, op := range []Op{opAdd, opSub, opMul, opAnd, opOr, opXor, opShl, opShr, opAshr,
		opUlt, opUgt, opUle, opUge, opSlt, opSgt, opSle, opSge} {
		cases[op] = intBin(op)
	}

	// What the cases need around them: a function to call, a signal to
	// probe, a pool template.
	m := assembly.MustParse("m", `
func @sub (i8 %a, i8 %b) i8 {
 entry:
  %d = sub i8 %a, %b
  ret i8 %d
}
`)
	prog := NewProgram(m)
	if _, err := prog.Func("sub"); err != nil {
		t.Fatal(err)
	}
	e := engine.New()
	sig := e.NewSignal("s", ir.IntType(8), val.Int(8, 5))
	exec := func(c opCase, dst int32) val.Value {
		t.Helper()
		c.ins.Dst = dst
		u := &Unit{Name: "t", Code: []Instr{c.ins, {Op: opHalt}}, Aux: c.aux,
			Pool: []val.Value{bytesVal(8, 9)}, NRegs: len(c.vals)}
		fr := &Frame{Regs: append([]val.Value(nil), c.vals[:]...), Sigs: []engine.SigRef{{Sig: sig}}}
		if _, err := NewRuntime(prog).Exec(e, u, fr, 0); err != nil {
			t.Fatalf("%s with Dst = r%d: %v", c.ins.Op, dst, err)
		}
		return fr.Regs[dst]
	}

	for op := Op(1); op < numOps; op++ {
		if noDst[op] != !opWritesDst[op] {
			t.Errorf("%s: opWritesDst says %v, this test's no-Dst list says %v", op, opWritesDst[op], noDst[op])
			continue
		}
		if noDst[op] {
			continue
		}
		if len(cases[op]) == 0 {
			t.Errorf("%s writes Dst and has no case in this test", op)
		}
		for k, c := range cases[op] {
			want := exec(c, 0)
			if want.Eq(none) {
				t.Errorf("%s case %d: r0 was not written", op, k)
			}
			var alias []int32
			for _, f := range c.regs {
				alias = append(alias, map[rune]int32{'A': c.ins.A, 'B': c.ins.B, 'C': c.ins.C}[f])
			}
			for _, at := range c.auxRegs {
				alias = append(alias, c.aux[at])
			}
			for _, r := range alias {
				if got := exec(c, r); !got.Eq(want) || got.String() != want.String() {
					t.Errorf("%s case %d: Dst = r%d gives %s, distinct registers give %s", op, k, r, got, want)
				}
			}
		}
	}
}

// TestDisasmCoversEveryOp is TestOpInfoCoversEveryOpcode for the bytecode:
// every opcode has a mnemonic of its own and an arm in
// disasmInstr (the fallback rendering marks a missing one), and inss.cat
// prints its pieces.
func TestDisasmCoversEveryOp(t *testing.T) {
	u := &Unit{Aux: make([]int32, 16), Strs: []string{"llhd.x"}}
	byName := map[string]Op{}
	for op := Op(0); op < numOps; op++ {
		name := opNames[op]
		if name == "" {
			t.Errorf("opcode %d has no mnemonic", op)
			continue
		}
		if prev, dup := byName[name]; dup {
			t.Errorf("opcodes %d and %d share the mnemonic %q", prev, op, name)
		}
		byName[name] = op
		u.Code = []Instr{{Op: op, B: 1}}
		line := disasmInstr(u, 0)
		if !strings.Contains(line, name) || strings.Contains(line, "dst=") {
			t.Errorf("%s has no arm in disasmInstr: %q", name, line)
		}
	}
	u.Aux = []int32{20, 5, 0, 1, 6, 12, 8}
	u.Code = []Instr{{Op: opInsSCat, Dst: 9, A: 4, B: 2, C: 0}}
	if got, want := disasmInstr(u, 0), "  0000  inss.cat r9, r4, w=20, r5@0+1, r6@12+8"; got != want {
		t.Errorf("inss.cat renders as %q, want %q", got, want)
	}
	u.Aux = []int32{32, 5, 0, 1, 20, 6, 20, 12, 1}
	u.Code = []Instr{{Op: opInsSRep, Dst: 9, A: 4, B: 2, C: 0}}
	if got, want := disasmInstr(u, 0), "  0000  inss.rep r9, r4, w=32, r5@0+1x20, r6@20+12x1"; got != want {
		t.Errorf("inss.rep renders as %q, want %q", got, want)
	}
	u.Code = []Instr{{Op: opBrUlt, Dst: 7, A: 1, B: 2, C: 3}}
	if got, want := disasmInstr(u, 0), "  0000  br.ult  r1, r2, @0007, @0003"; got != want {
		t.Errorf("br.ult renders as %q, want %q", got, want)
	}
}

// TestBrRiseReadsDstBeforeWrite is TestOpsReadOperandsBeforeDst's row for
// br.rise, whose Dst is both what it tests and what it writes (rule 13 of
// plan.go): over the four pairs of the value Regs[Dst] held and the value
// the probe reads, it takes the true target for 0 then 1 alone, and
// leaves the probe in Regs[Dst] whichever target it takes.
func TestBrRiseReadsDstBeforeWrite(t *testing.T) {
	e := engine.New()
	sigs := []engine.SigRef{
		{Sig: e.NewSignal("lo", ir.IntType(1), val.Int(1, 0))},
		{Sig: e.NewSignal("hi", ir.IntType(1), val.Int(1, 1))},
	}
	for was := uint64(0); was < 2; was++ {
		for now := int32(0); now < 2; now++ {
			u := &Unit{Name: "t", NRegs: 3, Code: []Instr{
				{Op: opBrRise, Dst: 0, A: now, B: 1, C: 3},
				{Op: opMove, Dst: 1, A: 2}, // the false target marks r1
				{Op: opHalt},
				{Op: opHalt},
			}}
			fr := &Frame{Regs: []val.Value{val.Int(1, was), val.Int(8, 0), val.Int(8, 1)}, Sigs: sigs}
			if _, err := NewRuntime(NewProgram(nil)).Exec(e, u, fr, 0); err != nil {
				t.Fatal(err)
			}
			rose := fr.Regs[1].Bits == 0
			if want := was == 0 && now == 1; rose != want {
				t.Errorf("Dst held %d, the probe read %d: took the true target %v, want %v", was, now, rose, want)
			}
			if !fr.Regs[0].Eq(val.Int(1, uint64(now))) {
				t.Errorf("Dst held %d, the probe read %d: Dst = %s afterwards, want the probe", was, now, fr.Regs[0])
			}
		}
	}
}
