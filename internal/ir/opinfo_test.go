package ir

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"llhd/internal/logic"
)

// The oracles of TestOpInfoCoversEveryOpcode: the instruction-set rules as
// the tree spelled them before the table, in the shape they had there
// (opcode ranges and per-kind lists). The table must agree with them, and
// they are what notices a table entry losing a field.

func refTerminator(op Opcode) bool {
	switch op {
	case OpBr, OpWait, OpHalt, OpRet, OpUnreachable:
		return true
	}
	return false
}

func refConst(op Opcode) bool   { return op == OpConstInt || op == OpConstTime || op == OpConstLogic }
func refBinary(op Opcode) bool  { return op >= OpAnd && op <= OpAshr }
func refCompare(op Opcode) bool { return op >= OpEq && op <= OpSge }

func refCommutative(op Opcode) bool {
	switch op {
	case OpAnd, OpOr, OpXor, OpAdd, OpMul, OpEq, OpNeq:
		return true
	}
	return false
}

// refSideEffects is the old HasSideEffects without phi: its one caller,
// DCE, took phi back out (`|| in.Op == OpPhi`).
func refSideEffects(op Opcode) bool {
	switch op {
	case OpDrv, OpReg, OpCon, OpDel, OpInst, OpSt, OpFree, OpCall,
		OpRet, OpBr, OpWait, OpHalt, OpUnreachable, OpSig, OpVar, OpAlloc:
		return true
	}
	return false
}

func refPure(op Opcode) bool {
	switch op {
	case OpConstInt, OpConstTime, OpConstLogic, OpArray, OpStruct, OpNot,
		OpNeg, OpMux, OpInsF, OpInsS:
		return true
	}
	return refBinary(op) || refCompare(op)
}

// refLegal transcribes the three per-kind lists of the old Verify.
func refLegal(op Opcode, kind UnitKind) bool {
	switch kind {
	case UnitFunc:
		switch op {
		case OpWait, OpHalt, OpDrv, OpPrb, OpSig, OpReg, OpInst, OpCon, OpDel:
			return false
		}
	case UnitProc:
		switch op {
		case OpRet, OpSig, OpReg, OpCon, OpDel, OpInst:
			return false
		}
	case UnitEntity:
		switch op {
		case OpBr, OpWait, OpHalt, OpRet, OpPhi, OpVar, OpLd, OpSt,
			OpAlloc, OpFree, OpUnreachable:
			return false
		}
	}
	return true
}

// refLevel is the old entityOpAllowed, read as "the most restrictive level".
func refLevel(op Opcode) Level {
	switch op {
	case OpConstInt, OpConstTime, OpConstLogic, OpArray, OpStruct,
		OpSig, OpCon, OpDel, OpInst:
		return Netlist
	}
	if refLegal(op, UnitEntity) {
		return Structural
	}
	return Behavioural
}

// The forms with a printer and parser case of their own, and the ops that
// carry immediates.
var (
	refIrregular = map[Opcode]bool{
		OpConstInt: true, OpConstTime: true, OpConstLogic: true, OpArray: true, OpStruct: true,
		OpDrv: true, OpReg: true, OpInst: true, OpCall: true, OpRet: true, OpBr: true,
		OpPhi: true, OpWait: true,
	}
	refImms = map[Opcode]int8{OpInsF: 1, OpInsS: 2, OpExtF: 1, OpExtS: 2}
)

// buildForms builds, through the Builder, a unit of the kind holding the
// opcode's shortest form and, where it has another, its longest, and
// returns them with the unit's module.
func buildForms(op Opcode, kind UnitKind) (*Module, []*Inst) {
	i8 := IntType(8)
	u := NewUnit(kind, "u")
	s, s2 := u.AddInput("s", SignalType(i8)), u.AddInput("s2", SignalType(i8))
	p := u.AddInput("p", PointerType(i8))
	var next *Block
	if kind != UnitEntity {
		u.AddBlock("entry")
		next = u.AddBlock("next")
	}
	b := NewBuilder(u)
	x, y := b.ConstInt(i8, 1), b.ConstInt(i8, 2)
	c, t := b.ConstInt(IntType(1), 1), b.ConstTime(Time{Fs: 1})
	arr := b.Array(i8, x, y)

	var forms []*Inst
	switch op {
	case OpConstInt:
		forms = []*Inst{x}
	case OpConstTime:
		forms = []*Inst{t}
	case OpConstLogic:
		forms = []*Inst{b.ConstLogic(logic.Vector{logic.L0})}
	case OpArray:
		forms = []*Inst{b.Array(i8), arr}
	case OpStruct:
		forms = []*Inst{b.Struct(), b.Struct(x, t)}
	case OpNot, OpNeg:
		forms = []*Inst{b.Unary(op, x)}
	case OpMux:
		forms = []*Inst{b.Mux(arr, x)}
	case OpInsF:
		forms = []*Inst{b.InsF(arr, x, 0), b.InsFDyn(arr, x, y)}
	case OpInsS:
		forms = []*Inst{b.InsS(x, y, 0, 8)}
	case OpExtF:
		forms = []*Inst{b.ExtF(arr, 0), b.ExtFDyn(arr, x)}
	case OpExtS:
		forms = []*Inst{b.ExtS(x, 0, 4)}
	case OpSig:
		forms = []*Inst{b.Sig(x)}
	case OpPrb:
		forms = []*Inst{b.Prb(s)}
	case OpDrv:
		forms = []*Inst{b.Drv(s, x, t, nil), b.Drv(s, x, t, c)}
	case OpReg:
		forms = []*Inst{b.Reg(s, nil, RegTrigger{Mode: RegRise, Value: x, Trigger: c})}
	case OpCon:
		forms = []*Inst{b.Con(s, s2)}
	case OpDel:
		forms = []*Inst{b.Del(s, s2, t)}
	case OpInst:
		forms = []*Inst{b.Instantiate("v", nil, nil), b.Instantiate("v", []Value{s}, []Value{s2})}
	case OpVar:
		forms = []*Inst{b.Var(x)}
	case OpLd:
		forms = []*Inst{b.Ld(p)}
	case OpSt:
		forms = []*Inst{b.St(p, x)}
	case OpAlloc:
		forms = []*Inst{b.Alloc(i8)}
	case OpFree:
		forms = []*Inst{b.Free(p)}
	case OpCall:
		forms = []*Inst{b.Call(VoidType(), "f"), b.Call(i8, "f", x, y)}
	case OpRet:
		forms = []*Inst{b.Ret(nil), b.Ret(x)}
	case OpBr:
		forms = []*Inst{b.Br(next), b.BrCond(c, next, next)}
	case OpPhi:
		forms = []*Inst{b.Phi(i8, nil, nil), b.Phi(i8, []Value{x, y}, []*Block{next, next})}
	case OpWait:
		forms = []*Inst{b.Wait(next, nil), b.Wait(next, t, s, s2)}
	case OpHalt:
		forms = []*Inst{b.Halt()}
	case OpUnreachable:
		forms = []*Inst{b.Unreachable()}
	default:
		switch {
		case refBinary(op):
			forms = []*Inst{b.Binary(op, x, y)}
		case refCompare(op):
			forms = []*Inst{b.Compare(op, x, y)}
		}
	}
	m := NewModule("t")
	m.MustAdd(u)
	return m, forms
}

// checkOpInfo holds the table entry of one opcode, as it reads now, to the
// oracles above and to what the Builder constructs.
func checkOpInfo(op Opcode) error {
	info := op.Info()
	if info.Name == "" {
		return fmt.Errorf("no mnemonic")
	}
	if got, ok := OpcodeByName(info.Name); !ok || got.String() != op.String() || (got != op && !refConst(op)) {
		return fmt.Errorf("OpcodeByName(%q) = %v, %v", info.Name, got, ok)
	}
	for _, p := range []struct {
		name      string
		got, want bool
	}{
		{"IsTerminator", op.IsTerminator(), refTerminator(op)},
		{"IsConst", op.IsConst(), refConst(op)},
		{"IsBinary", op.IsBinary(), refBinary(op)},
		{"IsCompare", op.IsCompare(), refCompare(op)},
		{"IsCommutative", op.IsCommutative(), refCommutative(op)},
		{"HasSideEffects", op.HasSideEffects(), refSideEffects(op)},
		{"IsPure", op.IsPure(), refPure(op)},
	} {
		if p.got != p.want {
			return fmt.Errorf("%s() = %v, want %v", p.name, p.got, p.want)
		}
	}
	if want := refLevel(op); info.Level != want {
		return fmt.Errorf("Level = %v, want %v", info.Level, want)
	}

	var forms []*Inst
	for _, kind := range []UnitKind{UnitFunc, UnitProc, UnitEntity} {
		m, built := buildForms(op, kind)
		if len(built) == 0 {
			return fmt.Errorf("buildForms has no case for it")
		}
		err := CheckShape(m)
		if legal := refLegal(op, kind); legal && err != nil {
			return fmt.Errorf("legal in a %s, but CheckShape: %v", kind, err)
		} else if !legal && (err == nil || !strings.Contains(err.Error(), "illegal in "+kind.String())) {
			return fmt.Errorf("illegal in a %s, but CheckShape: %v", kind, err)
		} else if legal {
			forms = built
		}
	}
	short, long := forms[0], forms[len(forms)-1]
	if int(info.MinArgs) != len(short.Args) || int(info.MinDests) != len(short.Dests) {
		return fmt.Errorf("MinArgs, MinDests = %d, %d; the Builder's shortest form has %d, %d",
			info.MinArgs, info.MinDests, len(short.Args), len(short.Dests))
	}
	if info.MaxArgs != Variadic && int(info.MaxArgs) != len(long.Args) ||
		info.MaxDests != Variadic && int(info.MaxDests) != len(long.Dests) {
		return fmt.Errorf("MaxArgs, MaxDests = %d, %d; the Builder's longest form has %d, %d",
			info.MaxArgs, info.MaxDests, len(long.Args), len(long.Dests))
	}

	// The assembly form.
	if irregular := info.Result == ResultIrregular; irregular != refIrregular[op] {
		return fmt.Errorf("irregular form = %v, want %v", irregular, refIrregular[op])
	}
	if info.Imms != refImms[op] {
		return fmt.Errorf("Imms = %d, want %d", info.Imms, refImms[op])
	}
	if info.Result == ResultIrregular {
		return nil
	}
	if info.MaxArgs-info.MinArgs > info.Imms {
		return fmt.Errorf("%d optional operands but %d immediates for them to replace", info.MaxArgs-info.MinArgs, info.Imms)
	}
	for _, in := range forms {
		// Only an instruction with neither operands nor a result is written
		// without a type.
		if bare := len(in.Args) == 0 && in.Ty.IsVoid(); (info.Type == AsmNoType) != bare {
			return fmt.Errorf("written type %d on a form with %d operands and result %s", info.Type, len(in.Args), in.Ty)
		}
		written := info.WrittenType(in)
		if got, err := info.ResultType(written); err != nil || got != in.Ty {
			return fmt.Errorf("ResultType(%v) = %v, %v; the Builder gives %s", written, got, err, in.Ty)
		}
	}
	return nil
}

// TestOpInfoCoversEveryOpcode is to the instruction-set table what
// TestInspectVisitsEveryChild is to the SystemVerilog AST: every opcode has
// an entry; the entry agrees with the predicates, the legality rules and
// the assembly forms the tree spelled by hand before the table, and with
// what the Builder constructs; and no field of any entry can be zeroed
// without a check failing — so a new opcode, or a new field, cannot go in
// half described.
func TestOpInfoCoversEveryOpcode(t *testing.T) {
	for op := OpInvalid + 1; op < numOpcodes; op++ {
		if err := checkOpInfo(op); err != nil {
			t.Errorf("%s (%d): %v", op, op, err)
			continue
		}
		entry := reflect.ValueOf(&opInfos[op]).Elem()
		for i := 0; i < entry.NumField(); i++ {
			f := entry.Field(i)
			saved := reflect.New(f.Type()).Elem()
			saved.Set(f)
			name := entry.Type().Field(i).Name
			// The two sets lose one member at a time, everything else is
			// zeroed whole.
			var mutants []reflect.Value
			switch f.Interface().(type) {
			case KindSet, OpFlags:
				for bit := uint64(1); bit < 1<<8; bit <<= 1 {
					if f.Uint()&bit != 0 {
						m := reflect.New(f.Type()).Elem()
						m.SetUint(f.Uint() &^ bit)
						mutants = append(mutants, m)
					}
				}
			default:
				if !f.IsZero() {
					mutants = append(mutants, reflect.Zero(f.Type()))
				}
			}
			for _, m := range mutants {
				f.Set(m)
				if checkOpInfo(op) == nil {
					t.Errorf("%s: %s = %v instead of %v goes unnoticed", op, name, m.Interface(), saved.Interface())
				}
				f.Set(saved)
			}
		}
	}
	if got := OpInvalid.Info(); got.Kinds != 0 || Opcode(200).Info() != got {
		t.Errorf("OpInvalid and opcodes past the table must share an entry that is legal nowhere")
	}
}

// TestCheckShapeRejects pins what CheckShape is for beyond kind legality:
// the malformed shapes a decoder or a hand-built module can carry, each of
// which used to reach an index expression in an engine.
func TestCheckShapeRejects(t *testing.T) {
	proc := func(ins ...*Inst) *Module {
		u := NewUnit(UnitProc, "p")
		b := u.AddBlock("entry")
		for _, in := range ins {
			b.Append(in)
		}
		b.Append(&Inst{Op: OpHalt, Ty: VoidType()})
		m := NewModule("t")
		m.MustAdd(u)
		return m
	}
	k := &Inst{Op: OpConstInt, Ty: IntType(8)}
	ent := NewUnit(UnitEntity, "e")
	ent.Body().Append(&Inst{Op: OpInst, Ty: VoidType(), Callee: "p", Args: []Value{k}, NumIns: 7})
	ment := NewModule("t")
	ment.MustAdd(ent)
	odd := proc()
	odd.Units[0].Kind = 7

	cases := []struct {
		name string
		m    *Module
		want string
	}{
		{"zero-operand not", proc(&Inst{Op: OpNot, Ty: IntType(8)}), "@p: %<not> (not) in %entry: takes 1 operands, has 0"},
		{"zero-operand extf", proc(&Inst{Op: OpExtF, Ty: IntType(8)}), "takes 1 to 2 operands, has 0"},
		{"three-operand add", proc(k, &Inst{Op: OpAdd, Ty: IntType(8), Args: []Value{k, k, k}}), "takes 2 operands, has 3"},
		{"opcode 0", proc(&Inst{Ty: VoidType()}), "(<invalid>) in %entry: not an opcode of the instruction set"},
		{"opcode 200", proc(&Inst{Op: 200, Ty: VoidType()}), "(op(200)) in %entry: not an opcode of the instruction set"},
		{"NumIns past Args", ment, "inst counts 7 inputs among 1 operands"},
		{"conditional br with one dest", proc(k, &Inst{Op: OpBr, Ty: VoidType(), Args: []Value{k}, Dests: []*Block{nil}}),
			"br with 1 operands takes 2 destination blocks, has 1"},
		{"wait without a resume block", proc(&Inst{Op: OpWait, Ty: VoidType()}), "takes 1 destination blocks, has 0"},
		{"unknown unit kind", odd, "@p: unknown unit kind 7"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckShape(c.m)
			if err == nil || !strings.HasPrefix(err.Error(), "ir: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckShape = %v, want an ir: error mentioning %q", err, c.want)
			}
			if verr := Verify(c.m, Behavioural); verr == nil || !strings.Contains(verr.Error(), c.want) {
				t.Errorf("Verify = %v, want it to report the same", verr)
			}
		})
	}
}
