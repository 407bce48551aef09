package ir

import (
	"fmt"
	"reflect"
	"slices"
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
	var extra []*Unit // units the forms need besides u
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
		forms = []*Inst{b.Instantiate("v", nil, nil), b.Instantiate("w", []Value{s}, []Value{s2})}
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
		forms = []*Inst{b.Call(VoidType(), "f"), b.Call(i8, "g", x, y)}
	case OpRet:
		// A function returns one type: the void form goes in a second one.
		void := NewUnit(UnitFunc, "h")
		void.AddBlock("entry")
		u.RetType = i8
		forms = []*Inst{NewBuilder(void).Ret(nil), b.Ret(x)}
		extra = append(extra, void)
	case OpBr:
		forms = []*Inst{b.Br(next), b.BrCond(c, next, next)}
	case OpPhi:
		// A phi names each predecessor of its block once: none of the
		// entry, and of next the entry and next itself.
		forms = []*Inst{b.Phi(i8, nil, nil)}
		if next == nil { // an entity, which holds no phi
			forms = append(forms, b.Phi(i8, []Value{x, y}, []*Block{nil, nil}))
			break
		}
		b.Br(next)
		b.SetBlock(next)
		forms = append(forms, b.Phi(i8, []Value{x, y}, []*Block{u.Blocks[0], next}))
		b.Br(next)
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
	for _, x := range append([]*Unit{u}, extra...) {
		m.MustAdd(x)
	}
	complete(m, u)
	return m, forms
}

// complete makes what is around the forms legal: each block of a process
// or function ends in exactly one terminator (a terminator form ends a
// block of its own, an unterminated block gets an unreachable), and the
// units the call and inst forms name exist, with their signatures.
func complete(m *Module, u *Unit) {
	if u.Kind != UnitEntity {
		for _, b := range slices.Clone(u.Blocks) {
			insts, cur := b.Insts, b
			b.Insts = nil
			for i, in := range insts {
				cur.Append(in)
				if in.Op.IsTerminator() && i+1 < len(insts) {
					cur = u.InsertBlockAfter("", cur)
				}
			}
			if cur.Terminator() == nil {
				cur.Append(&Inst{Op: OpUnreachable, Ty: VoidType()})
			}
		}
	}
	i8 := IntType(8)
	f, g := NewUnit(UnitFunc, "f"), NewUnit(UnitFunc, "g")
	g.RetType = i8
	g.AddInput("a", i8)
	g.AddInput("b", i8)
	for _, fn := range []*Unit{f, g} {
		fn.AddBlock("entry").Append(&Inst{Op: OpUnreachable, Ty: VoidType()})
	}
	v, w := NewUnit(UnitEntity, "v"), NewUnit(UnitEntity, "w")
	w.AddInput("a", SignalType(i8))
	w.AddOutput("q", SignalType(i8))
	for _, x := range []*Unit{f, g, v, w} {
		m.MustAdd(x)
	}
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
	i4, i8, i32 := IntType(4), IntType(8), IntType(32)
	k32 := &Inst{Op: OpConstInt, Ty: i32}
	named := func(in *Inst) *Inst { in.SetName("x"); return in }
	// with adds callees to a module: @f (i8) i8, @g a process of an i8
	// input and output.
	with := func(m *Module) *Module {
		f := NewUnit(UnitFunc, "f")
		f.RetType = i8
		f.AddInput("a", i8)
		f.AddBlock("entry").Append(&Inst{Op: OpRet, Ty: VoidType(), Args: []Value{f.Inputs[0]}})
		g := NewUnit(UnitProc, "g")
		g.AddInput("a", SignalType(i8))
		g.AddOutput("q", SignalType(i8))
		g.AddBlock("entry").Append(&Inst{Op: OpHalt, Ty: VoidType()})
		m.MustAdd(f)
		m.MustAdd(g)
		return m
	}
	entity := func(ins ...*Inst) *Module {
		e := NewUnit(UnitEntity, "e")
		for _, in := range ins {
			e.Body().Append(in)
		}
		m := NewModule("t")
		m.MustAdd(e)
		return with(m)
	}
	s8 := &Inst{Op: OpSig, Ty: SignalType(i8), Args: []Value{k}}
	s32 := &Inst{Op: OpSig, Ty: SignalType(i32), Args: []Value{k32}}
	elsewhere := proc()
	jump := &Inst{Op: OpBr, Ty: VoidType(), Dests: []*Block{elsewhere.Units[0].Blocks[0]}}
	retFunc := NewUnit(UnitFunc, "f")
	retFunc.RetType = i8
	retFunc.AddBlock("entry").Append(&Inst{Op: OpRet, Ty: VoidType()})
	retMod := NewModule("t")
	retMod.MustAdd(retFunc)

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
		{"sig of another type", entity(k32, named(&Inst{Op: OpSig, Ty: SignalType(i8), Args: []Value{k32}})),
			"%x (sig) in %body: initial value type i32 does not match signal i8$"},
		{"var of another type", proc(k32, named(&Inst{Op: OpVar, Ty: PointerType(i8), Args: []Value{k32}})),
			"initial value type i32 does not match pointer i8*"},
		{"exts past its target", proc(k, named(&Inst{Op: OpExtS, Ty: i4, Args: []Value{k}, Imm0: 6, Imm1: 4})), "%x (exts) in %entry: slice [6, 10) out of i8"},
		{"exts at a negative offset", proc(k, &Inst{Op: OpExtS, Ty: i4, Args: []Value{k}, Imm0: -1, Imm1: 4}), "slice [-1, 3) out of i8"},
		{"exts of a time", proc(&Inst{Op: OpExtS, Ty: i4, Args: []Value{&Inst{Op: OpConstTime, Ty: TimeType()}}, Imm1: 1}), "slice [0, 1) out of time"},
		{"inss of too few elements", proc(&Inst{Op: OpInsS, Ty: ArrayType(4, i8), Args: []Value{
			&Inst{Op: OpArray, Ty: ArrayType(4, i8)}, &Inst{Op: OpArray, Ty: ArrayType(1, i8)}}, Imm1: 2}),
			"inss of 2 elements from [1 x i8]"},
		{"exts to another width", proc(k, &Inst{Op: OpExtS, Ty: i8, Args: []Value{k}, Imm0: 2, Imm1: 4}), "result type i8 is no slice of 4 of i8"},
		{"inss to another type", proc(k, &Inst{Op: OpInsS, Ty: i4, Args: []Value{k, k}, Imm1: 8}), "result type i4 does not match target type i8"},
		{"extf of another type", proc(&Inst{Op: OpExtF, Ty: i4, Args: []Value{&Inst{Op: OpArray, Ty: ArrayType(0, i8)}}}),
			"result type i4 does not match the field of [0 x i8]"},
		{"extf of a signal to a value", with(proc(&Inst{Op: OpExtF, Ty: i8, Args: []Value{&Arg{ty: SignalType(ArrayType(2, i8))}}})),
			"result type i8 does not match the field of [2 x i8]$"},
		{"insf of another field type", proc(k32, &Inst{Op: OpInsF, Ty: StructType(i8), Args: []Value{&Inst{Op: OpStruct, Ty: StructType(i8)}, k32}}),
			"value type i32 does not match the field of {i8}"},
		{"dynamic extf of a struct", proc(k, &Inst{Op: OpExtF, Ty: i8, Args: []Value{&Inst{Op: OpStruct, Ty: StructType(i8)}, k}}),
			"a dynamic index needs an array, got {i8}"},
		{"mux to another type", proc(k, &Inst{Op: OpMux, Ty: i4, Args: []Value{&Inst{Op: OpArray, Ty: ArrayType(0, i8)}, k}}),
			"result type i4 does not match the elements of [0 x i8]"},
		{"array of another element", proc(k32, &Inst{Op: OpArray, Ty: ArrayType(1, i8), Args: []Value{k32}}), "element type i32 does not match [1 x i8]"},
		{"struct of another field", proc(k32, &Inst{Op: OpStruct, Ty: StructType(i8), Args: []Value{k32}}), "field type i32 does not match {i8}"},
		{"add of another result type", proc(k, named(&Inst{Op: OpAdd, Ty: i4, Args: []Value{k, k}})), "%x (add) in %entry: result type i4 does not match operand type i8"},
		{"not of another result type", proc(k, &Inst{Op: OpNot, Ty: i4, Args: []Value{k}}), "result type i4 does not match operand type i8"},
		{"compare to an i8", proc(k, &Inst{Op: OpUlt, Ty: i8, Args: []Value{k, k}}), "compare result must be i1, got i8"},
		{"prb of another type", with(proc(&Inst{Op: OpPrb, Ty: i4, Args: []Value{&Arg{ty: SignalType(i8)}}})), "prb result type i4 does not match signal i8$"},
		{"con of two types", entity(k, k32, s8, s32, &Inst{Op: OpCon, Ty: VoidType(), Args: []Value{s8, s32}}), "con of i8$ and i32$"},
		{"ret without the result", retMod, "@f: %<ret> (ret) in %entry: ret of void from a function returning i8"},
		{"phi of another type", proc(&Inst{Op: OpPhi, Ty: i8, Args: []Value{k32}, Dests: []*Block{nil}}), "phi operand type i32 does not match i8"},
		{"br to another unit", proc(jump), "destination %entry is not a block of @p"},
		{"call of a process", with(proc(&Inst{Op: OpCall, Ty: VoidType(), Callee: "g"})), "call of @g, a proc"},
		{"call with one argument too many", with(proc(k, &Inst{Op: OpCall, Ty: i8, Callee: "f", Args: []Value{k, k}})), "call passes 2 arguments, @f takes 1"},
		{"call for another result", with(proc(k, &Inst{Op: OpCall, Ty: i4, Callee: "f", Args: []Value{k}})), "call result type i4 does not match @f's i8"},
		{"llhd.assert of an i8", proc(k, &Inst{Op: OpCall, Ty: VoidType(), Callee: "llhd.assert", Args: []Value{k}}), "llhd.assert takes one i1 and returns void"},
		{"llhd.time to an i8", proc(&Inst{Op: OpCall, Ty: i8, Callee: "llhd.time"}), "llhd.time takes nothing and returns time"},
		{"llhd.display with a result", proc(&Inst{Op: OpCall, Ty: i8, Callee: "llhd.display"}), "llhd.display returns void"},
		{"del into another type", entity(k, k32, s8, s32, &Inst{Op: OpDel, Ty: VoidType(), Args: []Value{s8, s32, &Inst{Op: OpConstTime, Ty: TimeType()}}}),
			"del of i32$ into i8$"},
		{"inst of a function", entity(&Inst{Op: OpInst, Ty: VoidType(), Callee: "f"}), "inst of @f, a func"},
		{"inst of one port too few", entity(k, s8, &Inst{Op: OpInst, Ty: VoidType(), Callee: "g", Args: []Value{s8}, NumIns: 1}),
			"inst binds 1->0 signals, @g takes 1->1"},
		{"inst of a wider output", entity(k, k32, s8, s32, &Inst{Op: OpInst, Ty: VoidType(), Callee: "g", Args: []Value{s8, s32}, NumIns: 1}),
			"is i32$, @g's %q is i8$"},
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

// TestCheckShapePhiEdges holds CheckShape and Verify to the phi rule: a
// phi names each predecessor of its block exactly once, in any order; one
// it leaves out, names twice, or that is no predecessor is a problem.
func TestCheckShapePhiEdges(t *testing.T) {
	build := func(dests func(entry, a, b *Block) []*Block) *Module {
		u := NewUnit(UnitProc, "p")
		entry, a, b, join := u.AddBlock("entry"), u.AddBlock("a"), u.AddBlock("b"), u.AddBlock("join")
		bl := NewBuilder(u)
		c, one := bl.ConstInt(IntType(1), 0), bl.ConstInt(IntType(8), 1)
		bl.BrCond(c, a, b)
		for _, arm := range []*Block{a, b} {
			bl.SetBlock(arm)
			bl.Br(join)
		}
		bl.SetBlock(join)
		ds := dests(entry, a, b)
		vals := make([]Value, len(ds))
		for i := range vals {
			vals[i] = one
		}
		bl.Phi(IntType(8), vals, ds)
		bl.Halt()
		m := NewModule("t")
		m.MustAdd(u)
		return m
	}
	for _, c := range []struct {
		name  string
		dests func(entry, a, b *Block) []*Block
		want  string // "": legal
	}{
		{"both", func(_, a, b *Block) []*Block { return []*Block{a, b} }, ""},
		{"both, swapped", func(_, a, b *Block) []*Block { return []*Block{b, a} }, ""},
		{"one left out", func(_, _, b *Block) []*Block { return []*Block{b} }, "phi has no operand for predecessor %a"},
		{"one named twice", func(_, a, b *Block) []*Block { return []*Block{a, b, b} }, "phi names predecessor %b twice"},
		{"a non-predecessor", func(entry, a, b *Block) []*Block { return []*Block{a, b, entry} }, "phi names non-predecessor %entry"},
	} {
		m := build(c.dests)
		err, verr := CheckShape(m), Verify(m, Behavioural)
		if c.want == "" {
			if err != nil || verr != nil {
				t.Errorf("%s: CheckShape = %v, Verify = %v, want both nil", c.name, err, verr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || verr == nil || !strings.Contains(verr.Error(), c.want) {
			t.Errorf("%s: CheckShape = %v, Verify = %v, want both to report %q", c.name, err, verr, c.want)
		}
	}
}
