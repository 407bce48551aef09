package ir

import (
	"fmt"

	"llhd/internal/logic"
)

// Builder constructs instructions inside a unit, mirroring LLVM's
// IRBuilder. Each method appends one instruction to the current insertion
// block and returns it (instructions are values). Type errors panic: the
// builder is used by frontends that have already type-checked.
type Builder struct {
	unit  *Unit
	block *Block
}

// NewBuilder returns a builder positioned at the unit's entry block (or the
// entity's body).
func NewBuilder(u *Unit) *Builder {
	b := &Builder{unit: u}
	if len(u.Blocks) > 0 {
		b.block = u.Blocks[0]
	}
	return b
}

// Unit returns the unit under construction.
func (b *Builder) Unit() *Unit { return b.unit }

// Block returns the current insertion block.
func (b *Builder) Block() *Block { return b.block }

// SetBlock moves the insertion point to the end of blk.
func (b *Builder) SetBlock(blk *Block) { b.block = blk }

// AddBlock creates a new block in the unit and returns it without moving
// the insertion point.
func (b *Builder) AddBlock(name string) *Block { return b.unit.AddBlock(name) }

func (b *Builder) emit(in *Inst) *Inst {
	if b.block == nil {
		panic("ir: builder has no insertion block")
	}
	b.block.Append(in)
	return in
}

func (b *Builder) check(cond bool, format string, args ...any) {
	if !cond {
		panic("ir: builder: " + fmt.Sprintf(format, args...))
	}
}

// ConstInt emits an integer (or enum) constant of the given type.
func (b *Builder) ConstInt(ty *Type, v uint64) *Inst {
	b.check(ty.IsInt() || ty.IsEnum(), "const int needs iN/nN type, got %s", ty)
	if ty.IsInt() {
		v = MaskWidth(v, ty.Width)
	}
	return b.emit(&Inst{Op: OpConstInt, Ty: ty, IVal: v})
}

// ConstTime emits a time constant.
func (b *Builder) ConstTime(t Time) *Inst {
	return b.emit(&Inst{Op: OpConstTime, Ty: TimeType(), TVal: t})
}

// ConstLogic emits a nine-valued logic vector constant. The type width is
// the vector length.
func (b *Builder) ConstLogic(v logic.Vector) *Inst {
	b.check(len(v) > 0, "const logic needs a non-empty vector")
	return b.emit(&Inst{Op: OpConstLogic, Ty: LogicType(len(v)), LVal: v.Clone()})
}

// Array emits an array literal of the given element values.
func (b *Builder) Array(elem *Type, vals ...Value) *Inst {
	for _, v := range vals {
		b.check(v.Type() == elem, "array element type %s != %s", v.Type(), elem)
	}
	return b.emit(&Inst{Op: OpArray, Ty: ArrayType(len(vals), elem), Args: vals})
}

// Struct emits a struct literal.
func (b *Builder) Struct(vals ...Value) *Inst {
	fields := make([]*Type, len(vals))
	for i, v := range vals {
		fields[i] = v.Type()
	}
	return b.emit(&Inst{Op: OpStruct, Ty: StructType(fields...), Args: vals})
}

// Unary emits not/neg.
func (b *Builder) Unary(op Opcode, v Value) *Inst {
	b.check(op == OpNot || op == OpNeg, "not a unary op: %s", op)
	b.check(v.Type().IsInt() || v.Type().IsEnum() || v.Type().IsLogic(),
		"unary %s on non-integer %s", op, v.Type())
	return b.emit(&Inst{Op: op, Ty: v.Type(), Args: []Value{v}})
}

// Not emits a bitwise complement.
func (b *Builder) Not(v Value) *Inst { return b.Unary(OpNot, v) }

// Neg emits an arithmetic negation.
func (b *Builder) Neg(v Value) *Inst { return b.Unary(OpNeg, v) }

// Binary emits a two-operand arithmetic/logic instruction.
func (b *Builder) Binary(op Opcode, x, y Value) *Inst {
	b.check(op.IsBinary(), "not a binary op: %s", op)
	b.check(x.Type() == y.Type(), "binary %s operand types differ: %s vs %s", op, x.Type(), y.Type())
	return b.emit(&Inst{Op: op, Ty: x.Type(), Args: []Value{x, y}})
}

// Convenience binary emitters.
func (b *Builder) And(x, y Value) *Inst { return b.Binary(OpAnd, x, y) }
func (b *Builder) Or(x, y Value) *Inst  { return b.Binary(OpOr, x, y) }
func (b *Builder) Xor(x, y Value) *Inst { return b.Binary(OpXor, x, y) }
func (b *Builder) Add(x, y Value) *Inst { return b.Binary(OpAdd, x, y) }
func (b *Builder) Sub(x, y Value) *Inst { return b.Binary(OpSub, x, y) }
func (b *Builder) Shl(x, y Value) *Inst { return b.Binary(OpShl, x, y) }
func (b *Builder) Shr(x, y Value) *Inst { return b.Binary(OpShr, x, y) }

// Compare emits a comparison producing i1.
func (b *Builder) Compare(op Opcode, x, y Value) *Inst {
	b.check(op.IsCompare(), "not a comparison: %s", op)
	b.check(x.Type() == y.Type(), "compare operand types differ: %s vs %s", x.Type(), y.Type())
	return b.emit(&Inst{Op: op, Ty: IntType(1), Args: []Value{x, y}})
}

// Convenience comparison emitters.
func (b *Builder) Eq(x, y Value) *Inst  { return b.Compare(OpEq, x, y) }
func (b *Builder) Neq(x, y Value) *Inst { return b.Compare(OpNeq, x, y) }
func (b *Builder) Ult(x, y Value) *Inst { return b.Compare(OpUlt, x, y) }

// Mux emits a selector: array of choices plus discriminator (§2.5.4).
func (b *Builder) Mux(array, sel Value) *Inst {
	b.check(array.Type().IsArray(), "mux choices must be an array, got %s", array.Type())
	return b.emit(&Inst{Op: OpMux, Ty: array.Type().Elem, Args: []Value{array, sel}})
}

// InsF emits an insert-field: target with element/field idx replaced.
func (b *Builder) InsF(target, v Value, idx int) *Inst {
	return b.emit(&Inst{Op: OpInsF, Ty: target.Type(), Args: []Value{target, v}, Imm0: idx})
}

// InsS emits an insert-slice at bit/element offset with the width of v.
func (b *Builder) InsS(target, v Value, offset, length int) *Inst {
	return b.emit(&Inst{Op: OpInsS, Ty: target.Type(), Args: []Value{target, v}, Imm0: offset, Imm1: length})
}

// extResult computes the result type of extf on ty at idx, following
// pointers and signals (§2.5.6).
func extResult(ty *Type, idx int) *Type {
	switch ty.Kind {
	case ArrayKind:
		return ty.Elem
	case StructKind:
		return ty.Fields[idx]
	case PointerKind:
		return PointerType(extResult(ty.Elem, idx))
	case SignalKind:
		return SignalType(extResult(ty.Elem, idx))
	default:
		panic(fmt.Sprintf("ir: extf on %s", ty))
	}
}

// ExtF emits an extract-field from an aggregate, pointer, or signal.
func (b *Builder) ExtF(target Value, idx int) *Inst {
	return b.emit(&Inst{Op: OpExtF, Ty: extResult(target.Type(), idx), Args: []Value{target}, Imm0: idx})
}

// ExtFDyn emits a dynamic-index element extract from an array. Out-of-range
// indices clamp to the nearest valid element at runtime (the same lenient
// convention Mux uses, so speculatively hoisted extracts cannot trap).
func (b *Builder) ExtFDyn(target, idx Value) *Inst {
	b.check(target.Type().IsArray(), "dynamic extf needs an array, got %s", target.Type())
	return b.emit(&Inst{Op: OpExtF, Ty: target.Type().Elem, Args: []Value{target, idx}})
}

// InsFDyn emits a dynamic-index element insert into an array. Out-of-range
// indices drop the write at runtime.
func (b *Builder) InsFDyn(target, v, idx Value) *Inst {
	b.check(target.Type().IsArray(), "dynamic insf needs an array, got %s", target.Type())
	b.check(target.Type().Elem == v.Type(), "dynamic insf element type %s != %s", v.Type(), target.Type().Elem)
	return b.emit(&Inst{Op: OpInsF, Ty: target.Type(), Args: []Value{target, v, idx}})
}

func extsResult(ty *Type, length int) *Type {
	switch ty.Kind {
	case IntKind:
		return IntType(length)
	case LogicKind:
		return LogicType(length)
	case ArrayKind:
		return ArrayType(length, ty.Elem)
	case PointerKind:
		return PointerType(extsResult(ty.Elem, length))
	case SignalKind:
		return SignalType(extsResult(ty.Elem, length))
	default:
		panic(fmt.Sprintf("ir: exts on %s", ty))
	}
}

// ExtS emits an extract-slice of the given offset and length.
func (b *Builder) ExtS(target Value, offset, length int) *Inst {
	return b.emit(&Inst{Op: OpExtS, Ty: extsResult(target.Type(), length), Args: []Value{target}, Imm0: offset, Imm1: length})
}

// Sig emits a signal definition with the given initial value (entities
// only).
func (b *Builder) Sig(init Value) *Inst {
	return b.emit(&Inst{Op: OpSig, Ty: SignalType(init.Type()), Args: []Value{init}})
}

// Prb emits a probe of the signal's current value.
func (b *Builder) Prb(sig Value) *Inst {
	b.check(sig.Type().IsSignal(), "prb needs a signal, got %s", sig.Type())
	return b.emit(&Inst{Op: OpPrb, Ty: sig.Type().Elem, Args: []Value{sig}})
}

// Drv emits a drive of value onto sig after delay, with optional condition.
func (b *Builder) Drv(sig, value, delay Value, cond Value) *Inst {
	b.check(sig.Type().IsSignal(), "drv needs a signal, got %s", sig.Type())
	b.check(sig.Type().Elem == value.Type(), "drv value type %s does not match signal %s", value.Type(), sig.Type())
	args := []Value{sig, value, delay}
	if cond != nil {
		b.check(cond.Type().IsBool(), "drv condition must be i1, got %s", cond.Type())
		args = append(args, cond)
	}
	return b.emit(&Inst{Op: OpDrv, Ty: VoidType(), Args: args})
}

// Reg emits a register on sig with the given trigger clauses (entities
// only).
func (b *Builder) Reg(sig Value, delay Value, triggers ...RegTrigger) *Inst {
	b.check(sig.Type().IsSignal(), "reg needs a signal, got %s", sig.Type())
	return b.emit(&Inst{Op: OpReg, Ty: VoidType(), Args: []Value{sig}, Delay: delay, Triggers: triggers})
}

// Con emits a connection between two signals of identical type.
func (b *Builder) Con(x, y Value) *Inst {
	b.check(x.Type().IsSignal() && x.Type() == y.Type(), "con needs equal signals, got %s / %s", x.Type(), y.Type())
	return b.emit(&Inst{Op: OpCon, Ty: VoidType(), Args: []Value{x, y}})
}

// Del emits a transport delay from in to out.
func (b *Builder) Del(out, in, delay Value) *Inst {
	return b.emit(&Inst{Op: OpDel, Ty: VoidType(), Args: []Value{out, in, delay}})
}

// Instantiate emits an inst of the named unit with the given input and
// output signals (entities only).
func (b *Builder) Instantiate(callee string, inputs, outputs []Value) *Inst {
	args := make([]Value, 0, len(inputs)+len(outputs))
	args = append(args, inputs...)
	args = append(args, outputs...)
	return b.emit(&Inst{Op: OpInst, Ty: VoidType(), Callee: callee, Args: args, NumIns: len(inputs)})
}

// Var emits a stack allocation initialized with init, yielding T*.
func (b *Builder) Var(init Value) *Inst {
	return b.emit(&Inst{Op: OpVar, Ty: PointerType(init.Type()), Args: []Value{init}})
}

// Alloc emits a heap allocation of the given type, yielding T*.
func (b *Builder) Alloc(ty *Type) *Inst {
	return b.emit(&Inst{Op: OpAlloc, Ty: PointerType(ty)})
}

// Free emits a heap deallocation.
func (b *Builder) Free(ptr Value) *Inst {
	b.check(ptr.Type().IsPointer(), "free needs a pointer, got %s", ptr.Type())
	return b.emit(&Inst{Op: OpFree, Ty: VoidType(), Args: []Value{ptr}})
}

// Ld emits a load through ptr.
func (b *Builder) Ld(ptr Value) *Inst {
	b.check(ptr.Type().IsPointer(), "ld needs a pointer, got %s", ptr.Type())
	return b.emit(&Inst{Op: OpLd, Ty: ptr.Type().Elem, Args: []Value{ptr}})
}

// St emits a store of v through ptr.
func (b *Builder) St(ptr, v Value) *Inst {
	b.check(ptr.Type().IsPointer(), "st needs a pointer, got %s", ptr.Type())
	b.check(ptr.Type().Elem == v.Type(), "st value type %s does not match pointer %s", v.Type(), ptr.Type())
	return b.emit(&Inst{Op: OpSt, Ty: VoidType(), Args: []Value{ptr, v}})
}

// Call emits a call to the named function with the given result type.
func (b *Builder) Call(result *Type, callee string, args ...Value) *Inst {
	return b.emit(&Inst{Op: OpCall, Ty: result, Callee: callee, Args: args})
}

// Ret emits a return; v may be nil for void returns.
func (b *Builder) Ret(v Value) *Inst {
	in := &Inst{Op: OpRet, Ty: VoidType()}
	if v != nil {
		in.Args = []Value{v}
	}
	return b.emit(in)
}

// Br emits an unconditional branch.
func (b *Builder) Br(dest *Block) *Inst {
	return b.emit(&Inst{Op: OpBr, Ty: VoidType(), Dests: []*Block{dest}})
}

// BrCond emits a conditional branch: control goes to ifTrue when cond is 1
// and to ifFalse otherwise. (The assembly order "br %cond, %ifFalse,
// %ifTrue" follows Figure 2 of the paper.)
func (b *Builder) BrCond(cond Value, ifFalse, ifTrue *Block) *Inst {
	b.check(cond.Type().IsBool(), "br condition must be i1, got %s", cond.Type())
	return b.emit(&Inst{Op: OpBr, Ty: VoidType(), Args: []Value{cond}, Dests: []*Block{ifFalse, ifTrue}})
}

// Phi emits a phi node merging vals from the corresponding blocks.
func (b *Builder) Phi(ty *Type, vals []Value, blocks []*Block) *Inst {
	b.check(len(vals) == len(blocks), "phi arity mismatch")
	return b.emit(&Inst{Op: OpPhi, Ty: ty, Args: vals, Dests: blocks})
}

// Wait emits a wait: suspend until one of the observed signals changes or
// the optional timeout elapses, then resume at dest.
func (b *Builder) Wait(dest *Block, timeout Value, observed ...Value) *Inst {
	return b.emit(&Inst{Op: OpWait, Ty: VoidType(), Dests: []*Block{dest}, TimeArg: timeout, Args: observed})
}

// Halt emits a halt, suspending the process forever.
func (b *Builder) Halt() *Inst {
	return b.emit(&Inst{Op: OpHalt, Ty: VoidType()})
}

// Unreachable emits an unreachable terminator.
func (b *Builder) Unreachable() *Inst {
	return b.emit(&Inst{Op: OpUnreachable, Ty: VoidType()})
}
