package ir

import (
	"fmt"

	"llhd/internal/logic"
)

// Opcode identifies an LLHD instruction (§2.5 of the paper).
type Opcode uint8

// The LLHD instruction set. Constants are instructions, as in the assembly
// text ("%zero = const i32 0").
const (
	OpInvalid Opcode = iota

	// Constants and aggregates.
	OpConstInt   // const iN K / const nN K
	OpConstTime  // const time T
	OpConstLogic // const lN "01XZ": nine-valued logic literal
	OpArray      // [T v0, v1, ...]: array literal
	OpStruct     // {v0, v1, ...}: struct literal

	// Unary data flow.
	OpNot // bitwise complement
	OpNeg // two's-complement negation

	// Binary data flow.
	OpAnd
	OpOr
	OpXor
	OpAdd
	OpSub
	OpMul
	OpUdiv
	OpSdiv
	OpUmod
	OpSmod
	OpShl
	OpShr  // logical shift right
	OpAshr // arithmetic shift right

	// Comparisons (result i1).
	OpEq
	OpNeq
	OpUlt
	OpUgt
	OpUle
	OpUge
	OpSlt
	OpSgt
	OpSle
	OpSge

	// Selection.
	OpMux // mux T %array, %sel

	// Bit-precise insertion/extraction (§2.5.5). Imm0 is the field index
	// or slice offset; Imm1 is the slice length for the *s forms.
	OpInsF // insert field/element
	OpInsS // insert slice
	OpExtF // extract field/element (also on pointers and signals)
	OpExtS // extract slice (also on pointers and signals)

	// Signals (§2.5.2).
	OpSig // sig T %init: create signal (entity only)
	OpPrb // prb T$ %sig: probe current value
	OpDrv // drv T$ %sig, %value after %delay [if %cond]

	// Registers (§2.5.3, entity only).
	OpReg // reg T$ %sig, (%value mode %trigger [if %gate])... after %delay

	// Netlist connectivity (§2.2).
	OpCon // con T$ %a, %b: connect two signals
	OpDel // del T$ %out, %in, %delay: pure transport delay

	// Hierarchy (§2.5.1, entity only).
	OpInst // inst @unit (inputs...) -> (outputs...)

	// Memory (§2.5.8).
	OpVar   // var T %init: stack slot, yields T*
	OpLd    // ld T* %ptr
	OpSt    // st T* %ptr, %value
	OpAlloc // alloc T: heap slot, yields T*
	OpFree  // free T* %ptr

	// Control flow (§2.5.7).
	OpCall // call R @fn (args...)
	OpRet  // ret / ret T %value
	OpBr   // br %dest / br %cond, %ifFalse, %ifTrue
	OpPhi  // phi T [%v, %bb]...
	OpWait // wait %dest [for %time], %sig...
	OpHalt // halt
	OpUnreachable

	numOpcodes
)

// String returns the assembly mnemonic of the opcode.
func (op Opcode) String() string {
	if op < numOpcodes {
		return opInfos[op].Name
	}
	return fmt.Sprintf("op(%d)", int(op))
}

func (op Opcode) has(f OpFlags) bool { return op.Info().Flags&f != 0 }

// IsTerminator reports whether op ends a basic block.
func (op Opcode) IsTerminator() bool { return op.has(FlagTerminator) }

// IsConst reports whether op is a constant.
func (op Opcode) IsConst() bool { return op.has(FlagConst) }

// IsBinary reports whether op is a two-operand pure data-flow instruction.
func (op Opcode) IsBinary() bool { return op.has(FlagBinary) }

// IsCompare reports whether op is a comparison.
func (op Opcode) IsCompare() bool { return op.has(FlagCompare) }

// IsCommutative reports whether the operands of op may be swapped.
func (op Opcode) IsCommutative() bool { return op.has(FlagCommutative) }

// HasSideEffects reports whether the instruction does something beyond
// producing its result value, and therefore must not be removed by DCE
// even when unused.
func (op Opcode) HasSideEffects() bool { return op.has(FlagSideEffects) }

// IsPure reports whether op computes its result from operands alone: no
// side effects and no dependence on mutable state. Pure instructions —
// the constants among them — are subject to CSE, hoisting and folding.
func (op Opcode) IsPure() bool { return op.has(FlagPure) }

// RegMode describes when a reg trigger stores its value (§2.5.3).
type RegMode uint8

// Trigger modes for reg.
const (
	RegLow  RegMode = iota // while trigger is low
	RegHigh                // while trigger is high
	RegRise                // on a rising edge
	RegFall                // on a falling edge
	RegBoth                // on either edge
)

var regModeNames = [...]string{"low", "high", "rise", "fall", "both"}

// String returns the assembly keyword for the mode.
func (m RegMode) String() string {
	if int(m) < len(regModeNames) {
		return regModeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseRegMode reads the assembly keyword of a trigger mode.
func ParseRegMode(s string) (RegMode, bool) {
	for m, name := range regModeNames {
		if name == s {
			return RegMode(m), true
		}
	}
	return 0, false
}

// Fires reports whether a trigger of this mode stores its value when the
// observed i1 moves from was to now: the levels look at now alone, the
// edges at the transition.
func (m RegMode) Fires(was, now bool) bool {
	switch m {
	case RegLow:
		return !now
	case RegHigh:
		return now
	case RegRise:
		return !was && now
	case RegFall:
		return was && !now
	case RegBoth:
		return was != now
	}
	return false
}

// RegTrigger is one (value, trigger) clause of a reg instruction: store
// Value when Trigger fires under Mode, optionally gated by Gate ("if").
type RegTrigger struct {
	Mode    RegMode
	Value   Value // value to store
	Trigger Value // the observed i1
	Gate    Value // optional "if" condition, nil if absent
}

// Inst is a single LLHD instruction. What Args, Dests and the immediate
// fields hold depends on Op: the instruction-set table (opinfo.go) lists
// the operand layout and the legal counts per opcode.
type Inst struct {
	Op   Opcode
	Ty   *Type // result type (void for pure side effects)
	name string

	Args  []Value
	Dests []*Block

	// Immediates and op-specific payload.
	IVal     uint64       // const int value (masked to width)
	TVal     Time         // const time value
	LVal     logic.Vector // const logic value (length = type width)
	Imm0     int          // insf/extf index, inss/exts offset
	Imm1     int          // inss/exts length
	Callee   string       // call/inst target global name
	NumIns   int          // inst: number of input signals in Args
	TimeArg  Value        // wait: optional timeout
	Delay    Value        // reg: the "after" delay (may be nil)
	Triggers []RegTrigger // reg clauses

	block *Block
	vid   int32 // dense value ID + 1 under the unit's Numbering; 0 = unnumbered
}

// Type returns the result type of the instruction.
func (in *Inst) Type() *Type { return in.Ty }

// ValueName returns the instruction's result name hint.
func (in *Inst) ValueName() string { return in.name }

// SetName sets the result name hint.
func (in *Inst) SetName(name string) { in.name = name }

// Block returns the block containing the instruction, or nil if detached.
func (in *Inst) Block() *Block { return in.block }

func (in *Inst) String() string {
	if in.name != "" {
		return "%" + in.name
	}
	return fmt.Sprintf("%%<%s>", in.Op)
}

// Operands calls fn for every value operand of the instruction, including
// those tucked into op-specific fields (wait timeout, reg triggers).
func (in *Inst) Operands(fn func(Value)) {
	for _, a := range in.Args {
		fn(a)
	}
	if in.TimeArg != nil {
		fn(in.TimeArg)
	}
	if in.Delay != nil {
		fn(in.Delay)
	}
	for _, t := range in.Triggers {
		fn(t.Value)
		fn(t.Trigger)
		if t.Gate != nil {
			fn(t.Gate)
		}
	}
}

// RewriteOperands replaces every operand v of the instruction with fn(v),
// in the order Operands visits them, and returns how many changed.
func (in *Inst) RewriteOperands(fn func(Value) Value) int {
	n := 0
	for i, a := range in.Args {
		if v := fn(a); v != a {
			in.Args[i] = v
			n++
		}
	}
	if in.TimeArg != nil {
		if v := fn(in.TimeArg); v != in.TimeArg {
			in.TimeArg = v
			n++
		}
	}
	if in.Delay != nil {
		if v := fn(in.Delay); v != in.Delay {
			in.Delay = v
			n++
		}
	}
	for i := range in.Triggers {
		t := &in.Triggers[i]
		if v := fn(t.Value); v != t.Value {
			t.Value = v
			n++
		}
		if v := fn(t.Trigger); v != t.Trigger {
			t.Trigger = v
			n++
		}
		if t.Gate != nil {
			if v := fn(t.Gate); v != t.Gate {
				t.Gate = v
				n++
			}
		}
	}
	return n
}

// ReplaceOperand substitutes every operand equal to old with new. It
// returns the number of replacements. (Plain compares rather than a
// RewriteOperands closure: Unit.ReplaceAllUses calls this on every
// instruction of a unit.)
func (in *Inst) ReplaceOperand(old, new Value) int {
	n := 0
	for i, a := range in.Args {
		if a == old {
			in.Args[i] = new
			n++
		}
	}
	if in.TimeArg == old {
		in.TimeArg = new
		n++
	}
	if in.Delay == old {
		in.Delay = new
		n++
	}
	for i := range in.Triggers {
		if in.Triggers[i].Value == old {
			in.Triggers[i].Value = new
			n++
		}
		if in.Triggers[i].Trigger == old {
			in.Triggers[i].Trigger = new
			n++
		}
		if in.Triggers[i].Gate == old {
			in.Triggers[i].Gate = new
			n++
		}
	}
	return n
}

// ReplaceDest substitutes every destination block equal to old with new.
func (in *Inst) ReplaceDest(old, new *Block) int {
	n := 0
	for i, b := range in.Dests {
		if b == old {
			in.Dests[i] = new
			n++
		}
	}
	return n
}

// Clone returns a shallow copy of the instruction with copied operand
// slices. The clone is detached from any block.
func (in *Inst) Clone() *Inst {
	cp := *in
	cp.block = nil
	cp.Args = append([]Value(nil), in.Args...)
	cp.Dests = append([]*Block(nil), in.Dests...)
	cp.Triggers = append([]RegTrigger(nil), in.Triggers...)
	cp.LVal = in.LVal.Clone()
	return &cp
}

// IsConstInt reports whether the instruction is an integer constant.
func (in *Inst) IsConstInt() bool { return in.Op == OpConstInt }

// ConstIntValue returns the constant value of an OpConstInt, panicking on
// other opcodes.
func (in *Inst) ConstIntValue() uint64 {
	if in.Op != OpConstInt {
		panic("ir: ConstIntValue on non-constant " + in.Op.String())
	}
	return in.IVal
}

// MaskWidth truncates v to the lowest w bits (w in 1..64).
func MaskWidth(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

// SignExtend interprets the w-bit value v as signed and returns it as an
// int64.
func SignExtend(v uint64, w int) int64 {
	if w >= 64 {
		return int64(v)
	}
	if v&(1<<uint(w-1)) != 0 {
		return int64(v | ^uint64(0)<<uint(w))
	}
	return int64(v)
}
