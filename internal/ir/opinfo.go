package ir

import (
	"errors"
	"fmt"
	"slices"
)

// OpInfo is everything about an opcode that is not its execution: the
// mnemonic, the shape of Args and Dests, the unit kinds and levels it is
// legal in (§2.2, §2.4), the classes the passes ask about, and how the
// assembly writes it. The instruction set is the one table below; the
// opcode predicates, CheckShape, Verify's legality rules and the regular
// cases of the assembly printer and parser are reads of it. A new opcode is
// one row here plus its cases in the executors, which keep their own
// switches because they are each other's oracle.
type OpInfo struct {
	Name string // assembly mnemonic; the three const opcodes share one

	// The legal range of len(Args) and of len(Dests); Variadic as a
	// maximum means unbounded. What each position holds is listed above
	// the table.
	MinArgs, MaxArgs   int8
	MinDests, MaxDests int8

	// Kinds are the unit kinds the op may appear in. Level is the most
	// restrictive level an entity may hold it at: Netlist, Structural, or
	// Behavioural for what no entity may hold.
	Kinds KindSet
	Level Level

	Flags OpFlags

	// The assembly form "[%r =] name [T] %a, %b…[, imm…]": Type says which
	// type T is, Result how the result type follows from it, Imms how many
	// immediates (Imm0, then Imm1) trail the operands; an operand beyond
	// MinArgs takes the place of the first immediate (the dynamic index of
	// insf and extf). ResultIrregular marks the forms that fit no such
	// pattern and keep their own printer and parser cases.
	Type   AsmType
	Result AsmResult
	Imms   int8
}

// Variadic is the MaxArgs / MaxDests of an op that takes any number.
const Variadic = -1

// KindSet is a set of unit kinds.
type KindSet uint8

// The unit kinds as sets.
const (
	InFunc   KindSet = 1 << UnitFunc
	InProc   KindSet = 1 << UnitProc
	InEntity KindSet = 1 << UnitEntity

	anyUnit = InFunc | InProc | InEntity
	timed   = InProc | InEntity // may touch signals (§2.4)
	anyFlow = InFunc | InProc   // control flow and memory
)

// Has reports whether the set holds the kind.
func (s KindSet) Has(k UnitKind) bool { return s>>k&1 != 0 }

// OpFlags are the opcode classes behind the Opcode predicates.
type OpFlags uint8

// Opcode classes.
const (
	FlagTerminator  OpFlags = 1 << iota // ends a basic block
	FlagConst                           // a constant
	FlagBinary                          // two-operand arithmetic/logic
	FlagCompare                         // comparison, result i1
	FlagCommutative                     // operands may be swapped
	FlagPure                            // result from operands alone: CSE, hoisting, folding
	FlagSideEffects                     // must survive DCE even when unused
)

// AsmType says which type the assembly writes after the mnemonic.
type AsmType uint8

// Written types.
const (
	AsmNoType     AsmType = iota // halt, unreachable, and every irregular form
	AsmResultType                // add i32 %a, %b
	AsmResultElem                // sig i32 %init; var i32 %init; alloc i32
	AsmArg0Type                  // prb i32$ %s; st i32* %p, %v
)

// AsmResult says how the result type follows from the written type.
type AsmResult uint8

// Result-type rules. Compares write their result type (ult i1 %a, %b over
// i8 operands) and the parser discards it; item 11 of the ROADMAP records
// that this should be the operand type.
const (
	ResultIrregular AsmResult = iota
	ResultVoid
	ResultAsWritten
	ResultBool      // i1 whatever is written
	ResultSignalOf  // sig T: T$
	ResultPointerOf // var T, alloc T: T*
	ResultOfSignal  // prb T$: T
	ResultOfPointer // ld T*: T
)

// The instruction set (§2.5). Operands by opcode, in Args unless noted:
//
//	array, struct  element values
//	mux            array, selector
//	insf           target, value [, dynamic index]; Imm0 = index otherwise
//	inss           target, value; Imm0 = offset, Imm1 = length
//	extf           target [, dynamic index]; Imm0 = index otherwise
//	exts           target; Imm0 = offset, Imm1 = length
//	sig, var       initial value
//	drv            signal, value, delay [, condition]
//	reg            signal; Triggers hold the clauses, Delay the after-delay
//	con            a, b
//	del            out, in, delay
//	inst           Callee = @name; input signals then output signals,
//	               NumIns = number of inputs
//	st             pointer, value
//	call           Callee = @name; arguments
//	ret            [value]
//	br             unconditional: Dests = [dest]
//	               conditional: condition, Dests = [ifFalse, ifTrue]
//	phi            incoming values, Dests = incoming blocks, pairwise
//	wait           observed signals, Dests = [resume], TimeArg = optional timeout
var opInfos = [numOpcodes]OpInfo{
	OpInvalid: {Name: "<invalid>"},

	OpConstInt:   {Name: "const", Kinds: anyUnit, Level: Netlist, Flags: FlagConst | FlagPure},
	OpConstTime:  {Name: "const", Kinds: anyUnit, Level: Netlist, Flags: FlagConst | FlagPure},
	OpConstLogic: {Name: "const", Kinds: anyUnit, Level: Netlist, Flags: FlagConst | FlagPure},
	OpArray:      {Name: "array", MaxArgs: Variadic, Kinds: anyUnit, Level: Netlist, Flags: FlagPure},
	OpStruct:     {Name: "struct", MaxArgs: Variadic, Kinds: anyUnit, Level: Netlist, Flags: FlagPure},

	OpNot: {Name: "not", MinArgs: 1, MaxArgs: 1, Kinds: anyUnit, Level: Structural, Flags: FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpNeg: {Name: "neg", MinArgs: 1, MaxArgs: 1, Kinds: anyUnit, Level: Structural, Flags: FlagPure, Type: AsmResultType, Result: ResultAsWritten},

	OpAnd:  {Name: "and", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure | FlagCommutative, Type: AsmResultType, Result: ResultAsWritten},
	OpOr:   {Name: "or", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure | FlagCommutative, Type: AsmResultType, Result: ResultAsWritten},
	OpXor:  {Name: "xor", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure | FlagCommutative, Type: AsmResultType, Result: ResultAsWritten},
	OpAdd:  {Name: "add", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure | FlagCommutative, Type: AsmResultType, Result: ResultAsWritten},
	OpSub:  {Name: "sub", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpMul:  {Name: "mul", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure | FlagCommutative, Type: AsmResultType, Result: ResultAsWritten},
	OpUdiv: {Name: "udiv", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpSdiv: {Name: "sdiv", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpUmod: {Name: "umod", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpSmod: {Name: "smod", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpShl:  {Name: "shl", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpShr:  {Name: "shr", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},
	OpAshr: {Name: "ashr", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagBinary | FlagPure, Type: AsmResultType, Result: ResultAsWritten},

	OpEq:  {Name: "eq", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure | FlagCommutative, Type: AsmResultType, Result: ResultBool},
	OpNeq: {Name: "neq", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure | FlagCommutative, Type: AsmResultType, Result: ResultBool},
	OpUlt: {Name: "ult", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},
	OpUgt: {Name: "ugt", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},
	OpUle: {Name: "ule", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},
	OpUge: {Name: "uge", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},
	OpSlt: {Name: "slt", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},
	OpSgt: {Name: "sgt", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},
	OpSle: {Name: "sle", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},
	OpSge: {Name: "sge", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagCompare | FlagPure, Type: AsmResultType, Result: ResultBool},

	OpMux: {Name: "mux", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagPure, Type: AsmResultType, Result: ResultAsWritten},

	OpInsF: {Name: "insf", MinArgs: 2, MaxArgs: 3, Kinds: anyUnit, Level: Structural, Flags: FlagPure, Type: AsmResultType, Result: ResultAsWritten, Imms: 1},
	OpInsS: {Name: "inss", MinArgs: 2, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Flags: FlagPure, Type: AsmResultType, Result: ResultAsWritten, Imms: 2},
	// extf and exts are projections on a signal or pointer and pure on a
	// plain value; the table says "not pure" for both until purity is asked
	// of the instruction rather than the opcode (ROADMAP item 10).
	OpExtF: {Name: "extf", MinArgs: 1, MaxArgs: 2, Kinds: anyUnit, Level: Structural, Type: AsmResultType, Result: ResultAsWritten, Imms: 1},
	OpExtS: {Name: "exts", MinArgs: 1, MaxArgs: 1, Kinds: anyUnit, Level: Structural, Type: AsmResultType, Result: ResultAsWritten, Imms: 2},

	OpSig: {Name: "sig", MinArgs: 1, MaxArgs: 1, Kinds: InEntity, Level: Netlist, Flags: FlagSideEffects, Type: AsmResultElem, Result: ResultSignalOf},
	OpPrb: {Name: "prb", MinArgs: 1, MaxArgs: 1, Kinds: timed, Level: Structural, Type: AsmArg0Type, Result: ResultOfSignal},
	OpDrv: {Name: "drv", MinArgs: 3, MaxArgs: 4, Kinds: timed, Level: Structural, Flags: FlagSideEffects},
	OpReg: {Name: "reg", MinArgs: 1, MaxArgs: 1, Kinds: InEntity, Level: Structural, Flags: FlagSideEffects},
	OpCon: {Name: "con", MinArgs: 2, MaxArgs: 2, Kinds: InEntity, Level: Netlist, Flags: FlagSideEffects, Type: AsmArg0Type, Result: ResultVoid},
	OpDel: {Name: "del", MinArgs: 3, MaxArgs: 3, Kinds: InEntity, Level: Netlist, Flags: FlagSideEffects, Type: AsmArg0Type, Result: ResultVoid},

	OpInst: {Name: "inst", MaxArgs: Variadic, Kinds: InEntity, Level: Netlist, Flags: FlagSideEffects},

	OpVar:   {Name: "var", MinArgs: 1, MaxArgs: 1, Kinds: anyFlow, Flags: FlagSideEffects, Type: AsmResultElem, Result: ResultPointerOf},
	OpLd:    {Name: "ld", MinArgs: 1, MaxArgs: 1, Kinds: anyFlow, Type: AsmArg0Type, Result: ResultOfPointer},
	OpSt:    {Name: "st", MinArgs: 2, MaxArgs: 2, Kinds: anyFlow, Flags: FlagSideEffects, Type: AsmArg0Type, Result: ResultVoid},
	OpAlloc: {Name: "alloc", Kinds: anyFlow, Flags: FlagSideEffects, Type: AsmResultElem, Result: ResultPointerOf},
	OpFree:  {Name: "free", MinArgs: 1, MaxArgs: 1, Kinds: anyFlow, Flags: FlagSideEffects, Type: AsmArg0Type, Result: ResultVoid},

	OpCall: {Name: "call", MaxArgs: Variadic, Kinds: anyUnit, Level: Structural, Flags: FlagSideEffects},
	OpRet:  {Name: "ret", MaxArgs: 1, Kinds: InFunc, Flags: FlagTerminator | FlagSideEffects},
	OpBr:   {Name: "br", MaxArgs: 1, MinDests: 1, MaxDests: 2, Kinds: anyFlow, Flags: FlagTerminator | FlagSideEffects},
	// phi is placed, not executed: nothing but its uses keeps it, so it
	// carries no side effect and DCE drops an unused one.
	OpPhi:         {Name: "phi", MaxArgs: Variadic, MaxDests: Variadic, Kinds: anyFlow},
	OpWait:        {Name: "wait", MaxArgs: Variadic, MinDests: 1, MaxDests: 1, Kinds: InProc, Flags: FlagTerminator | FlagSideEffects},
	OpHalt:        {Name: "halt", Kinds: InProc, Flags: FlagTerminator | FlagSideEffects, Result: ResultVoid},
	OpUnreachable: {Name: "unreachable", Kinds: anyFlow, Flags: FlagTerminator | FlagSideEffects, Result: ResultVoid},
}

// Info returns the table entry of the opcode; an opcode outside the
// instruction set gets the entry of OpInvalid, which is legal nowhere.
func (op Opcode) Info() *OpInfo {
	if op < numOpcodes {
		return &opInfos[op]
	}
	return &opInfos[OpInvalid]
}

// opByName is the mnemonic index over the table, plus the two generic
// spellings the parser has always read.
var opByName = func() map[string]Opcode {
	m := map[string]Opcode{"div": OpUdiv, "mod": OpUmod}
	for op := numOpcodes - 1; op > OpInvalid; op-- { // downwards: "const" names OpConstInt
		m[opInfos[op].Name] = op
	}
	return m
}()

// OpcodeByName returns the opcode an assembly mnemonic names. The three
// constant opcodes share "const" and come back as OpConstInt.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opByName[name]
	return op, ok
}

// WrittenType is the type the assembly writes after the mnemonic of in,
// nil when the form has none.
func (info *OpInfo) WrittenType(in *Inst) *Type {
	switch info.Type {
	case AsmResultType:
		return in.Ty
	case AsmResultElem:
		return in.Ty.Elem
	case AsmArg0Type:
		return in.Args[0].Type()
	}
	return nil
}

// ResultType applies the op's result rule to the type written after its
// mnemonic.
func (info *OpInfo) ResultType(written *Type) (*Type, error) {
	switch info.Result {
	case ResultAsWritten:
		return written, nil
	case ResultBool:
		return IntType(1), nil
	case ResultSignalOf:
		return SignalType(written), nil
	case ResultPointerOf:
		return PointerType(written), nil
	case ResultOfSignal:
		if !written.IsSignal() {
			return nil, fmt.Errorf("%s needs a signal type, got %s", info.Name, written)
		}
		return written.Elem, nil
	case ResultOfPointer:
		if !written.IsPointer() {
			return nil, fmt.Errorf("%s needs a pointer type, got %s", info.Name, written)
		}
		return written.Elem, nil
	}
	return VoidType(), nil
}

// CheckShape checks what every consumer of a module relies on without
// asking. Of each unit: a known kind and the blocks its kind needs, and in
// a process or function, blocks that end in exactly one terminator. Of
// each instruction: an opcode of the instruction set, operand and
// destination counts in the opcode's range, a place in its unit's kind,
// and the types, bounds and targets through which no value reaches
// storage of another width — operands of the types the opcode takes
// (instTypes), slices inside what they slice, destinations in their own
// unit, and a callee that exists and takes what it is given. It is one
// linear walk that allocates nothing on a legal module, cheap enough to
// run on every elaboration; Verify runs the same walk and adds the
// dominance, phi and level rules.
func CheckShape(m *Module) error {
	c := checker{m: m}
	for _, u := range m.Units {
		if c.unit(u); len(c.problems) > 0 {
			return errors.New("ir: " + c.problems[0])
		}
	}
	return nil
}

// checker is the walk CheckShape and Verify share. Every problem is worded
// the same for both; CheckShape stops at the first, Verify (all) goes on.
type checker struct {
	m        *Module // nil: callees are not resolved
	all      bool
	problems []string
}

func (c *checker) problemf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// instf reports a problem anchored to one instruction: every message names
// the unit, the containing block, and the instruction itself (result
// name, or mnemonic for void instructions), so fuzzers and shrinkers can
// act on the report without re-locating the fault.
func (c *checker) instf(u *Unit, b *Block, in *Inst, format string, args ...any) {
	c.problemf("%s: %s (%s) in %s: %s", u, in, in.Op, b, fmt.Sprintf(format, args...))
}

// unit walks one unit and reports whether every instruction has the shape
// its opcode needs, so that the rules after the walk may index operands.
func (c *checker) unit(u *Unit) bool {
	switch {
	case u.Kind > UnitEntity:
		c.problemf("%s: unknown unit kind %d", u, u.Kind)
		return false
	case u.Kind == UnitEntity && len(u.Blocks) != 1:
		c.problemf("%s: entity must have exactly one implicit block, has %d", u, len(u.Blocks))
		return false
	case len(u.Blocks) == 0:
		c.problemf("%s: unit has no blocks", u)
		return false
	}
	shaped := true
	for _, b := range u.Blocks {
		for i, in := range b.Insts {
			if p := instShapeProblem(in, u.Kind); p != "" {
				c.instf(u, b, in, "%s", p)
				shaped = false
			} else {
				c.instTypes(u, b, in)
				if i != len(b.Insts)-1 && in.Op.IsTerminator() {
					c.problemf("%s: terminator %s in the middle of block %s", u, in.Op, b)
				}
			}
			if !c.all && len(c.problems) > 0 {
				return false
			}
		}
		if u.Kind != UnitEntity && b.Terminator() == nil {
			c.problemf("%s: block %s lacks a terminator", u, b)
		}
	}
	if shaped && u.Kind != UnitEntity {
		c.phiEdges(u)
	}
	return shaped
}

// phiEdges checks that every phi names each predecessor of its block
// exactly once: the engines move a phi's operand on each edge into its
// block, so an edge it has no operand for leaves its value unwritten. A
// block's predecessors are counted with a walk over the terminators, the
// first time a phi of the block asks.
func (c *checker) phiEdges(u *Unit) {
	for _, b := range u.Blocks {
		preds := -1
		for _, in := range b.Insts {
			if in.Op != OpPhi {
				continue
			}
			if preds < 0 {
				preds = 0
				for _, p := range u.Blocks {
					if branchesTo(p, b) {
						preds++
					}
				}
			}
			named := 0
			for i, pb := range in.Dests {
				switch {
				case !branchesTo(pb, b):
					c.instf(u, b, in, "phi names non-predecessor %s", pb)
				case slices.Contains(in.Dests[:i], pb):
					c.instf(u, b, in, "phi names predecessor %s twice", pb)
				default:
					named++
				}
			}
			for _, p := range u.Blocks {
				if named == preds {
					break
				}
				if branchesTo(p, b) && !slices.Contains(in.Dests, p) {
					c.instf(u, b, in, "phi has no operand for predecessor %s", p)
					named++
				}
			}
			if !c.all && len(c.problems) > 0 {
				return
			}
		}
	}
}

// branchesTo reports whether block p ends in a terminator that goes to b.
func branchesTo(p, b *Block) bool {
	if p == nil {
		return false
	}
	t := p.Terminator()
	return t != nil && slices.Contains(t.Dests, b)
}

func instShapeProblem(in *Inst, kind UnitKind) string {
	if in.Op == OpInvalid || in.Op >= numOpcodes {
		return "not an opcode of the instruction set"
	}
	info := &opInfos[in.Op]
	na, nd := len(in.Args), len(in.Dests)
	switch {
	case !info.Kinds.Has(kind):
		return fmt.Sprintf("illegal in %s units", kind)
	case !inRange(na, info.MinArgs, info.MaxArgs):
		return fmt.Sprintf("takes %s operands, has %d", countRange(info.MinArgs, info.MaxArgs), na)
	case !inRange(nd, info.MinDests, info.MaxDests):
		return fmt.Sprintf("takes %s destination blocks, has %d", countRange(info.MinDests, info.MaxDests), nd)
	case in.Op == OpBr && nd != na+1:
		return fmt.Sprintf("br with %d operands takes %d destination blocks, has %d", na, na+1, nd)
	case in.Op == OpPhi && nd != na:
		return fmt.Sprintf("phi arity mismatch (%d values, %d blocks)", na, nd)
	case in.Op == OpInst && (in.NumIns < 0 || in.NumIns > na):
		return fmt.Sprintf("inst counts %d inputs among %d operands", in.NumIns, na)
	}
	return ""
}

func inRange(n int, min, max int8) bool {
	return n >= int(min) && (max == Variadic || n <= int(max))
}

func countRange(min, max int8) string {
	switch {
	case max == Variadic:
		return fmt.Sprintf("at least %d", min)
	case min == max:
		return fmt.Sprint(min)
	}
	return fmt.Sprintf("%d to %d", min, max)
}
