package bytecode

import (
	"fmt"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

func errNotSignal(v ir.Value) error {
	return fmt.Errorf("value %s is not a signal", v)
}

// Program is the lowered form of a design's units: the shared function
// registry plus the module the bytecode was lowered from. Only lowering
// writes it (LowerUnit, and Func from inside a lowering), so once the
// compile that owns it is over it is shared read-only by all sessions;
// the per-session call-frame pools live in the Runtime.
type Program struct {
	mod      *ir.Module
	funcs    map[string]*Unit
	FuncList []*Unit // dense by FuncIdx, for per-session frame pools
}

// NewProgram starts an empty program over the module.
func NewProgram(m *ir.Module) *Program {
	return &Program{mod: m, funcs: map[string]*Unit{}}
}

// Func returns the lowered form of a called function, lowering it on
// first encounter.
func (p *Program) Func(name string) (*Unit, error) {
	if fu, ok := p.funcs[name]; ok {
		return fu, nil
	}
	fn := p.mod.Unit(name)
	if fn == nil {
		return nil, fmt.Errorf("call to undefined @%s", name)
	}
	if fn.Kind != ir.UnitFunc {
		return nil, fmt.Errorf("call target @%s is a %s", name, fn.Kind)
	}
	fu := &Unit{Name: name, FuncIdx: len(p.FuncList), HasRet: !fn.RetType.IsVoid(), unit: fn}
	p.funcs[name] = fu // pre-register to tolerate recursion
	p.FuncList = append(p.FuncList, fu)

	lo := newLowerer(p, engine.NewInstance(fn, name), fu)
	for _, a := range fn.Inputs {
		fu.Args = append(fu.Args, lo.reg(a))
	}
	if err := lo.lowerBlocks(); err != nil {
		return nil, fmt.Errorf("@%s: %w", name, err)
	}
	if len(fu.SigVals) > 0 {
		return nil, fmt.Errorf("@%s: functions cannot reference signals", name)
	}
	return fu, nil
}

// LowerUnit lowers one process or entity unit, using inst as the
// prototype instance (for elaboration constants and signal-resolution
// validation only — the lowered unit is instance-independent).
func (p *Program) LowerUnit(inst *engine.Instance) (*Unit, error) {
	u := &Unit{
		Name:   inst.Unit.Name,
		Entity: inst.Unit.Kind == ir.UnitEntity,
		unit:   inst.Unit,
	}
	lo := newLowerer(p, inst, u)
	if err := lo.lowerBlocks(); err != nil {
		return nil, fmt.Errorf("@%s: %w", u.Name, err)
	}
	return u, nil
}

// lowerer lowers one unit's blocks into its flat instruction stream.
type lowerer struct {
	prog *Program
	inst *engine.Instance // prototype instance of the unit
	unit *ir.Unit
	num  *ir.Numbering
	u    *Unit

	sigIdx     []int32 // value ID -> signal slot, -1 unresolved
	probedSeen []bool  // signal slot -> already in Probed
	constKnown []bool  // value ID -> pre-placed in ConstRegs
	blockPC    map[*ir.Block]int
	fixups     []fixup

	// The forwarding plan (plan.go), filled by newLowerer's walk.
	uses []int32   // value ID -> operand occurrences
	mem  []memPlan // value ID -> rules 1 and 2; nil in a unit without memory instructions
	pos  int32     // walk position counter

	// While lowering a block: the block laid out after it, and the
	// instruction just before the current one if all it lowered to is the
	// last Instr of Code (nil otherwise, and at the head of a block).
	next *ir.Block
	tail *ir.Inst
}

// fixup is a deferred jump-target patch: field f (0=A, 1=B, 2=C) of the
// instruction at pc receives the start pc of the target block.
type fixup struct {
	pc     int
	field  uint8
	target *ir.Block
}

func newLowerer(p *Program, inst *engine.Instance, u *Unit) *lowerer {
	num := inst.Numbering()
	n := num.Len()
	lo := &lowerer{
		prog:       p,
		inst:       inst,
		unit:       inst.Unit,
		num:        num,
		u:          u,
		sigIdx:     make([]int32, n),
		constKnown: make([]bool, n),
		blockPC:    map[*ir.Block]int{},
		uses:       make([]int32, n),
	}
	for i := range lo.sigIdx {
		lo.sigIdx[i] = -1
	}
	u.NRegs = n
	u.ConstRegs = make([]val.Value, n)

	// Pre-place constants: the instance's elaboration-time constants plus
	// every const instruction. With value-ID register indexing this is the
	// whole const story — operands read them like any other register.
	consts, isConst := inst.ConstTable()
	for id, ok := range isConst {
		if ok {
			u.ConstRegs[id] = consts[id]
			lo.constKnown[id] = true
			u.ConstIDs = append(u.ConstIDs, int32(id))
		}
	}
	for _, b := range lo.unit.Blocks {
		blockStart := lo.tick()
		for _, in := range b.Insts {
			var cv val.Value
			switch in.Op {
			case ir.OpConstInt:
				cv = val.Int(widthOf(in.Ty), in.IVal)
			case ir.OpConstTime:
				cv = val.TimeVal(in.TVal)
			case ir.OpConstLogic:
				cv = val.LogicVal(in.LVal)
			default:
				lo.plan(in, blockStart)
				continue
			}
			id := ir.ValueID(in)
			u.ConstRegs[id] = cv
			if !lo.constKnown[id] {
				lo.constKnown[id] = true
				u.ConstIDs = append(u.ConstIDs, int32(id))
			}
		}
	}
	return lo
}

func widthOf(ty *ir.Type) int {
	if ty.IsInt() {
		return ty.Width
	}
	return ty.BitWidth()
}

// reg returns the register index of v: its dense value ID, or for a
// forwarded load the ID of the var it reads.
func (lo *lowerer) reg(v ir.Value) int32 {
	id := ir.ValueID(v)
	if id < 0 {
		panic(fmt.Sprintf("bytecode: operand %s has no value ID in @%s", v, lo.unit.Name))
	}
	if r := lo.forwardedTo(id); r >= 0 {
		return r
	}
	return int32(id)
}

// sigSlot assigns a slot in the frame's signal table to a statically
// known signal reference, validating resolvability against the prototype
// instance (the actual SigRef is resolved per instance by NewFrame).
func (lo *lowerer) sigSlot(v ir.Value) (int32, error) {
	id := ir.ValueID(v)
	if id < 0 {
		return 0, errNotSignal(v)
	}
	if i := lo.sigIdx[id]; i >= 0 {
		return i, nil
	}
	if _, err := ResolveSigRef(lo.inst, v); err != nil {
		return 0, err
	}
	i := int32(len(lo.u.SigVals))
	lo.u.SigVals = append(lo.u.SigVals, v)
	lo.probedSeen = append(lo.probedSeen, false)
	lo.sigIdx[id] = i
	return i, nil
}

// markProbed adds the signal slot to the entity's permanent sensitivity
// (deduplicated per slot here, per signal at frame building).
func (lo *lowerer) markProbed(si int32) {
	if !lo.probedSeen[si] {
		lo.probedSeen[si] = true
		lo.u.Probed = append(lo.u.Probed, si)
	}
}

// emit appends one instruction and returns its pc.
func (lo *lowerer) emit(i Instr) int {
	lo.u.Code = append(lo.u.Code, i)
	return len(lo.u.Code) - 1
}

// auxPut appends values to the aux pool and returns the start index.
func (lo *lowerer) auxPut(vals ...int32) int32 {
	at := int32(len(lo.u.Aux))
	lo.u.Aux = append(lo.u.Aux, vals...)
	return at
}

// jumpTo records a fixup of instruction field f at pc to the start of b.
func (lo *lowerer) jumpTo(pc int, f uint8, b *ir.Block) {
	lo.fixups = append(lo.fixups, fixup{pc: pc, field: f, target: b})
}

// lowerBlocks lowers every block in order, then patches jump targets.
// Operand counts and which ops the unit's kind may hold were checked by
// the elaboration that got here (ir.CheckShape).
func (lo *lowerer) lowerBlocks() error {
	blocks := lo.unit.Blocks
	for k, b := range blocks {
		lo.blockPC[b] = len(lo.u.Code)
		lo.next = nil
		if k+1 < len(blocks) {
			lo.next = blocks[k+1]
		}
		if err := lo.lowerBlock(b); err != nil {
			return err
		}
	}
	for _, fx := range lo.fixups {
		pc, ok := lo.blockPC[fx.target]
		if !ok {
			return fmt.Errorf("branch to unknown block %s", fx.target)
		}
		switch fx.field {
		case 0:
			lo.u.Code[fx.pc].A = int32(pc)
		case 1:
			lo.u.Code[fx.pc].B = int32(pc)
		case 2:
			lo.u.Code[fx.pc].C = int32(pc)
		}
	}
	lo.threadJumps()
	return nil
}

// maxThread bounds how many jumps one target is followed through: a
// jump-only cycle has no end to find.
const maxThread = 8

// threadJumps retargets every jump and branch whose target is itself a
// jump (rule 3 of plan.go).
func (lo *lowerer) threadJumps() {
	code := lo.u.Code
	for pc := range code {
		switch i := &code[pc]; i.Op {
		case opJump:
			i.A = threaded(code, i.A)
		case opBranch:
			i.B, i.C = threaded(code, i.B), threaded(code, i.C)
		}
	}
}

// threaded follows the jumps at pc, at most maxThread of them.
func threaded(code []Instr, pc int32) int32 {
	for hops := 0; hops < maxThread && code[pc].Op == opJump; hops++ {
		pc = code[pc].A
	}
	return pc
}

func (lo *lowerer) lowerBlock(b *ir.Block) error {
	start := int32(lo.blockPC[b])
	lo.tail = nil
	for _, in := range b.Insts {
		if in.Op.IsTerminator() {
			return lo.lowerTerm(b, in)
		}
		n := len(lo.u.Code)
		if err := lo.lowerStep(in); err != nil {
			return err
		}
		// A fused splice extends the last Instr and names itself the tail.
		if len(lo.u.Code) == n+1 {
			lo.tail = in
		} else if lo.tail != in {
			lo.tail = nil
		}
	}
	if lo.unit.Kind == ir.UnitFunc {
		return fmt.Errorf("block %s lacks a terminator", b)
	}
	// Entity bodies have no terminator: suspend after each evaluation,
	// resuming at the top of the same dataflow cone.
	lo.emit(Instr{Op: opSuspend, A: start})
	return nil
}

// edgeMoves collects the phi resolution for the edge from -> to as
// (src, dst) register pairs. Constant incoming values are ordinary
// registers here — they are pre-placed by the template.
func (lo *lowerer) edgeMoves(from, to *ir.Block) []int32 {
	var pairs []int32
	for _, in := range to.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		for i, pb := range in.Dests {
			if pb == from {
				pairs = append(pairs, lo.reg(in.Args[i]), lo.reg(in))
				break
			}
		}
	}
	return pairs
}

// emitMoves emits the parallel phi moves for one edge, if any.
func (lo *lowerer) emitMoves(pairs []int32) {
	if len(pairs) == 0 {
		return
	}
	n := len(pairs) / 2
	if n > lo.u.NPhi {
		lo.u.NPhi = n
	}
	lo.emit(Instr{Op: opPhi, A: lo.auxPut(pairs...), B: int32(n)})
}

// edgeEnter emits the entry sequence for the edge from -> to and patches
// field f of the branch at brPC to it: directly to the block when the
// edge carries no phi moves, otherwise through a synthesized edge stub
// (critical-edge split) of [phi moves; jump].
func (lo *lowerer) edgeEnter(brPC int, f uint8, from, to *ir.Block) {
	pairs := lo.edgeMoves(from, to)
	if len(pairs) == 0 {
		lo.jumpTo(brPC, f, to)
		return
	}
	stub := len(lo.u.Code)
	lo.emitMoves(pairs)
	jmp := lo.emit(Instr{Op: opJump})
	lo.jumpTo(jmp, 0, to)
	switch f {
	case 1:
		lo.u.Code[brPC].B = int32(stub)
	case 2:
		lo.u.Code[brPC].C = int32(stub)
	}
}

func (lo *lowerer) lowerTerm(b *ir.Block, in *ir.Inst) error {
	switch in.Op {
	case ir.OpBr:
		if len(in.Args) == 0 {
			pairs := lo.edgeMoves(b, in.Dests[0])
			if len(pairs) == 0 && in.Dests[0] == lo.next {
				return nil // rule 3: falls through
			}
			lo.emitMoves(pairs)
			jmp := lo.emit(Instr{Op: opJump})
			lo.jumpTo(jmp, 0, in.Dests[0])
			return nil
		}
		br := lo.emit(Instr{Op: opBranch, A: lo.reg(in.Args[0])})
		lo.edgeEnter(br, 1, b, in.Dests[0]) // false edge
		lo.edgeEnter(br, 2, b, in.Dests[1]) // true edge
		return nil

	case ir.OpWait:
		slots := make([]int32, 0, len(in.Args))
		for _, a := range in.Args {
			si, err := lo.sigSlot(a)
			if err != nil {
				return err
			}
			slots = append(slots, si)
		}
		wi := int32(len(lo.u.Waits))
		lo.u.Waits = append(lo.u.Waits, slots)
		treg := int32(-1)
		if in.TimeArg != nil {
			treg = lo.reg(in.TimeArg)
		}
		// Arm the wake-up first: the timeout operand must be read before
		// the edge's phi moves overwrite loop-carried registers.
		lo.emit(Instr{Op: opWaitArm, A: wi, B: treg})
		lo.emitMoves(lo.edgeMoves(b, in.Dests[0]))
		sus := lo.emit(Instr{Op: opSuspend})
		lo.jumpTo(sus, 0, in.Dests[0])
		return nil

	case ir.OpHalt:
		lo.emit(Instr{Op: opHalt})
		return nil

	case ir.OpRet:
		if len(in.Args) == 1 {
			lo.emit(Instr{Op: opRetV, A: lo.reg(in.Args[0])})
		} else {
			lo.emit(Instr{Op: opRet})
		}
		return nil

	case ir.OpUnreachable:
		lo.emit(Instr{Op: opUnreach})
		return nil
	}
	return fmt.Errorf("unsupported terminator %s", in.Op)
}

// lowerStep lowers one non-terminator instruction; per-op semantics must
// stay trace-identical to the reference interpreter's.
func (lo *lowerer) lowerStep(in *ir.Inst) error {
	switch in.Op {
	case ir.OpConstInt, ir.OpConstTime, ir.OpConstLogic:
		return nil // pre-placed by the register template
	case ir.OpPhi:
		return nil // register reserved by value ID; filled by edge moves
	case ir.OpSig, ir.OpInst, ir.OpCon:
		return nil // entity only; handled at elaboration
	case ir.OpFree:
		return nil // a memory slot is a register; there is nothing to release

	case ir.OpPrb:
		si, err := lo.sigSlot(in.Args[0])
		if err != nil {
			return err
		}
		lo.markProbed(si)
		lo.emit(Instr{Op: opPrb, Dst: lo.reg(in), A: si})
		return nil

	case ir.OpDrv:
		si, err := lo.sigSlot(in.Args[0])
		if err != nil {
			return err
		}
		i := Instr{Op: opDrv, Dst: -1, A: si, B: lo.reg(in.Args[1]), C: lo.reg(in.Args[2])}
		if len(in.Args) == 4 {
			i.Op = opDrvCond
			i.Dst = lo.reg(in.Args[3])
		}
		lo.emit(i)
		return nil

	case ir.OpReg:
		return lo.lowerReg(in)

	case ir.OpDel:
		si, err := lo.sigSlot(in.Args[0])
		if err != nil {
			return err
		}
		srcSi, err := lo.sigSlot(in.Args[1])
		if err != nil {
			return err
		}
		lo.markProbed(srcSi)
		di := int32(lo.u.NDels)
		lo.u.NDels++
		lo.emit(Instr{Op: opDel, Dst: di, A: si, B: srcSi, C: lo.reg(in.Args[2])})
		return nil

	case ir.OpVar:
		lo.emit(Instr{Op: opClone, Dst: lo.reg(in), A: lo.reg(in.Args[0])})
		return nil

	case ir.OpAlloc:
		pi := int32(len(lo.u.Pool))
		lo.u.Pool = append(lo.u.Pool, val.Default(in.Ty.Elem))
		lo.emit(Instr{Op: opCloneP, Dst: lo.reg(in), A: pi})
		return nil

	case ir.OpLd:
		if lo.forwardedTo(ir.ValueID(in)) >= 0 {
			return nil // rule 1: users read the var's register
		}
		lo.emit(Instr{Op: opMove, Dst: lo.reg(in), A: lo.reg(in.Args[0])})
		return nil

	case ir.OpSt:
		ptr, x := in.Args[0], in.Args[1]
		if lo.tail != nil && lo.tail == x && lo.singleUse(x) && lo.private(ptr) {
			// Rule 2: the value's one Instr writes the var's register.
			if i := &lo.u.Code[len(lo.u.Code)-1]; opWritesDst[i.Op] && i.Dst == lo.reg(x) {
				i.Dst = lo.reg(ptr)
				return nil
			}
		}
		lo.emit(Instr{Op: opMove, Dst: lo.reg(ptr), A: lo.reg(x)})
		return nil

	case ir.OpCall:
		return lo.lowerCall(in)

	case ir.OpExtF:
		// Signal projection is folded into the signal slot; a value
		// extraction is an executed instruction.
		if in.Ty.IsSignal() {
			_, err := lo.sigSlot(in)
			return err
		}
		if lo.skipFolded(in) {
			return nil
		}
		if len(in.Args) == 2 {
			lo.emit(Instr{Op: opExtFDyn, Dst: lo.reg(in), A: lo.reg(in.Args[0]), B: lo.reg(in.Args[1])})
			return nil
		}
		lo.emit(Instr{Op: opExtF, Dst: lo.reg(in), A: lo.reg(in.Args[0]), B: int32(in.Imm0)})
		return nil

	case ir.OpExtS:
		if in.Ty.IsSignal() {
			_, err := lo.sigSlot(in)
			return err
		}
		if lo.skipFolded(in) {
			return nil
		}
		op := opExtS // generic (logic vectors)
		if in.Args[0].Type().IsInt() {
			op = opExtSInt // integer bit slices are the hot path
		}
		lo.emit(Instr{Op: op, Dst: lo.reg(in), A: lo.reg(in.Args[0]), B: int32(in.Imm0), C: int32(in.Imm1)})
		return nil

	case ir.OpInsF:
		if lo.skipFolded(in) {
			return nil
		}
		i := Instr{Op: opInsF, Dst: lo.reg(in), A: lo.reg(in.Args[0]), B: lo.reg(in.Args[1]), C: int32(in.Imm0)}
		if len(in.Args) == 3 {
			i.Op = opInsFDyn
			i.C = lo.reg(in.Args[2])
		}
		lo.emit(i)
		return nil

	case ir.OpInsS:
		if lo.skipFolded(in) {
			return nil
		}
		i := Instr{Op: opInsS, Dst: lo.reg(in), A: lo.reg(in.Args[0]), B: lo.reg(in.Args[1])}
		if in.Args[0].Type().IsInt() {
			if lo.tail != nil && lo.tail == in.Args[0] && lo.singleUse(lo.tail) && lo.fuseSplice(in, i) {
				return nil
			}
			i.Op = opInsSInt
			i.C = lo.auxPut(int32(in.Imm0), int32(in.Imm1), int32(in.Args[0].Type().Width))
		} else {
			i.C = lo.auxPut(int32(in.Imm0), int32(in.Imm1))
		}
		lo.emit(i)
		return nil

	case ir.OpMux:
		if lo.skipFolded(in) {
			return nil
		}
		lo.emit(Instr{Op: opMux, Dst: lo.reg(in), A: lo.reg(in.Args[0]), B: lo.reg(in.Args[1])})
		return nil

	case ir.OpArray, ir.OpStruct:
		if lo.skipFolded(in) {
			return nil
		}
		elems := make([]int32, len(in.Args))
		for i, a := range in.Args {
			elems[i] = lo.reg(a)
		}
		lo.emit(Instr{Op: opAgg, Dst: lo.reg(in), A: lo.auxPut(elems...), B: int32(len(elems))})
		return nil

	case ir.OpNot, ir.OpNeg:
		if lo.skipFolded(in) {
			return nil
		}
		if !in.Ty.IsInt() && !in.Ty.IsEnum() {
			// Logic vectors take the nine-valued evaluator; the integer
			// fast path would clobber them with a val.Int (the "not lN"
			// blaze miscompile found by the differential fuzzer).
			lo.emit(Instr{Op: opEvalUn, Dst: lo.reg(in), A: lo.reg(in.Args[0]), C: int32(in.Op)})
			return nil
		}
		op := opNot
		if in.Op == ir.OpNeg {
			op = opNeg
		}
		lo.emit(Instr{Op: op, Dst: lo.reg(in), A: lo.reg(in.Args[0]), C: int32(widthOf(in.Ty))})
		return nil
	}

	if in.Op.IsBinary() || in.Op.IsCompare() {
		if lo.skipFolded(in) {
			return nil
		}
		return lo.lowerBinary(in)
	}
	return fmt.Errorf("unsupported instruction %s", in.Op)
}

// fuseSplice folds the integer inss in — whose target is the value of the
// last Instr and read by nothing else — into that Instr (rule 4): an
// inss.i becomes an inss.cat of two pieces, an inss.cat gains one. i holds
// in's operand registers. The last Instr's aux record is the pool's tail,
// because nothing was lowered since.
func (lo *lowerer) fuseSplice(in *ir.Inst, i Instr) bool {
	last := &lo.u.Code[len(lo.u.Code)-1]
	switch last.Op {
	case opInsSInt:
		off, n, w := lo.u.Aux[last.C], lo.u.Aux[last.C+1], lo.u.Aux[last.C+2]
		lo.u.Aux = lo.u.Aux[:last.C]
		last.C = lo.auxPut(w, last.B, off, n, i.B, int32(in.Imm0), int32(in.Imm1))
		last.Op, last.B = opInsSCat, 2
	case opInsSCat:
		lo.auxPut(i.B, int32(in.Imm0), int32(in.Imm1))
		last.B++
	default:
		return false
	}
	last.Dst = i.Dst
	lo.tail = in
	return true
}

// skipFolded reports whether the instruction's result was already folded
// into the constant template by elaboration — re-evaluating a pure
// instruction whose value is pre-placed would be wasted work (a
// recompute would agree with the fold by the val evaluator's
// determinism).
func (lo *lowerer) skipFolded(in *ir.Inst) bool {
	if !in.Op.IsPure() {
		return false
	}
	id := ir.ValueID(in)
	return id >= 0 && lo.constKnown[id]
}

// intBinOps maps integer binary/compare IR ops to their fast-path
// opcodes. Division and modulo stay on the generic evaluator for its
// divide-by-zero error reporting. The array is indexed by ir.Opcode;
// opNop marks an op without a fast path.
var intBinOps = [...]Op{
	ir.OpAnd: opAnd, ir.OpOr: opOr, ir.OpXor: opXor,
	ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul,
	ir.OpShl: opShl, ir.OpShr: opShr, ir.OpAshr: opAshr,
	ir.OpEq: opEq, ir.OpNeq: opNeq,
	ir.OpUlt: opUlt, ir.OpUgt: opUgt, ir.OpUle: opUle, ir.OpUge: opUge,
	ir.OpSlt: opSlt, ir.OpSgt: opSgt, ir.OpSle: opSle, ir.OpSge: opSge,
}

func (lo *lowerer) lowerBinary(in *ir.Inst) error {
	i := Instr{Dst: lo.reg(in), A: lo.reg(in.Args[0]), B: lo.reg(in.Args[1])}
	if ty := in.Args[0].Type(); ty.IsInt() || ty.IsEnum() {
		if int(in.Op) < len(intBinOps) && intBinOps[in.Op] != opNop {
			i.Op = intBinOps[in.Op]
			i.C = int32(widthOf(ty))
			lo.emit(i)
			return nil
		}
	}
	// Generic path (div/mod error reporting, logic vectors, times).
	i.Op = opEvalBin
	i.C = int32(in.Op)
	lo.emit(i)
	return nil
}

func (lo *lowerer) lowerReg(in *ir.Inst) error {
	si, err := lo.sigSlot(in.Args[0])
	if err != nil {
		return err
	}
	site := RegSite{Sig: si, Delay: -1}
	if in.Delay != nil {
		site.Delay = lo.reg(in.Delay)
	}
	for _, tr := range in.Triggers {
		t := RegTrig{Mode: tr.Mode, Value: lo.reg(tr.Value), Trigger: lo.reg(tr.Trigger), Gate: -1}
		if tr.Gate != nil {
			t.Gate = lo.reg(tr.Gate)
		}
		site.Trigs = append(site.Trigs, t)
	}
	ri := int32(len(lo.u.RegSites))
	lo.u.RegSites = append(lo.u.RegSites, site)
	lo.emit(Instr{Op: opReg, A: ri})
	return nil
}

func (lo *lowerer) lowerCall(in *ir.Inst) error {
	args := make([]int32, len(in.Args))
	for i, a := range in.Args {
		args[i] = lo.reg(a)
	}
	dst := int32(-1)
	if !in.Ty.IsVoid() {
		dst = lo.reg(in)
	}
	if strings.HasPrefix(in.Callee, "llhd.") {
		switch in.Callee {
		case "llhd.assert":
			lo.emit(Instr{Op: opAssert, A: args[0]})
		case "llhd.display":
			lo.emit(Instr{Op: opDisplay, A: lo.auxPut(args...), B: int32(len(args))})
		case "llhd.time":
			lo.emit(Instr{Op: opTimeNow, Dst: dst})
		default:
			// Unknown intrinsics fail when executed, not when lowered.
			sx := int32(len(lo.u.Strs))
			lo.u.Strs = append(lo.u.Strs, in.Callee)
			lo.emit(Instr{Op: opBadCall, A: sx})
		}
		return nil
	}
	fu, err := lo.prog.Func(in.Callee)
	if err != nil {
		return err
	}
	lo.emit(Instr{Op: opCall, Dst: dst, A: int32(fu.FuncIdx), B: lo.auxPut(args...), C: int32(len(args))})
	return nil
}
