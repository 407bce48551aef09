package bytecode

import (
	"fmt"
	"slices"
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
// first encounter. That the module defines it, as a function, was checked
// by the elaboration that got here (ir.CheckShape).
func (p *Program) Func(name string) (*Unit, error) {
	if fu, ok := p.funcs[name]; ok {
		return fu, nil
	}
	fn := p.mod.Unit(name)
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
	mem  []memPlan // value ID -> rules 1, 2 and 5; nil in a unit without memory instructions
	pos  int32     // walk position counter
	// Rule 9, nil in a unit without a prb: for a signal, its latest first
	// probe in a block (the prb's value ID + 1); for a prb that reuses an
	// earlier one, minus that, and planProbes keeps in the others what it
	// needs (>= 0). probesAcross: some signal has a first probe in two
	// blocks, the second not one a wait resumes in (resumes, nil until
	// asked).
	probes       []int32
	probesAcross bool
	resumes      []*ir.Block
	// Rule 5: every var, alloc, and ld or st of one the walk met, and the
	// block the walk is in.
	inits []initEvent
	block int32
	// Rules 10 and 11 are planned when the walk saw a phi (hasPhi), or a
	// conditional br (condBr) and an instruction rule 10 might move
	// (late); prev is the instruction the walk met before the current one
	// in its block. sched holds the blocks' instructions in the order
	// they are lowered, schedAt where each block starts in it (both nil:
	// as the IR has them), and regOf a coalesced value's register + 1 by
	// value ID (nil, or 0: its own).
	hasPhi, condBr, late bool
	prev                 *ir.Inst
	sched                []*ir.Inst
	schedAt              []int32
	regOf                []int32

	// While lowering a block: the block laid out after it, the
	// instruction just before the current one if all it lowered to is the
	// last Instr of Code (nil otherwise, and at the head of a block), and
	// the one lowered just after the current one (nil: none).
	next  *ir.Block
	tail  *ir.Inst
	after *ir.Inst
	// Rule 12: the zero-extension that the instruction lowered next reads
	// through (its value ID, -1 for none), and the register read instead.
	throughID  int
	throughReg int32
	// Rule 13: the edge waits lowered as one br.rise each (nil: none), and
	// the dominator tree and temporal regions that decide which transfers
	// skip a head probe.
	rises []rise
	dom   *ir.DomTree
	trs   *ir.TRMap
}

// fixup is a deferred jump-target patch: field f of the instruction at pc
// receives the start pc of the target block, or the pc after it when the
// transfer skips the block's head probe (past, rule 13).
type fixup struct {
	pc     int
	field  uint8
	target *ir.Block
	past   *rise
}

// The instruction fields a branch target goes in.
const (
	fieldA uint8 = iota
	fieldB
	fieldC
	fieldDst
)

// setTarget writes target into field f of the instruction at pc.
func (lo *lowerer) setTarget(pc int, f uint8, target int32) {
	switch i := &lo.u.Code[pc]; f {
	case fieldA:
		i.A = target
	case fieldB:
		i.B = target
	case fieldC:
		i.C = target
	case fieldDst:
		i.Dst = target
	}
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
		blockPC:    make(map[*ir.Block]int, len(inst.Unit.Blocks)),
		uses:       make([]int32, n),
		throughID:  -1,
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
	for k, b := range lo.unit.Blocks {
		blockStart := lo.tick()
		lo.block = int32(k)
		lo.prev = nil
		for _, in := range b.Insts {
			if !in.Op.IsConst() {
				lo.plan(in, blockStart)
				lo.prev = in
				continue
			}
			_ = engine.EvalPure(in, u.ConstRegs) // a constant cannot fail
			id := ir.ValueID(in)
			if !lo.constKnown[id] {
				lo.constKnown[id] = true
				u.ConstIDs = append(u.ConstIDs, int32(id))
			}
		}
	}
	if len(lo.inits) > 0 {
		lo.planInits()
	}
	if lo.probes != nil && lo.unit.Kind == ir.UnitProc {
		lo.rises = lo.edgeWaits()
	}
	needSSA := lo.unit.Kind != ir.UnitEntity && len(lo.unit.Blocks) > 1 && (lo.hasPhi || lo.condBr && lo.late)
	if needSSA || lo.probesAcross || lo.rises != nil {
		dom := ir.NewDomTree(lo.unit)
		if lo.probesAcross {
			lo.planProbes(dom) // first: it adds uses rules 10, 11 and 13 read
		}
		if lo.rises != nil {
			lo.planRises(dom)
		}
		if needSSA {
			lo.planSSA(dom)
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

// reg returns the register index of v: its dense value ID, for a
// forwarded load the ID of the var it reads, for a reused probe the
// register of the probe it reuses, for a zero-extension read through the
// register of what it extends, and for a coalesced value its web's
// register.
func (lo *lowerer) reg(v ir.Value) int32 {
	id := ir.ValueID(v)
	if id < 0 {
		panic(fmt.Sprintf("bytecode: operand %s has no value ID in @%s", v, lo.unit.Name))
	}
	if id == lo.throughID {
		return lo.throughReg
	}
	if r := lo.forwardedTo(id); r >= 0 {
		return r
	}
	if r := lo.reusedProbe(id); r >= 0 {
		id = int(r)
	}
	if lo.regOf != nil && lo.regOf[id] > 0 {
		return lo.regOf[id] - 1
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

// transfer records the fixup of a br's transfer from block from to block
// to, which lands past to's head probe where rule 13 lets it.
func (lo *lowerer) transfer(pc int, f uint8, from, to *ir.Block) {
	lo.fixups = append(lo.fixups, fixup{pc: pc, field: f, target: to, past: lo.skips(from, to)})
}

// lowerBlocks lowers every block in order, then patches jump targets.
// Operand counts and types, which ops the unit's kind may hold, that each
// block of a process or function ends in one terminator and that every
// destination is a block of the unit were checked by the elaboration that
// got here (ir.CheckShape).
func (lo *lowerer) lowerBlocks() error {
	blocks := lo.unit.Blocks
	for k, b := range blocks {
		lo.blockPC[b] = len(lo.u.Code)
		lo.next = nil
		if k+1 < len(blocks) {
			lo.next = blocks[k+1]
		}
		if err := lo.lowerBlock(k, b); err != nil {
			return err
		}
	}
	for _, fx := range lo.fixups {
		at := lo.blockPC[fx.target]
		if fx.past != nil && fx.past.first {
			at++
		}
		lo.setTarget(fx.pc, fx.field, int32(at))
	}
	lo.threadJumps()
	lo.compact()
	lo.replicateRuns()
	return nil
}

// maxThread bounds how many jumps one target is followed through: a
// jump-only cycle has no end to find.
const maxThread = 8

// threadJumps retargets every transfer whose target is itself a jump
// (rule 3 of plan.go) — resume points included — and then turns every jump
// to a branch into a copy of that branch (rule 7).
func (lo *lowerer) threadJumps() {
	code := lo.u.Code
	thread := func(pc int32) int32 { return threaded(code, pc) }
	for pc := range code {
		retarget(&code[pc], thread)
	}
	for pc := range code {
		if i := &code[pc]; i.Op == opJump {
			switch t := code[i.A]; t.Op {
			case opBranch, opBrEq, opBrUlt, opBrRise:
				*i = t
			}
		}
	}
}

// compact drops every instruction that no transfer, fall-through or
// resume point reaches from the entry, the jumps threading went around
// among them, and renumbers the targets.
func (lo *lowerer) compact() {
	code := lo.u.Code
	reached := make([]bool, len(code))
	var work []int32
	reach := func(pc int32) int32 {
		if !reached[pc] {
			reached[pc] = true
			work = append(work, pc)
		}
		return pc
	}
	reach(0)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		switch i := code[pc]; i.Op {
		case opJump, opSuspend, opBranch, opBrEq, opBrUlt, opBrRise:
			retarget(&i, reach)
		case opHalt, opRet, opRetV, opUnreach, opBadCall:
		default:
			reach(pc + 1)
		}
	}
	newPC := make([]int32, len(code))
	n := int32(0)
	for pc := range code {
		newPC[pc] = n
		if reached[pc] {
			n++
		}
	}
	if int(n) == len(code) {
		return
	}
	renumber := func(pc int32) int32 { return newPC[pc] }
	out := code[:0]
	for pc, i := range code {
		if reached[pc] {
			retarget(&i, renumber)
			out = append(out, i)
		}
	}
	lo.u.Code = out
}

// retarget replaces every pc operand of i, resume points included, by
// f of it.
func retarget(i *Instr, f func(pc int32) int32) {
	switch i.Op {
	case opJump, opSuspend:
		i.A = f(i.A)
	case opBranch, opBrRise:
		i.B, i.C = f(i.B), f(i.C)
	case opBrEq, opBrUlt:
		i.Dst, i.C = f(i.Dst), f(i.C)
	}
}

// threaded follows the jumps at pc, at most maxThread of them.
func threaded(code []Instr, pc int32) int32 {
	for hops := 0; hops < maxThread && code[pc].Op == opJump; hops++ {
		pc = code[pc].A
	}
	return pc
}

func (lo *lowerer) lowerBlock(k int, b *ir.Block) error {
	start := int32(lo.blockPC[b])
	lo.tail = nil
	insts := lo.blockInsts(k)
	for j, in := range insts {
		if in.Op.IsTerminator() {
			return lo.lowerTerm(b, in)
		}
		lo.after = nil
		if j+1 < len(insts) {
			lo.after = insts[j+1]
		}
		n := len(lo.u.Code)
		if err := lo.lowerStep(in); err != nil {
			return err
		}
		if lo.throughID >= 0 && lo.throughID != ir.ValueID(in) {
			lo.throughID = -1 // its one user is lowered
		}
		// A fused splice extends the last Instr and names itself the tail.
		if len(lo.u.Code) == n+1 {
			lo.tail = in
		} else if lo.tail != in {
			lo.tail = nil
		}
	}
	// Entity bodies have no terminator: suspend after each evaluation,
	// resuming at the top of the same dataflow cone.
	lo.emit(Instr{Op: opSuspend, A: start})
	return nil
}

// edgeMoves collects the phi resolution for the edge from -> to as
// (src, dst) register pairs, leaving out every pair that copies a register
// onto itself and the phis nobody reads. Constant incoming values are
// ordinary registers here — they are pre-placed by the template.
func (lo *lowerer) edgeMoves(from, to *ir.Block) []int32 {
	var pairs []int32
	for _, in := range to.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		if lo.uses[ir.ValueID(in)] == 0 {
			continue
		}
		for i, pb := range in.Dests {
			if pb == from {
				if src, dst := lo.reg(in.Args[i]), lo.reg(in); src != dst {
					pairs = append(pairs, src, dst)
				}
				break
			}
		}
	}
	return pairs
}

// emitMoves emits the moves of one edge, if any, as one opMoves whose
// pairs run in order (edge moves in plan.go).
func (lo *lowerer) emitMoves(pairs []int32) {
	if len(pairs) == 0 {
		return
	}
	at := int32(len(lo.u.Aux))
	lo.sequence(pairs)
	lo.emit(Instr{Op: opMoves, A: at, B: (int32(len(lo.u.Aux)) - at) / 2})
}

// sequence orders an edge's parallel moves — (src, dst) pairs, no two with
// one dst and none with src == dst — as copies made one after another: a
// move goes when no move still to go reads its dst. When every move left
// is held up that way, what is left are cycles, and one dst is first
// copied to the scratch register, which its readers then read instead.
// That frees the move writing it, and the rest of its cycle follows before
// the scratch register is needed again. The copies go to the aux pool, in
// order; pairs is used up.
func (lo *lowerer) sequence(pairs []int32) {
	n := len(pairs) / 2
	// reads[k]: how many moves still to go read the dst of move k.
	reads := make([]int32, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			if pairs[2*j] == pairs[2*k+1] {
				reads[k]++
			}
		}
	}
	for left := n; left > 0; left-- {
		k := 0
		for k < left && reads[k] != 0 {
			k++
		}
		if k == left {
			k = 0
			dst, tmp := pairs[1], lo.scratch()
			lo.auxPut(dst, tmp)
			for j := 0; j < left; j++ {
				if pairs[2*j] == dst {
					pairs[2*j] = tmp
				}
			}
			reads[0] = 0
		}
		src := pairs[2*k]
		lo.auxPut(src, pairs[2*k+1])
		// Move k is done: the moves after it close up, keeping their order.
		copy(pairs[2*k:], pairs[2*k+2:2*left])
		copy(reads[k:], reads[k+1:left])
		for j := 0; j < left-1; j++ {
			if pairs[2*j+1] == src {
				reads[j]--
			}
		}
	}
}

// scratch returns the scratch register, one past the numbering, adding it
// to the unit's register file the first time.
func (lo *lowerer) scratch() int32 {
	r := int32(lo.num.Len())
	lo.u.NRegs = int(r) + 1
	return r
}

// edgeEnter emits the entry sequence for the edge from -> to and patches
// field f of the branch at brPC to it: directly to the block when the
// edge carries no phi moves, otherwise through a synthesized edge stub
// (critical-edge split) of [phi moves; jump].
func (lo *lowerer) edgeEnter(brPC int, f uint8, from, to *ir.Block) {
	pairs := lo.edgeMoves(from, to)
	if len(pairs) == 0 {
		lo.transfer(brPC, f, from, to)
		return
	}
	stub := len(lo.u.Code)
	lo.emitMoves(pairs)
	jmp := lo.emit(Instr{Op: opJump})
	lo.transfer(jmp, fieldA, from, to)
	lo.setTarget(brPC, f, int32(stub))
}

func (lo *lowerer) lowerTerm(b *ir.Block, in *ir.Inst) error {
	switch in.Op {
	case ir.OpBr:
		if len(in.Args) == 0 {
			lo.emitMoves(lo.edgeMoves(b, in.Dests[0]))
			if in.Dests[0] == lo.next {
				return nil // rule 3: falls through
			}
			jmp := lo.emit(Instr{Op: opJump})
			lo.transfer(jmp, fieldA, b, in.Dests[0])
			return nil
		}
		br, onFalse, onTrue := lo.condBranch(in.Args[0])
		lo.edgeEnter(br, onFalse, b, in.Dests[0])
		lo.edgeEnter(br, onTrue, b, in.Dests[1])
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
		lo.jumpTo(sus, fieldA, in.Dests[0])
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

// fusedBranch is how a branch tests the compare or i1 not in front of it
// (rule 6 of plan.go): the opcode that does, and whether the compare's
// operands and the branch's targets trade places.
type fusedBranch struct {
	op                  Op
	swapArgs, swapDests bool
}

var fusedBranches = [numOps]fusedBranch{
	opEq:  {opBrEq, false, false},
	opNeq: {opBrEq, false, true},
	opUlt: {opBrUlt, false, false},
	opUgt: {opBrUlt, true, false}, // a > b is b < a
	opUge: {opBrUlt, false, true}, // a >= b is not a < b
	opUle: {opBrUlt, true, true},  // a <= b is not b < a
	opNot: {opBranch, false, true},
}

// condBranch emits the conditional branch on cond and returns its pc and
// the fields its false and true targets go in. When cond is a compare or an
// i1 not whose one use is this branch and whose one Instr is the last of
// Code, that Instr becomes the branch (rule 6); an edge wait's test is one
// br.rise (rule 13).
func (lo *lowerer) condBranch(cond ir.Value) (pc int, onFalse, onTrue uint8) {
	if r := lo.riseOf(cond); r != nil {
		return lo.emit(Instr{Op: opBrRise, Dst: lo.reg(r.old), A: r.slot}), fieldB, fieldC
	}
	br := Instr{Op: opBranch, A: lo.reg(cond)}
	onFalse, onTrue = fieldB, fieldC
	if lo.tail != nil && lo.tail == cond && lo.singleUse(cond) {
		last := lo.u.Code[len(lo.u.Code)-1]
		// A not that rule 14 narrowed to one bit reads a wider operand,
		// which the branch would test whole.
		if f := fusedBranches[last.Op]; f.op != opNop && last.Dst == br.A && (last.Op != opNot || lo.tail.Op == ir.OpNot) {
			lo.u.Code = lo.u.Code[:len(lo.u.Code)-1]
			br.A = last.A
			if f.op != opBranch { // a compare: both operands, the false target in Dst
				br = Instr{Op: f.op, A: last.A, B: last.B}
				if f.swapArgs {
					br.A, br.B = br.B, br.A
				}
				onFalse = fieldDst
			}
			if f.swapDests {
				onFalse, onTrue = onTrue, onFalse
			}
		}
	}
	return lo.emit(br), onFalse, onTrue
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
		if lo.reusedProbe(ir.ValueID(in)) >= 0 {
			return nil // rule 9: users read the earlier probe's register
		}
		si, err := lo.sigSlot(in.Args[0])
		if err != nil {
			return err
		}
		r := lo.riseOf(in)
		if r != nil && in == r.new {
			r.slot = si
			return nil // rule 13: the br.rise probes
		}
		if r != nil {
			r.first = len(lo.u.Code) == lo.blockPC[r.head]
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
		if lo.initUnseen(in) {
			return nil // rule 5: every load sees a store first
		}
		lo.emit(Instr{Op: opClone, Dst: lo.reg(in), A: lo.reg(in.Args[0])})
		return nil

	case ir.OpAlloc:
		if lo.initUnseen(in) {
			return nil
		}
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
			if lo.truncate(in) {
				return nil // rule 14: the Instr before it writes it
			}
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
		if in.Args[0].Type().IsInt() && lo.readThrough(in) {
			return nil // rule 12: its user reads what it extends
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
		if lo.skipFolded(in) || lo.riseOf(in) != nil {
			return nil // rule 13: the br.rise tests the edge
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

// truncates marks the opcodes whose low n bits depend on the low n bits
// of their operands alone (and a shift's amount), so that one computed at
// width n is the truncation of one computed wider: rule 14 may fold a
// truncation into them.
var truncates = [numOps]bool{
	opAdd: true, opSub: true, opMul: true, opAnd: true, opOr: true, opXor: true,
	opShl: true, opNot: true, opNeg: true,
}

// truncate folds the integer exts in — exts iN %x, 0, n, %x read by
// nothing else and lowered to the last Instr — into that Instr when it is
// one of truncates (rule 14): it then writes in's register at width n,
// and in is the tail.
func (lo *lowerer) truncate(in *ir.Inst) bool {
	x := in.Args[0]
	if in.Imm0 != 0 || lo.tail == nil || lo.tail != x || !lo.singleUse(x) {
		return false
	}
	last := &lo.u.Code[len(lo.u.Code)-1]
	if !truncates[last.Op] || last.Dst != lo.reg(x) {
		return false
	}
	last.Dst, last.C = lo.reg(in), int32(in.Imm1)
	lo.tail = in
	return true
}

// readThrough reports whether the integer inss in is a zero-extension
// that rule 12 reads through — inss iN 0, %x, 0, w with w the width of
// %x — and its one user is lowered next and reads no more of it than the
// payload bits; if so, that user reads %x's register in its place.
func (lo *lowerer) readThrough(in *ir.Inst) bool {
	x, c := in.Args[1], ir.ValueID(in.Args[0])
	if in.Imm0 != 0 || !x.Type().IsInt() || x.Type().Width != in.Imm1 {
		return false
	}
	if c < 0 || !lo.constKnown[c] || lo.u.ConstRegs[c].Kind != val.KindInt || lo.u.ConstRegs[c].Bits != 0 {
		return false
	}
	if !lo.singleUse(in) || lo.after == nil || !readsPayload(lo.after, in) {
		return false
	}
	lo.throughID, lo.throughReg = ir.ValueID(in), lo.reg(x)
	return true
}

// readsPayload reports whether u, as lowered, reads its operand z as the
// payload bits alone: the operands of the in-place integer arithmetic,
// shifts and compares, of not and neg, of an integer exts, the source of
// an integer inss (its target is a link rule 4 may fuse), and the index
// of extf.d and insf.d. A compare fused into its branch keeps the operands
// it read.
func readsPayload(u *ir.Inst, z ir.Value) bool {
	j := slices.Index(u.Args, z)
	if j < 0 {
		return false
	}
	switch u.Op {
	case ir.OpNot, ir.OpNeg:
		return u.Ty.IsInt() || u.Ty.IsEnum()
	case ir.OpExtS:
		return true // of an integer value: exts.i
	case ir.OpInsS:
		return j == 1 && u.Args[0].Type().IsInt()
	case ir.OpExtF:
		return j == 1 && !u.Ty.IsSignal()
	case ir.OpInsF:
		return j == 2
	}
	if int(u.Op) < len(intBinOps) && intBinOps[u.Op] != opNop {
		ty := u.Args[0].Type()
		return ty.IsInt() || ty.IsEnum()
	}
	return false
}

// replicateRuns rewrites every inss.cat that holds a replicate run — pieces
// of one source and one width at consecutive offsets, what {k{x}} lowers
// to — as an inss.rep (rule 8), when the run record is no longer than the
// piece record it overwrites.
func (lo *lowerer) replicateRuns() {
	var runs []int32
	for pc := range lo.u.Code {
		i := &lo.u.Code[pc]
		if i.Op != opInsSCat {
			continue
		}
		pieces := lo.u.Aux[i.C+1 : i.C+1+3*i.B]
		runs = runs[:0]
		for k := 0; k < len(pieces); k += 3 {
			src, off, n := pieces[k], pieces[k+1], pieces[k+2]
			if r := len(runs) - 4; r >= 0 && runs[r] == src && runs[r+2] == n && runs[r+1]+n*runs[r+3] == off {
				runs[r+3]++
				continue
			}
			runs = append(runs, src, off, n, 1)
		}
		if len(runs) <= len(pieces) {
			copy(pieces, runs)
			i.Op, i.B = opInsSRep, int32(len(runs)/4)
		}
	}
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
