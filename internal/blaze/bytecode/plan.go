package bytecode

import "llhd/internal/ir"

// # The forwarding plan
//
// Lowering forwards values instead of transcribing the IR one instruction
// at a time. Four rewrites, each with the condition that makes it sound;
// the reference they are diffed against is the interpreter, so there is no
// way to switch any of them off.
//
//  1. Load forwarding. A ld of a private var emits nothing and its users
//     read the var's register (reg consults the plan). Private: every
//     operand occurrence of the var/alloc is the address of a ld, st or
//     free, so nothing but those reads or writes its register. Forwarded:
//     every operand occurrence of the load lies in the load's own block,
//     behind the load, with no write of the var's register (st to it, or
//     the var instruction itself) between the load and that instruction.
//     A successor block runs after an unknown number of writes, and a phi
//     reads its operands on the edge — it stands at the head of its
//     block, before any load of that block, so neither is ever behind the
//     load. An occurrence as a ld/st/free address does not qualify either
//     (a store through it would land in the var's register), nor one as
//     a wait timeout (opWaitArm is left the plain value register it
//     always had).
//  2. Store coalescing. st V, X emits nothing and X's instruction writes
//     V's register, when V is private, the store is X's only use, X is the
//     instruction just before it in the block and X lowered to exactly one
//     Instr whose Dst is X's register (so not a template-folded or
//     forwarded X). Nothing executes between that Instr and the store, and
//     the Instr may now name V's register as operand and as Dst: every arm
//     of run reads all its operands before it writes Dst
//     (TestOpsReadOperandsBeforeDst).
//  3. Fall-through and threading. An unconditional br without edge moves
//     to the next block in layout emits nothing, and a jump or branch whose
//     target is a jump goes where that jump goes (maxThread hops). Only
//     forward transfers to the very next pc disappear, and pc otherwise
//     only grows, so every cycle keeps a jump or branch that run counts
//     against maxJumps.
//  4. Splice-chain fusion. Adjacent integer inss of one block, each the
//     only use of the one before it and that use its target operand,
//     become one opInsSCat. The intermediate words have no other reader,
//     every piece's source is read where the last link stood, and nothing
//     executes between the links.
//
// "Register file = value ID" stands: a forwarded load's register, a
// coalesced value's and a fused link's simply go unwritten, and nothing
// but reg maps a value to a register.
//
// The plan is dense arrays indexed by value ID, filled by the one walk
// newLowerer makes over the unit: no map, no per-block state. uses is
// always there (rule 4 needs it); mem is allocated when the walk
// meets the first memory instruction, so a unit without one pays one
// counter increment per operand and nothing else.

// memPlan is the plan entry of a value that takes part in rules 1 and 2.
type memPlan struct {
	// addr counts a var/alloc's occurrences as the address of a ld, st or
	// free: the var is private when these are all its occurrences.
	addr int32
	// at is a walk position: of the last write to its register seen so
	// far for a var/alloc, of the load itself for a ld.
	at int32
	// ld of a var/alloc only: that var's register + 1, and how many of the
	// load's occurrences fell inside its forwarding window.
	fwd int32
	win int32
}

// tick returns the next walk position (> 0).
func (lo *lowerer) tick() int32 {
	lo.pos++
	return lo.pos
}

// memOf returns the memory plan, allocating it on first use.
func (lo *lowerer) memOf() []memPlan {
	if lo.mem == nil {
		lo.mem = make([]memPlan, lo.num.Len())
	}
	return lo.mem
}

// plan records one instruction of the walk: operand occurrence counts,
// and for memory instructions the writes and windows of rules 1 and 2.
// blockStart is the walk position at which the instruction's block began.
func (lo *lowerer) plan(in *ir.Inst, blockStart int32) {
	args, addr := in.Args, -1
	switch in.Op {
	case ir.OpVar, ir.OpAlloc:
		lo.memOf()[ir.ValueID(in)].at = lo.tick()
	case ir.OpLd, ir.OpSt, ir.OpFree:
		mem := lo.memOf()
		args = args[1:]
		if addr = ir.ValueID(in.Args[0]); addr >= 0 {
			lo.uses[addr]++
			mem[addr].addr++
			if v, ok := in.Args[0].(*ir.Inst); ok && in.Op == ir.OpLd && (v.Op == ir.OpVar || v.Op == ir.OpAlloc) {
				mem[ir.ValueID(in)] = memPlan{at: lo.tick(), fwd: int32(addr) + 1}
			}
		}
	}
	for _, a := range args {
		id := ir.ValueID(a)
		if id < 0 {
			continue
		}
		lo.uses[id]++
		if lo.mem == nil {
			continue
		}
		// Inside the window: the load is of this block and its var's
		// register has not been written since.
		if l := &lo.mem[id]; l.fwd != 0 && l.at > blockStart && lo.mem[l.fwd-1].at < l.at {
			l.win++
		}
	}
	if in.Op == ir.OpSt && addr >= 0 {
		lo.mem[addr].at = lo.tick() // the store read its value before it writes
	}
	lo.count(in.TimeArg)
	lo.count(in.Delay)
	for _, t := range in.Triggers {
		lo.count(t.Value)
		lo.count(t.Trigger)
		lo.count(t.Gate)
	}
}

// count records an occurrence that never lies in a forwarding window.
func (lo *lowerer) count(v ir.Value) {
	if v == nil {
		return
	}
	if id := ir.ValueID(v); id >= 0 {
		lo.uses[id]++
	}
}

// singleUse reports whether v has exactly one operand occurrence.
func (lo *lowerer) singleUse(v ir.Value) bool {
	id := ir.ValueID(v)
	return id >= 0 && lo.uses[id] == 1
}

// private reports whether v is a var or alloc whose register only ld, st
// and free address (rule 1).
func (lo *lowerer) private(v ir.Value) bool {
	in, ok := v.(*ir.Inst)
	if !ok || lo.mem == nil || (in.Op != ir.OpVar && in.Op != ir.OpAlloc) {
		return false
	}
	id := ir.ValueID(in)
	return id >= 0 && lo.addressedOnly(int32(id))
}

// addressedOnly reports whether every occurrence of the var or alloc with
// the given ID is a ld, st or free address.
func (lo *lowerer) addressedOnly(id int32) bool {
	return lo.uses[id] == lo.mem[id].addr
}

// forwardedTo returns the register a value's users read in its place: the
// var's register for a forwarded load (rule 1), -1 for everything else.
func (lo *lowerer) forwardedTo(id int) int32 {
	if lo.mem == nil {
		return -1
	}
	if l := &lo.mem[id]; l.fwd != 0 && l.win == lo.uses[id] && lo.addressedOnly(l.fwd-1) {
		return l.fwd - 1
	}
	return -1
}
