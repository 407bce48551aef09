package bytecode

import "llhd/internal/ir"

// # The forwarding plan
//
// Lowering forwards values instead of transcribing the IR one instruction
// at a time. Nine rewrites, each with the condition that makes it sound;
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
//  5. Initialisation only where a load sees it. A private var or alloc
//     emits nothing when no load can read the value it starts with
//     (planInits): on every path from the var instruction to a load of it
//     there is a store to it. The register then holds whatever it held,
//     and every load reads a stored value. Loads are all that read a
//     private var's register, forwarded ones included: they read it in
//     their window, where nothing writes it.
//  6. Branches on the compare itself. A conditional br whose condition is
//     an integer eq, neq, ult, ugt, ule or uge, or an i1 not, becomes one
//     opBrEq, opBrUlt or opBranch on the compare's operands (swapped, and
//     the targets swapped, as the table fusedBranches says), iff the
//     condition's only use is the branch and it lowered to exactly the one
//     Instr before the branch. Then its register has no reader, and
//     nothing executes between the compare and the branch, so the operands
//     hold what the compare would have read (a forwarded load's var is
//     not stored in between).
//  7. Jumps that take their target's branch. After threading, a jump whose
//     target is a branch (plain or fused) becomes a copy of that branch.
//     Branch targets are absolute and nothing executes in between, so the
//     copy goes where the jump and the branch would have; it is still a
//     transfer run counts against maxJumps.
//  8. Replicate runs in splice chains. Consecutive opInsSCat pieces of one
//     source and one width at consecutive offsets — what {k{x}} lowers
//     to — are one run, spliced in one step: the source's low n bits
//     repeated k times. A chain holding one becomes an opInsSRep, whose
//     run record overwrites the piece record where it is no longer.
//     Merging adjacent pieces that do not overlap one another cannot
//     change what a later piece overwrites.
//  9. One probe per signal and block. A prb of a signal value that an
//     earlier prb of the same block probed emits nothing, and its users
//     read the earlier probe's register. A signal only changes between
//     deltas: a drive lands in a later delta at the earliest, and wait,
//     which ends an activation, is a terminator, so a block runs from its
//     head to its terminator within one activation. Whenever the block
//     runs, both probes read the same value, and the earlier one writes
//     its register first, so that register holds what the later one would
//     have written wherever the later one's users read it. The earlier
//     probe must keep its register: each reuse counts as a use of it, so
//     that rule 2 does not redirect it into a var's register.
//
// Edge moves. The phis of a block are one parallel copy on each edge into
// it. Lowering leaves out every move of a register onto itself — an edge
// left with none needs no stub (edgeEnter) and may fall through (rule 3)
// — and orders the rest (sequence) so that each register is written only
// after every read of it: one opMoves, one plain copy per move. When all
// the moves left read one another's destinations, they form cycles, and
// one destination is first saved in the scratch register, one past the
// numbering, whose readers then read it instead.
//
// "Register file = value ID" stands: a forwarded load's register, a
// coalesced value's, a fused link's, a fused compare's and a reused
// probe's simply go unwritten, a var without initialisation starts out
// unwritten, and nothing but reg maps a value to a register. The one
// register without a value is the scratch register, in a unit whose edge
// moves hold a cycle.
//
// The plan is dense arrays indexed by value ID, filled by the one walk
// newLowerer makes over the unit: no map. uses is always there (rules 4
// and 6 need it); mem is allocated when the walk meets the first memory
// instruction, so a unit without one pays one counter increment per
// operand and nothing else. Only such a unit records rule 5's events (its
// vars, and their loads and stores, with their blocks) and runs rule 5's
// analysis over them, four words per block for every 64 private vars.
// Likewise probes is allocated at the first prb. Rules 7 and 8 rewrite
// the finished code.

// memPlan is the plan entry of a value that takes part in rules 1, 2
// and 5.
type memPlan struct {
	// addr counts a var/alloc's occurrences as the address of a ld, st or
	// free: the var is private when these are all its occurrences.
	addr int32
	// at is a walk position: of the last write to its register seen so
	// far for a var/alloc, of the load itself for a ld.
	at int32
	// ld of a var/alloc only: that var's register + 1, and how many of the
	// load's occurrences fell inside its forwarding window. A var or alloc
	// has no fwd; rule 5 keeps its bit + 1 in win, and leaves win > 0 when
	// no load sees its initial value. A terminator has neither; rule 5
	// keeps its block's index in win.
	fwd int32
	win int32
}

// tick returns the next walk position (> 0).
func (lo *lowerer) tick() int32 {
	lo.pos++
	return lo.pos
}

// memOf returns the memory plan, allocating it on first use, along with
// room for rule 5's events at a guess of two per block.
func (lo *lowerer) memOf() []memPlan {
	if lo.mem == nil {
		lo.mem = make([]memPlan, lo.num.Len())
		lo.inits = make([]initEvent, 0, 2*len(lo.unit.Blocks))
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
		id := ir.ValueID(in)
		lo.memOf()[id].at = lo.tick()
		lo.inits = append(lo.inits, initEvent{int32(id), lo.block, in.Op})
	case ir.OpPrb:
		lo.planProbe(in)
	case ir.OpLd, ir.OpSt, ir.OpFree:
		mem := lo.memOf()
		args = args[1:]
		if addr = ir.ValueID(in.Args[0]); addr >= 0 {
			lo.uses[addr]++
			mem[addr].addr++
			if v, ok := in.Args[0].(*ir.Inst); ok && in.Op != ir.OpFree && (v.Op == ir.OpVar || v.Op == ir.OpAlloc) {
				lo.inits = append(lo.inits, initEvent{int32(addr), lo.block, in.Op})
				if in.Op == ir.OpLd {
					mem[ir.ValueID(in)] = memPlan{at: lo.tick(), fwd: int32(addr) + 1}
				}
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

// planProbe records a prb for rule 9: the first probe of its signal in
// the block, or a reuse of that one, which then counts as a use of it.
func (lo *lowerer) planProbe(in *ir.Inst) {
	sig, id := ir.ValueID(in.Args[0]), ir.ValueID(in)
	if sig < 0 {
		return
	}
	if lo.probes == nil {
		lo.probes = make([]int32, lo.num.Len())
	}
	if f := lo.probes[sig]; f > 0 && lo.num.Value(int(f-1)).(*ir.Inst).Block() == in.Block() {
		lo.probes[id] = -f
		lo.uses[f-1]++
		return
	}
	lo.probes[sig] = int32(id) + 1
}

// reusedProbe returns the register a reused probe's users read in its
// place (rule 9): the earlier probe's, -1 for everything else.
func (lo *lowerer) reusedProbe(id int) int32 {
	if lo.probes == nil || lo.probes[id] >= 0 {
		return -1
	}
	return -lo.probes[id] - 1
}

// initEvent is what rule 5 looks at of an instruction the walk met: a var
// or alloc (v is its value ID), or a ld or st of one (v is the var's), and
// the block it stands in.
type initEvent struct {
	v, block int32
	op       ir.Opcode
}

// planInits finds the private vars and allocs whose initial value no
// load can see (rule 5), from the events the walk recorded, and leaves
// their win > 0. It is a forward may-analysis over the blocks: a var is
// fresh from its own instruction up to a store to it, and fresh at the
// head of a block when it is fresh at the end of some predecessor. A load
// of a fresh var sees the initial value. Nothing is fresh at the unit's
// entry: a var dominates its loads. One machine word carries 64 vars
// through the blocks, so the analysis runs once per 64 vars.
func (lo *lowerer) planInits() {
	mem, blocks := lo.mem, lo.unit.Blocks
	nvars := 0
	for _, ev := range lo.inits {
		if (ev.op == ir.OpVar || ev.op == ir.OpAlloc) && lo.addressedOnly(ev.v) {
			nvars++
			mem[ev.v].win = int32(nvars)
		}
	}
	if nvars == 0 {
		return
	}
	for k, b := range blocks {
		t := b.Terminator()
		if t == nil {
			// Not a successor anyone can name: every var keeps its
			// initialisation.
			for _, ev := range lo.inits {
				mem[ev.v].win = 0
			}
			return
		}
		mem[ir.ValueID(t)].win = int32(k)
	}
	// Per block: fresh at the head; fresh at the end of the block's own
	// instructions (gen); written by them (kill); loaded by them before any
	// write (exposed). Then the vars a load sees the initial value of.
	nb := len(blocks)
	sets := make([]uint64, 4*nb+(nvars+63)/64)
	head, gen, kill, exposed := sets[:nb], sets[nb:2*nb], sets[2*nb:3*nb], sets[3*nb:4*nb]
	seen := sets[4*nb:]
	for word := range seen {
		clear(sets[:4*nb])
		for _, ev := range lo.inits {
			v := mem[ev.v].win - 1 - int32(64*word)
			if v < 0 || v >= 64 {
				continue
			}
			k, m := ev.block, uint64(1)<<v
			switch ev.op {
			case ir.OpLd:
				if gen[k]&m != 0 {
					seen[word] |= m
				} else if kill[k]&m == 0 {
					exposed[k] |= m
				}
			case ir.OpSt:
				gen[k] &^= m
				kill[k] |= m
			default:
				gen[k] |= m
				kill[k] |= m
			}
		}
		for changed := true; changed; {
			changed = false
			for k, b := range blocks {
				out := gen[k] | head[k]&^kill[k]
				for _, s := range b.Succs() {
					if s.Unit() != lo.unit {
						continue // lowerBlocks rejects the branch
					}
					if next := &head[mem[ir.ValueID(s.Terminator())].win]; out&^*next != 0 {
						*next |= out
						changed = true
					}
				}
			}
		}
		for k := range blocks {
			seen[word] |= head[k] & exposed[k]
		}
	}
	for _, ev := range lo.inits {
		if v := mem[ev.v].win - 1; v >= 0 && (ev.op == ir.OpVar || ev.op == ir.OpAlloc) && seen[v/64]&(1<<(v%64)) != 0 {
			mem[ev.v].win = 0
		}
	}
}

// initUnseen reports whether no load sees the initial value of the var or
// alloc in (rule 5): it need not be written.
func (lo *lowerer) initUnseen(in *ir.Inst) bool {
	return lo.mem != nil && lo.mem[ir.ValueID(in)].win > 0
}
