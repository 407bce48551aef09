package bytecode

import (
	"slices"

	"llhd/internal/ir"
)

// # The forwarding plan
//
// Lowering forwards values instead of transcribing the IR one instruction
// at a time. Fourteen rewrites, each with the condition that makes it sound;
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
//  3. Fall-through and threading. An unconditional br to the next block
//     in layout emits its edge moves, if any, and no jump, and a jump or
//     branch whose target is a jump goes where that jump goes (maxThread
//     hops). Only forward transfers to the very next pc disappear, and
//     pc otherwise only grows, so every cycle keeps a jump or branch that
//     run counts against maxJumps. Then what no transfer, fall-through or
//     resume point reaches from the entry is dropped (compact), in order,
//     so no transfer changes direction and nothing dispatched changes.
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
//  9. One probe per signal and temporal region. A prb of a signal value
//     that an earlier prb of the same block probed emits nothing, and its
//     users read the earlier probe's register; so does a block's first prb
//     of it when the nearest block dominating it that probes the signal
//     lies in its temporal region (§4.3.1, ir.TemporalRegions), whose
//     probe it then reads. A signal only changes between deltas: a drive
//     lands in a later delta at the earliest, and only a wait, a
//     terminator, ends an activation. A block runs from its head to its
//     terminator within one activation, and no path from a block to one
//     of its region that it dominates crosses a wait without passing the
//     first block again. So whenever the later probe runs, the earlier
//     one ran last in the same activation, read the same value and wrote
//     its register first. That register must hold it for as long as a
//     reuse's users read it: each reuse counts as a use of the earlier
//     probe, so that rule 2 does not redirect it into a var's register,
//     and rule 11 counts the earlier probe live wherever a reuse is read,
//     so that no web writes its register in between.
// 10. Late placement. An instruction that lowers to one in-place integer
//     Instr, which cannot fail (integer binary ops but division and
//     modulo, compares, not and neg, exts and inss on integer values;
//     sinkable), and that is not a constant, reads no var or forwarded
//     load (a store may write that register in between), is not the
//     value of a store or a splice link rules 2 and 4 may fuse, is
//     emitted just before its first user in the latest block that
//     dominates all its uses (a phi reads at the end of the edge's
//     predecessor) and lies in no loop its own block is outside. Then,
//     of the blocks dominating that one, it takes the first that is not
//     entered by an unconditional br alone, unless it is that block's
//     condition: a block so entered runs whenever the block before it
//     does, and with nothing ahead of its branch a jump to it takes the
//     branch (rule 7). The unit must be strict SSA — every use dominated
//     by its definition, which the plan checks, and otherwise plans
//     neither rule 10 nor 11 — and its loops natural, or rule 10 does
//     not fire. Sound because the operands are SSA values: any path from
//     the instruction's old place to the new one that wrote an operand
//     again would run the old place again too, or would reach a use
//     without passing the old place, which dominates it. A path that no
//     longer runs the instruction runs none of its users. Several
//     instructions placed before one user go in the order of the
//     dominator tree's preorder, each after what it reads, and a br's
//     condition last, where rule 6 fuses it; none goes between two
//     instructions rules 2, 4 or 6 fuse, but before the first of them.
//     ECM hoists a lowered unit's compares ahead of the decode chain;
//     this places each in front of its branch again.
// 11. Phi webs share one register. A phi and each operand join one web
//     when no two members of the two interfere; every member of a web
//     reads and writes one register, its representative's, so that the
//     phi's moves are moves of a register onto itself, which the edge
//     moves leave out. Two values interfere when one is live right after
//     the other is defined — in strict SSA, when their live ranges meet
//     (Boissinot et al., CGO 2009) — and two phis of one block always
//     do, being written at once on every edge in. Liveness is over the
//     code in the order it is emitted, rule 10's placements made, and
//     counts a phi's operand live at the end of the edge's predecessor,
//     after the terminator read what it reads: the moves run there, and
//     a member written there overwrites only what no later instruction
//     of that path reads. Constants, a unit's inputs and outputs, vars,
//     forwarded loads, reused probes and signals join no web: their
//     registers are the template's, the var's, or another value's. A phi
//     nobody reads gets no moves.
// 12. Zero-extensions read through. An integer inss iN %c, %x, 0, w with
//     %c a constant 0 and w the width of %x emits nothing when its only
//     use is the instruction lowered right after it (after rule 10's
//     placements) and that instruction reads no more of it than the
//     payload bits (readsPayload): the operands of the in-place integer
//     arithmetic, shifts and compares, of not and neg, of an integer
//     exts, the source of an integer inss, the index of extf.d and
//     insf.d; that instruction reads %x's register instead. The two
//     payloads are equal, and nothing runs in between. A compare reads
//     payloads alone because ir.CheckShape gave its two operands one
//     type, so their widths are equal without a test, and so is w no
//     wider than N; a compare fused into its branch (rule 6) keeps the
//     operands it read, so br.eq reads %x too. A link of a splice chain
//     rule 4 fuses stays one: read through, it would save no dispatch.
// 13. Edge waits tested in one dispatch. A conditional br on
//     and i1 (neq i1 %old, %new), %new — Moore's posedge test — becomes one
//     br.rise, which probes the signal, takes the true target iff the
//     register of %old held 0 and the probe reads 1, and leaves the probe
//     in that register; the and, the neq and %new's prb emit nothing.
//     Conditions (edgeWait, planRises): %new = prb %s of an i1 signal
//     stands in the br's block, the check block, and the neq and the and
//     are all that read it; %old = prb %s stands in the head block, whose
//     wait resumes in the check block, and the neq is all that reads it;
//     the neq and the and stand in the check block and are read by nothing
//     else; neither probe reuses another (rule 9), and the head's wait is
//     the check block's only way in. Then the br.rise computes what the
//     three did: a signal only changes between deltas, so the probe reads
//     what %new read, and nothing but the head's prb and the br.rise writes
//     %old's register, so it holds what the neq read. Whenever the check
//     block runs, the head's probe ran last or was skipped (below) where
//     it would have read what the register holds. Back edges skip the
//     re-probe: a br's transfer into the head from a block that the check
//     block dominates and that lies in its temporal region (the
//     transfers of a br alone: a wait's resumption ends an activation)
//     lands one Instr past the head's probe, when that probe is the head's
//     first Instr. The last br.rise ran in the same activation (rule 9's
//     argument, ir.TemporalRegions), so the register holds what the probe
//     would read. Negedge (and with a not of %new), any-change and
//     multi-event waits keep their code.
// 14. Truncations where they are computed. An integer exts iN %x, 0, n
//     emits nothing when %x has no other reader and lowered to the one
//     Instr just before it (after rule 10's placements), an add, sub, mul,
//     and, or, xor, shl, not or neg (truncates); that Instr then writes the
//     exts's register at width n. The low n bits of these depend on the
//     low n bits of their operands alone (and a shift's amount, read
//     whole), so the narrower result is the truncation of the wider one,
//     and nothing runs in between. Never a shr or ashr (ashr takes its
//     sign bit at the width), a compare or the generic path. The exts is
//     then the last Instr's value, which rules 2, 6 and 14 may take in
//     turn; a not that rule 14 narrowed to one bit is no i1 not for rule
//     6, which tests its whole operand.
//
// Edge moves. The phis of a block are one parallel copy on each edge into
// it. Lowering leaves out every move of a register onto itself and of a
// phi nobody reads — an edge left with none needs no stub (edgeEnter) —
// and orders the rest (sequence) so that each register is written only
// after every read of it: one opMoves, one plain copy per move. When all
// the moves left read one another's destinations, they form cycles, and
// one destination is first saved in the scratch register, one past the
// numbering, whose readers then read it instead. An unconditional br to
// the next block in layout falls through after its moves (rule 3).
//
// "Register file = value ID" stands, but for rule 11: a web's members
// read and write the register of its representative, one of them. A
// forwarded load's register, a coalesced value's, a fused link's, a fused
// compare's, a reused probe's, a zero-extension's read through, the probe,
// neq and and a br.rise absorbs, and the value whose truncation rule 14
// computes in its place simply go unwritten, a var without
// initialisation starts out unwritten, and nothing but reg maps a value
// to a register. The one register without a value is the scratch
// register, in a unit whose edge moves hold a cycle.
//
// The plan is dense arrays indexed by value ID, filled by the one walk
// newLowerer makes over the unit: no map. uses is always there (rules 4
// and 6 need it); mem is allocated when the walk meets the first memory
// instruction, so a unit without one pays one counter increment per
// operand and nothing else. Only such a unit records rule 5's events (its
// vars, and their loads and stores, with their blocks) and runs rule 5's
// analysis over them, four words per block for every 64 private vars.
// Likewise probes is allocated at the first prb. Rules 7 and 8 rewrite
// the finished code. Rules 10 and 11 are planned (planSSA) over one
// ir.DomTree and tables flattened from the unit by value ID, only for a
// process or function of more than one block in which the walk saw one
// of them can fire: a phi for rule 11; for rule 10, a conditional br and
// a sinkable instruction read in another block or by a br it is not
// right before. Rule 9 plans across blocks (planProbes) over the same
// tree and the temporal regions built from it, first, and only when the
// walk saw a signal probed first in two blocks, the second one that no
// wait resumes in. Rule 13 scans the terminators of a process with a prb
// (edgeWaits) and, for an edge wait it finds, builds the same tree, after
// rule 9, and the temporal regions (planRises). A unit without any of
// these allocates nothing for them. Rules 12 and 14 are decided as the
// inss or exts is lowered.

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
	case ir.OpPhi:
		lo.hasPhi = true
	case ir.OpBr:
		lo.condBr = lo.condBr || len(in.Args) == 1
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
	for j, a := range args {
		id := ir.ValueID(a)
		if id < 0 {
			continue
		}
		lo.uses[id]++
		if !lo.late {
			lo.noteLate(in, j, a)
		}
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

// noteLate records whether rule 10 may have something to do for operand
// j of in, a: move it into another block, or next to the branch it
// steers.
func (lo *lowerer) noteLate(in *ir.Inst, j int, a ir.Value) {
	x, ok := a.(*ir.Inst)
	if !ok || !sinkable(x) {
		return
	}
	at := in.Block()
	if in.Op == ir.OpPhi {
		at = in.Dests[j]
	}
	lo.late = x.Block() != at || in.Op == ir.OpBr && x != lo.prev
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
// the block, or a reuse of that one, which then counts as a use of it. A
// signal's first probe in a second block marks the unit for planProbes,
// unless a wait resumes in that block: a block that starts a temporal
// region reuses no probe of another.
func (lo *lowerer) planProbe(in *ir.Inst) {
	sig, id := ir.ValueID(in.Args[0]), ir.ValueID(in)
	if sig < 0 {
		return
	}
	if lo.probes == nil {
		lo.probes = make([]int32, lo.num.Len())
	}
	if f := lo.probes[sig]; f > 0 {
		if lo.num.Value(int(f-1)).(*ir.Inst).Block() == in.Block() {
			lo.probes[id] = -f
			lo.uses[f-1]++
			return
		}
		lo.probesAcross = lo.probesAcross || !lo.resumesIn(in.Block())
	}
	lo.probes[sig] = int32(id) + 1
}

// resumesIn reports whether a wait of the unit resumes in block b. The
// wait targets are collected the first time it is asked.
func (lo *lowerer) resumesIn(b *ir.Block) bool {
	if lo.resumes == nil {
		lo.resumes = []*ir.Block{}
		for _, x := range lo.unit.Blocks {
			if t := x.Terminator(); t != nil && t.Op == ir.OpWait {
				lo.resumes = append(lo.resumes, t.Dests...)
			}
		}
	}
	return slices.Contains(lo.resumes, b)
}

// planProbes widens rule 9 from the block to the temporal region: a
// block's first probe of a signal reuses the nearest probe of it in a
// dominating block of the same region. It walks the dominator tree in
// preorder, keeping in probes, per signal, the probe the block at hand
// may reuse and, per probe it emits, the one that probe hid; a probe
// whose block does not dominate the one at hand has had its subtree
// walked, and goes. The regions are computed when the first such probe
// turns up.
func (lo *lowerer) planProbes(dom *ir.DomTree) {
	var trs *ir.TRMap
	probes := lo.probes
	for i, f := range probes {
		if f > 0 {
			probes[i] = 0 // the walk's entries by signal start over
		}
	}
	blockOf := func(f int32) int { return dom.Index(lo.num.Value(int(f - 1)).(*ir.Inst).Block()) }
	for _, d := range dom.Preorder() {
		for _, in := range dom.Block(int(d)).Insts {
			if in.Op != ir.OpPrb {
				continue
			}
			sig, id := ir.ValueID(in.Args[0]), ir.ValueID(in)
			if sig < 0 || probes[id] < 0 {
				continue
			}
			f := probes[sig]
			for f > 0 && !dom.DominatesIndex(blockOf(f), int(d)) {
				f = probes[f-1]
			}
			if f > 0 && trs == nil {
				trs = ir.TemporalRegions(dom)
			}
			if f > 0 && trs.OfIndex(blockOf(f)) == trs.OfIndex(int(d)) {
				probes[id] = -f
				lo.uses[f-1]++
				probes[sig] = f
				continue
			}
			probes[id] = f // the probe it hides, >= 0: not a reuse
			probes[sig] = int32(id) + 1
		}
	}
}

// reusedProbe returns the register a reused probe's users read in its
// place (rule 9): the probe it reuses, through a first probe of its block
// that reuses one in turn; -1 for everything else.
func (lo *lowerer) reusedProbe(id int) int32 {
	if lo.probes == nil || lo.probes[id] >= 0 {
		return -1
	}
	for lo.probes[id] < 0 {
		id = int(-lo.probes[id] - 1)
	}
	return int32(id)
}

// rise is an edge wait that rule 13 lowers as one br.rise: the br ending
// check tests and (neq old, new), new, where new probes a 1-bit signal in
// check and old probes it in head, whose wait resumes in check.
type rise struct {
	check, head        *ir.Block
	old, new, neq, and *ir.Inst
	// slot: the signal slot the br.rise probes. first: head's probe of
	// old is the first Instr of head, so a transfer that skips it lands
	// one Instr later.
	slot  int32
	first bool
}

// edgeWaits returns the edge waits rule 13 may lower, one scan of the
// terminators; planRises keeps those it does lower.
func (lo *lowerer) edgeWaits() []rise {
	var out []rise
	for _, c := range lo.unit.Blocks {
		if r, ok := lo.edgeWait(c); ok {
			out = append(out, r)
		}
	}
	return out
}

// edgeWait matches the edge wait tested at the end of block c: a br on
// and i1 (neq i1 %old, %new), %new (either operand order), the and and
// the neq in c and read by nothing else, %new = prb %s in c and read by
// the two alone, %old = prb %s read by the neq alone, in the block whose
// wait resumes in c; neither probe reuses another (rule 9).
func (lo *lowerer) edgeWait(c *ir.Block) (rise, bool) {
	br := c.Terminator()
	if br == nil || br.Op != ir.OpBr || len(br.Args) != 1 {
		return rise{}, false
	}
	and, ok := br.Args[0].(*ir.Inst)
	if !ok || and.Op != ir.OpAnd || and.Block() != c || !lo.singleUse(and) {
		return rise{}, false
	}
	for k := range and.Args {
		neq, ok1 := and.Args[k].(*ir.Inst)
		nw, ok2 := and.Args[1-k].(*ir.Inst)
		if !ok1 || !ok2 || neq.Op != ir.OpNeq || neq.Block() != c || !lo.singleUse(neq) ||
			nw.Op != ir.OpPrb || nw.Block() != c || lo.uses[ir.ValueID(nw)] != 2 || !nw.Ty.IsInt() || nw.Ty.Width != 1 {
			continue
		}
		j := slices.Index(neq.Args, ir.Value(nw))
		if j < 0 {
			continue
		}
		old, ok := neq.Args[1-j].(*ir.Inst)
		if !ok || old.Op != ir.OpPrb || old.Args[0] != nw.Args[0] || !lo.singleUse(old) {
			continue
		}
		head := old.Block()
		if w := head.Terminator(); w == nil || w.Op != ir.OpWait || w.Dests[0] != c {
			continue
		}
		if lo.reusedProbe(ir.ValueID(old)) >= 0 || lo.reusedProbe(ir.ValueID(nw)) >= 0 {
			continue
		}
		return rise{check: c, head: head, old: old, new: nw, neq: neq, and: and}, true
	}
	return rise{}, false
}

// planRises keeps the edge waits rule 13 lowers: those that still match
// after planProbes counted its reuses, and whose check block the head's
// wait alone enters, so that old's register holds what head's probe last
// read, or what the check's br.rise probed after it. The tree and the
// temporal regions stay for skips.
func (lo *lowerer) planRises(dom *ir.DomTree) {
	kept := lo.rises[:0]
	for _, r := range lo.rises {
		preds := dom.Preds(dom.Index(r.check))
		if _, ok := lo.edgeWait(r.check); ok && len(preds) == 1 && int(preds[0]) == dom.Index(r.head) {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		lo.rises = nil
		return
	}
	lo.rises, lo.dom, lo.trs = kept, dom, ir.TemporalRegions(dom)
}

// riseOf returns the edge wait in is part of (rule 13), nil for none.
func (lo *lowerer) riseOf(v ir.Value) *rise {
	for k := range lo.rises {
		if r := &lo.rises[k]; v == r.old || v == r.new || v == r.neq || v == r.and {
			return r
		}
	}
	return nil
}

// skips returns the edge wait whose head probe a br's transfer from block
// from to block to skips (rule 13): to is its head, and from lies in the
// check block's temporal region, dominated by it.
func (lo *lowerer) skips(from, to *ir.Block) *rise {
	for k := range lo.rises {
		r := &lo.rises[k]
		if r.head == to && lo.dom.Dominates(r.check, from) && lo.trs.Of(from) == lo.trs.Of(r.check) {
			return r
		}
	}
	return nil
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
		mem[ir.ValueID(b.Terminator())].win = int32(k)
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

// sinkable reports whether in's opcode and types let rule 10 move it: it
// lowers to one in-place integer Instr, which cannot fail.
func sinkable(in *ir.Inst) bool {
	switch in.Op {
	case ir.OpExtS, ir.OpInsS:
		return !in.Ty.IsSignal() && in.Args[0].Type().IsInt()
	case ir.OpNot, ir.OpNeg:
		return in.Ty.IsInt() || in.Ty.IsEnum()
	}
	if int(in.Op) < len(intBinOps) && intBinOps[in.Op] != opNop {
		ty := in.Args[0].Type()
		return ty.IsInt() || ty.IsEnum()
	}
	return false
}

// ssa is the scratch state of rules 10 and 11: one dominator tree, and
// the unit flattened into tables by value ID and by block, which the
// analyses walk instead of the IR. A block goes by its index in the tree
// (the reachable ones first, in reverse postorder) unless a name says
// layout. The numbering gives a unit's instructions consecutive IDs in
// layout order, so instruction i of a block is the block's first ID + i.
type ssa struct {
	lo     *lowerer
	dom    *ir.DomTree
	nreach int32
	domOf  []int32 // layout position -> block
	// By block: the IDs of its first instruction and of its terminator.
	first, last []int32
	// By value ID: an instruction's block (-1 for any other value), its
	// kind, and where its operands start in ops (the next ID's start ends
	// them). An operand is a value ID (-1: a value without one); a
	// process or function holds no reg or del, so the operands are Args
	// and then TimeArg, and a phi's are followed by the blocks they
	// arrive from (-1: an unreachable one).
	blk  []int32
	kind []uint8
	opAt []int32
	ops  []int32
	// Rule 10, by value ID: the block an instruction is emitted in (-1:
	// where it stands); of an instruction, the first instruction placed
	// just before it (-1: none), and of a placed one, the next placed
	// before the same instruction.
	home, placedAt, nextPlaced []int32
	// Rule 10, by block: the header of the innermost loop holding it (-1:
	// none), and by header, the header of the loop around that one.
	loopHead, loopParent []int32
}

// Instruction kinds, as far as rules 10 and 11 look.
const (
	kSink   uint8 = 1 << iota // sinkable
	kPhi                      // phi
	kSt                       // st
	kInss                     // integer inss (sinkable)
	kBr                       // unconditional br
	kCondBr                   // conditional br
	// What place learns of a value's uses.
	kStored  // stored by a st: rule 2 may coalesce it
	kSpliced // the target of an integer inss: rule 4 may chain it
)

// planSSA plans rules 10 and 11 for a process or function of more than
// one block in which the walk saw that one of them can fire: rule 11
// where there is a phi, rule 10 where there is a conditional br (without
// one, every block runs as often as the blocks dominating it) and an
// instruction it may move away from its user. Every block ends in a
// terminator (ir.CheckShape); it plans neither where a use is not
// dominated by its definition.
func (lo *lowerer) planSSA(dom *ir.DomTree) {
	s := &ssa{lo: lo, dom: dom}
	s.nreach = int32(s.dom.NumReachable())
	if !s.flatten() || !s.strict() {
		return
	}
	if lo.late && lo.condBr && s.loops() {
		s.place()
	}
	if lo.hasPhi {
		s.coalesce()
	}
}

// flatten fills the tables of the unit. It reports false for a unit whose
// numbering it cannot rely on, that reads an instruction of another, or
// whose phis are not each block's leading run.
func (s *ssa) flatten() bool {
	lo, n := s.lo, s.lo.num.Len()
	nb := len(lo.unit.Blocks)
	ints := make([]int32, 5*n+1+3*nb)
	s.blk, s.opAt, s.home = ints[:n], ints[n:2*n+1], ints[2*n+1:3*n+1]
	s.placedAt, s.nextPlaced = ints[3*n+1:4*n+1], ints[4*n+1:5*n+1]
	s.domOf, s.first, s.last = ints[5*n+1:5*n+1+nb], ints[5*n+1+nb:5*n+1+2*nb], ints[5*n+1+2*nb:]
	s.kind = make([]uint8, n)
	s.ops = make([]int32, 0, n+n/2)
	for i := range s.blk {
		s.blk[i], s.home[i], s.placedAt[i] = -1, -1, -1
	}
	id := int32(len(lo.unit.Inputs) + len(lo.unit.Outputs))
	operand := func(v ir.Value) bool {
		x := ir.ValueID(v)
		if in, ok := v.(*ir.Inst); ok && (in.Block() == nil || in.Block().Unit() != lo.unit) {
			return false
		}
		s.ops = append(s.ops, int32(x))
		return true
	}
	for k, b := range lo.unit.Blocks {
		d := int32(s.dom.Index(b))
		s.domOf[k], s.first[d], s.last[d] = d, id, id+int32(len(b.Insts))-1
		for i, in := range b.Insts {
			if ir.ValueID(in) != int(id) || in.Op == ir.OpPhi && i > 0 && b.Insts[i-1].Op != ir.OpPhi {
				return false
			}
			s.blk[id], s.opAt[id] = d, int32(len(s.ops))
			for _, a := range in.Args {
				if !operand(a) {
					return false
				}
			}
			if in.TimeArg != nil && !operand(in.TimeArg) {
				return false
			}
			switch {
			case in.Op == ir.OpPhi:
				s.kind[id] = kPhi
				for _, pb := range in.Dests {
					p := int32(s.dom.Index(pb))
					if p >= s.nreach {
						p = -1
					}
					s.ops = append(s.ops, p)
				}
			case in.Op == ir.OpSt:
				s.kind[id] = kSt
			case in.Op == ir.OpBr && len(in.Args) == 0:
				s.kind[id] = kBr
			case in.Op == ir.OpBr:
				s.kind[id] = kCondBr
			case sinkable(in):
				s.kind[id] = kSink
				if in.Op == ir.OpInsS {
					s.kind[id] |= kInss
				}
			}
			id++
		}
	}
	s.opAt[n] = int32(len(s.ops))
	return int(id) == n
}

// operands returns the operands of instruction id; for a phi, its values
// and then the blocks they arrive from.
func (s *ssa) operands(id int32) []int32 {
	return s.ops[s.opAt[id]:s.opAt[id+1]]
}

// strict reports whether every operand of a reachable instruction is
// defined where it dominates the use: earlier in the block, in a
// dominating block, or for a phi, in a block dominating the edge's
// predecessor.
func (s *ssa) strict() bool {
	for d := int32(0); d < s.nreach; d++ {
		for id := s.first[d]; id <= s.last[d]; id++ {
			ops := s.operands(id)
			if s.kind[id] == kPhi {
				vals, preds := ops[:len(ops)/2], ops[len(ops)/2:]
				for j, x := range vals {
					if p := preds[j]; p >= 0 && !s.defines(x, p, s.last[p]+1) {
						return false
					}
				}
				continue
			}
			for _, x := range ops {
				if !s.defines(x, d, id) {
					return false
				}
			}
		}
	}
	return true
}

// defines reports whether value x is defined before instruction at of
// block d on every path there: it is not an instruction, or one that
// stands earlier in d or in a reachable block dominating d.
func (s *ssa) defines(x, d, at int32) bool {
	if x < 0 {
		return true
	}
	switch b := s.blk[x]; {
	case b < 0:
		return true
	case b == d:
		return x < at
	default:
		return b < s.nreach && s.dom.DominatesIndex(int(b), int(d))
	}
}

// loops finds the natural loops of the unit (rule 10 places nothing in a
// loop its instruction was outside of) and reports whether they are all
// there is: every edge back to a block no later in reverse postorder goes
// to a header that dominates its source. An irreducible unit is left as
// it is.
func (s *ssa) loops() bool {
	dom, nr := s.dom, int(s.nreach)
	for i := 0; i < nr; i++ {
		for _, p := range dom.Preds(i) {
			if int(p) >= i && int(p) < nr && !dom.DominatesIndex(i, int(p)) {
				return false
			}
		}
	}
	ints := make([]int32, 2*nr)
	s.loopHead, s.loopParent = ints[:nr], ints[nr:]
	for i := range ints {
		ints[i] = -1
	}
	// Inner headers lie deeper in the dominator tree than outer ones, so
	// the tree's preorder backwards meets them first; a loop holds the
	// blocks that reach one of its back edges without passing its header.
	var stack []int32
	pre := dom.Preorder()
	for r := len(pre) - 1; r >= 0; r-- {
		h := pre[r]
		stack = stack[:0]
		for _, t := range dom.Preds(int(h)) {
			if int(t) < nr && dom.DominatesIndex(int(h), int(t)) {
				stack = append(stack, t)
			}
		}
		if len(stack) == 0 {
			continue
		}
		s.loopHead[h] = h
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s.loopHead[b] < 0 {
				s.loopHead[b] = h
			} else {
				// b lies in an inner loop already: h holds the outermost of them.
				for b = s.loopHead[b]; s.loopParent[b] >= 0; b = s.loopParent[b] {
				}
				if b == h {
					continue
				}
				s.loopParent[b] = h
			}
			for _, p := range dom.Preds(int(b)) {
				if int(p) < nr {
					stack = append(stack, p)
				}
			}
		}
	}
	return true
}

// inLoopsOf reports whether every loop holding block c also holds block d.
func (s *ssa) inLoopsOf(c, d int32) bool {
	h := s.loopHead[c]
	if h < 0 {
		return true
	}
	for x := s.loopHead[d]; x >= 0; x = s.loopParent[x] {
		if x == h {
			return true
		}
	}
	return false
}

// entered reports whether block c has one predecessor, which ends in an
// unconditional br: c runs whenever that block does, so moving an
// instruction into it saves nothing, and a jump to it can take its
// branch (rule 7) only when nothing stands before that.
func (s *ssa) entered(c int32) bool {
	preds := s.dom.Preds(int(c))
	return len(preds) == 1 && s.kind[s.last[preds[0]]] == kBr
}

// condOf reports whether y is the condition of block c's conditional br
// and read by nothing else: placed last in c, rule 6 fuses it.
func (s *ssa) condOf(c, y int32) bool {
	t := s.last[c]
	return s.kind[t] == kCondBr && s.ops[s.opAt[t]] == y && s.lo.uses[y] == 1
}

// common returns the closest block dominating both a and b: a, or the
// first block above it that dominates b.
func (s *ssa) common(a, b int32) int32 {
	for !s.dom.DominatesIndex(int(a), int(b)) {
		a = int32(s.dom.IDomIndex(int(a)))
	}
	return a
}

// place makes rule 10's placements. It walks the reachable instructions
// in the dominator tree's preorder backwards, a block's from its
// terminator up, so that every user of a value but a phi is met, and
// placed, before the value; each user adds where it reads the value to
// what is known of the value's uses: the latest block dominating them
// (lca) and the first of them in that block (first, an instruction ID).
// A phi reads its operand at the end of the edge's predecessor, wherever
// anything is placed. The walk's order is the reverse of the one in which
// instructions placed before one anchor are emitted (each after what it
// reads), so each goes to the front of its anchor's list.
func (s *ssa) place() {
	n := s.lo.num.Len()
	ints := make([]int32, 2*n)
	lca, first := ints[:n], ints[n:]
	for i := range lca {
		lca[i] = -1
	}
	use := func(x, d, at int32, user uint8, arg int) {
		if x < 0 || s.kind[x]&kSink == 0 {
			return
		}
		switch {
		case user == kSt && arg == 1:
			s.kind[x] |= kStored
		case user&kInss != 0 && arg == 0:
			s.kind[x] |= kSpliced
		}
		l := lca[x]
		if l < 0 {
			lca[x], first[x] = d, at
			return
		}
		c := s.common(l, d)
		switch {
		case c == l && d == l:
			first[x] = min(first[x], at)
		case c == l:
		case c == d:
			first[x] = at
		default:
			first[x] = s.last[c]
		}
		lca[x] = c
	}
	pre := s.dom.Preorder()
	for _, d := range pre {
		for id := s.first[d]; s.kind[id] == kPhi; id++ {
			ops := s.operands(id)
			vals, preds := ops[:len(ops)/2], ops[len(ops)/2:]
			for j, x := range vals {
				if p := preds[j]; p >= 0 {
					use(x, p, s.last[p], kPhi, j)
				}
			}
		}
	}
	moved := false
	for r := len(pre) - 1; r >= 0; r-- {
		d := pre[r]
		for y := s.last[d]; y >= s.first[d] && s.kind[y] != kPhi; y-- {
			at, where := d, y
			if lca[y] >= 0 && s.kind[y]&kSink != 0 && s.placeable(y) {
				at = lca[y]
				for !s.inLoopsOf(at, d) || at != d && s.entered(at) && !s.condOf(at, y) {
					at = int32(s.dom.IDomIndex(int(at)))
				}
				where = first[y]
				if at != lca[y] {
					where = s.last[at]
				}
				s.home[y] = at
				for where > s.first[at] && s.glued(where) {
					where--
				}
				s.nextPlaced[y], s.placedAt[where] = s.placedAt[where], y
				moved = true
			}
			for j, x := range s.operands(y) {
				use(x, at, where, s.kind[y], j)
			}
		}
	}
	if moved {
		s.schedule()
	}
}

// placeable reports whether rule 10 may move the sinkable instruction y:
// it is not a constant, it reads no var's register, and it is not the
// value of a store or a link of a splice chain that rules 2 and 4 may
// fuse.
func (s *ssa) placeable(y int32) bool {
	lo := s.lo
	if lo.constKnown[y] || s.kind[y]&(kStored|kSpliced) != 0 && lo.uses[y] == 1 {
		return false
	}
	ops := s.operands(y)
	if t := ops[0]; s.kind[y]&kInss != 0 && t >= 0 && s.kind[t]&kInss != 0 && lo.uses[t] == 1 {
		return false
	}
	for _, x := range ops {
		if x < 0 || s.blk[x] < 0 {
			continue
		}
		if op := lo.num.Value(int(x)).(*ir.Inst).Op; op == ir.OpVar || op == ir.OpAlloc || lo.forwardedTo(int(x)) >= 0 {
			return false
		}
	}
	return true
}

// glued reports whether instruction y stays right behind the instruction
// before it in its block, both where they stand, because a rule fuses the
// two: a conditional br and its condition (rule 6), a st and its value
// (rule 2), an integer inss and the inss it splices into (rule 4). An
// instruction placed before y then goes before that one.
func (s *ssa) glued(y int32) bool {
	x := y - 1
	if s.home[y] >= 0 || s.home[x] >= 0 || s.lo.uses[x] != 1 {
		return false
	}
	ops := s.operands(y)
	switch k := s.kind[y]; {
	case k == kCondBr:
		return ops[0] == x
	case k == kSt:
		return ops[1] == x
	case k&kInss != 0:
		return ops[0] == x && s.kind[x]&kInss != 0
	}
	return false
}

// schedule lays the blocks' instructions out in the order lowering emits
// them: an instruction rule 10 moved goes just before its anchor, with
// the others placed there in the order of their lists, except that a
// conditional br's condition goes last, where rule 6 fuses it.
func (s *ssa) schedule() {
	lo := s.lo
	nb := len(lo.unit.Blocks)
	lo.schedAt = make([]int32, nb+1)
	lo.sched = make([]*ir.Inst, 0, lo.num.Len())
	emit := func(id int32) {
		lo.sched = append(lo.sched, lo.num.Value(int(id)).(*ir.Inst))
	}
	for k := range lo.unit.Blocks {
		lo.schedAt[k] = int32(len(lo.sched))
		d := s.domOf[k]
		for y := s.first[d]; y <= s.last[d]; y++ {
			cond := int32(-1)
			for x := s.placedAt[y]; x >= 0; x = s.nextPlaced[x] {
				if y == s.last[d] && s.condOf(d, x) {
					cond = x
					continue
				}
				emit(x)
			}
			if cond >= 0 {
				emit(cond)
			}
			if s.home[y] < 0 {
				emit(y)
			}
		}
	}
	lo.schedAt[nb] = int32(len(lo.sched))
}

// blockInsts returns the instructions of the block at layout position k
// in the order lowering emits them.
func (lo *lowerer) blockInsts(k int) []*ir.Inst {
	if lo.sched == nil {
		return lo.unit.Blocks[k].Insts
	}
	return lo.sched[lo.schedAt[k]:lo.schedAt[k+1]]
}

// webbable reports whether value x may share a register with others
// (rule 11): an instruction of a reachable block whose own Instr writes
// its register, and not a constant, a var, a forwarded load, a reused
// probe, a signal or a phi nobody reads.
func (s *ssa) webbable(x int32) bool {
	lo := s.lo
	if x < 0 || s.blk[x] < 0 || s.blk[x] >= s.nreach || lo.constKnown[x] || lo.uses[x] == 0 {
		return false
	}
	in := lo.num.Value(int(x)).(*ir.Inst)
	switch in.Op {
	case ir.OpVar, ir.OpAlloc, ir.OpSig, ir.OpInst, ir.OpCon:
		return false
	}
	return !in.Ty.IsSignal() && !in.Ty.IsVoid() && lo.forwardedTo(int(x)) < 0 && lo.reusedProbe(int(x)) < 0
}

// coalesce makes rule 11's webs: for every phi in turn, the phi's web and
// each operand's become one when no member of the one interferes with a
// member of the other, and every member reads and writes one register.
// Two values interfere when one is live right after the other is
// defined, which in strict SSA is when their live ranges meet; two phis
// of one block always do. Liveness is taken over the code in the order
// lowering emits it, rule 10's placements made, and over candidates only:
// the phis and the operands that may join them.
func (s *ssa) coalesce() {
	lo, dom, nr := s.lo, s.dom, int(s.nreach)
	// cidx: value ID -> candidate + 1, 0 for none; at the end, register + 1.
	cidx := make([]int32, lo.num.Len())
	var cands, cblk []int32 // candidate -> value ID; its block if a phi, else -1
	add := func(x int32) {
		if cidx[x] == 0 {
			b := int32(-1)
			if s.kind[x] == kPhi {
				b = s.blk[x]
			}
			cands, cblk = append(cands, x), append(cblk, b)
			cidx[x] = int32(len(cands))
		}
	}
	// phis calls f for every phi of a reachable block, in layout order,
	// and every operand of it that arrives from a reachable one.
	phis := func(f func(p, x int32)) {
		for _, d := range s.domOf {
			if d >= s.nreach {
				continue
			}
			for p := s.first[d]; s.kind[p] == kPhi; p++ {
				ops := s.operands(p)
				vals, preds := ops[:len(ops)/2], ops[len(ops)/2:]
				for j, x := range vals {
					if preds[j] >= 0 {
						f(p, x)
					}
				}
			}
		}
	}
	phis(func(p, x int32) {
		if x != p && s.webbable(p) && s.webbable(x) {
			add(p)
			add(x)
		}
	})
	if len(cands) == 0 {
		return
	}
	nc := len(cands)
	w := (nc + 63) / 64
	sets := make([]uint64, (3*nr+nc+1)*w)
	// Per block: ue, the candidates read before any definition in it; def,
	// those it defines; out, those live at its end. Per candidate: live,
	// those live right after its definition (for a phi, after its block's
	// phis). And one scratch set.
	ue, def, out, live := sets[:nr*w], sets[nr*w:2*nr*w], sets[2*nr*w:3*nr*w], sets[3*nr*w:]
	tmp := live[nc*w:]
	bset := func(bs []uint64, i int) []uint64 { return bs[i*w : (i+1)*w] }
	set := func(bs []uint64, c int32) { bs[c/64] |= 1 << (c % 64) }
	unset := func(bs []uint64, c int32) { bs[c/64] &^= 1 << (c % 64) }
	cand := func(x int32) int32 {
		if x < 0 {
			return -1
		}
		if r := lo.reusedProbe(int(x)); r >= 0 {
			x = r
		}
		return cidx[x] - 1
	}
	// scan walks block d from its end up, from the set at, keeping what is
	// live; with rows, it records each candidate's live set, otherwise
	// each it defines, and the operands a phi's moves read at the end of
	// the blocks they arrive from (a phi nobody reads gets no moves).
	scan := func(k int, d int32, at []uint64, rows bool) {
		var sched []*ir.Inst
		n := int(s.last[d]-s.first[d]) + 1
		if lo.sched != nil {
			sched = lo.blockInsts(k)
			n = len(sched)
		}
		for i := n - 1; i >= 0; i-- {
			y := s.first[d] + int32(i)
			if sched != nil {
				y = int32(ir.ValueID(sched[i]))
			}
			c := cidx[y] - 1
			if s.kind[y] == kPhi {
				switch {
				case rows && c >= 0:
					copy(bset(live, int(c)), at)
				case rows:
				default:
					if c >= 0 {
						set(bset(def, int(d)), c)
						unset(at, c)
					}
					if lo.uses[y] == 0 {
						continue
					}
					ops := s.operands(y)
					vals, preds := ops[:len(ops)/2], ops[len(ops)/2:]
					for j, x := range vals {
						if c, q := cand(x), preds[j]; c >= 0 && q >= 0 {
							set(bset(out, int(q)), c)
						}
					}
				}
				continue
			}
			if c >= 0 {
				if rows {
					copy(bset(live, int(c)), at)
				} else {
					set(bset(def, int(d)), c)
				}
				unset(at, c)
			}
			for _, x := range s.operands(y) {
				if c := cand(x); c >= 0 {
					set(at, c)
				}
			}
		}
	}
	for k, d := range s.domOf {
		if d < s.nreach {
			scan(k, d, bset(ue, int(d)), false)
		}
	}
	for changed := true; changed; {
		changed = false
		for d := nr - 1; d >= 0; d-- {
			bout, bue, bdef := bset(out, d), bset(ue, d), bset(def, d)
			for i := range tmp {
				tmp[i] = bue[i] | bout[i]&^bdef[i]
			}
			for _, p := range dom.Preds(d) {
				if int(p) >= nr {
					continue
				}
				pout := bset(out, int(p))
				for i, x := range tmp {
					if x&^pout[i] != 0 {
						pout[i] |= x
						changed = true
					}
				}
			}
		}
	}
	for k, d := range s.domOf {
		if d < s.nreach {
			copy(tmp, bset(out, int(d)))
			scan(k, d, tmp, true)
		}
	}
	interfere := func(x, y int32) bool {
		if cblk[x] >= 0 && cblk[x] == cblk[y] {
			return true
		}
		return live[int(y)*w+int(x/64)]&(1<<(x%64)) != 0 || live[int(x)*w+int(y/64)]&(1<<(y%64)) != 0
	}
	// The webs: a tree of candidates each (parent) and a ring of their
	// members (next).
	ints := make([]int32, 2*nc)
	parent, next := ints[:nc], ints[nc:]
	for i := range parent {
		parent[i], next[i] = int32(i), int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	phis(func(p, x int32) {
		if x == p || x < 0 || cidx[p] == 0 || cidx[x] == 0 {
			return
		}
		ra, rb := find(cidx[p]-1), find(cidx[x]-1)
		if ra == rb {
			return
		}
		for a := ra; ; {
			for b := rb; ; {
				if interfere(a, b) {
					return
				}
				if b = next[b]; b == rb {
					break
				}
			}
			if a = next[a]; a == ra {
				break
			}
		}
		parent[rb] = ra
		next[ra], next[rb] = next[rb], next[ra]
	})
	for c, id := range cands {
		cidx[id] = cands[find(int32(c))] + 1
	}
	lo.regOf = cidx
}
