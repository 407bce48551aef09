package pass

import (
	"slices"

	"llhd/internal/ir"
)

// Mem2Reg returns the memory-to-register promotion pass (§2.5.8): var
// slots whose address does not escape (only ld/st uses) are rewritten into
// SSA values with phi nodes, "similar to LLVM's memory-to-register
// promotion". Lowering to Structural LLHD requires all stack and heap
// memory instructions to be promoted this way.
//
// The implementation places a phi for every promoted variable at every
// join block ("maximal" SSA); InstSimplify and DCE remove the trivial
// ones. At the scale of HDL processes this is simpler than and as
// effective as iterated dominance frontiers.
//
// The cost is linear in the unit plus one table entry per (block, var):
// blocks and promoted vars are indexed once and every per-block table is a
// flat slice over those indices, each join block's instruction list is
// rebuilt once to take its phis, and the promoted loads go through one
// from → to table that a single sweep over the unit applies to every
// operand (as in replaceSweep). The one repeated walk is phase 2's fixed
// point over the blocks in layout order, which settles in two or three
// rounds on the frontend's output.
func Mem2Reg() Pass {
	return &unitPass{
		name:  "mem2reg",
		kinds: []ir.UnitKind{ir.UnitFunc, ir.UnitProc},
		run:   mem2regUnit,
	}
}

func mem2regUnit(u *ir.Unit) (bool, error) {
	vars := promotableVars(u)
	if len(vars) == 0 {
		return false, nil
	}
	// An entry block with predecessors (a process whose wait loops back to
	// the first block) is a join a phi cannot express: on first activation
	// a promoted var holds its initializer, on re-entry the back edge's
	// exit value — but the initial activation has no predecessor block to
	// key a phi entry on. Without the split, phase 2 below would treat the
	// entry as an ordinary single-pred block and wire the back edge's phi
	// in as its own operand on an edge it does not dominate (found by the
	// pipeline fuzzer: inline moves a var into a conditional block, then
	// mem2reg on the looping entry emits the self-referential phi). A
	// fresh entry turns the old one into an ordinary join block.
	split := false
	if isBranchTarget(u, u.Entry()) {
		splitEntry(u)
		split = true
	}
	// The promoted initializer becomes a phi operand on every path that
	// never executed the var (and the entry value of the entry block), so
	// it must be available everywhere: hoist a clone of its constant cone
	// into the entry block when the original does not already dominate the
	// whole unit. Vars whose initializer cannot be hoisted stay in memory
	// form.
	vars, inits := hoistInitializers(u, vars)
	if len(vars) == 0 {
		return split, nil
	}

	// Dense indices: block bi and var vi meet at table slot bi*nv+vi.
	nb, nv := len(u.Blocks), len(vars)
	blockIdx := make(map[*ir.Block]int, nb)
	for i, b := range u.Blocks {
		blockIdx[b] = i
	}
	varIdx := make(map[*ir.Inst]int, nv)
	for i, v := range vars {
		varIdx[v] = i
	}
	// promoted returns the index of x among the promoted vars, or -1.
	promoted := func(x ir.Value) int {
		if v, ok := x.(*ir.Inst); ok {
			if i, ok := varIdx[v]; ok {
				return i
			}
		}
		return -1
	}
	// Predecessors in Unit.Preds order (the phi entry order).
	preds := make([][]int, nb)
	for i, b := range u.Blocks {
		for _, s := range b.Succs() {
			if j, ok := blockIdx[s]; ok {
				preds[j] = append(preds[j], i)
			}
		}
	}

	// Phase 1: one phi per (join block, var), after the block's existing
	// phis, in var order.
	phis := make([]*ir.Inst, nb*nv)
	for bi, b := range u.Blocks {
		if len(preds[bi]) < 2 {
			continue
		}
		row := phis[bi*nv : (bi+1)*nv]
		for vi, v := range vars {
			phi := &ir.Inst{Op: ir.OpPhi, Ty: v.Ty.Elem}
			phi.SetName(v.ValueName() + ".phi")
			b.Adopt(phi)
			row[vi] = phi
		}
		at := 0
		for at < len(b.Insts) && b.Insts[at].Op == ir.OpPhi {
			at++
		}
		b.Insts = slices.Insert(b.Insts, at, row...)
	}

	// localExit[bi*nv+vi]: the value var vi holds at the end of block bi
	// when the block writes it (st or the var itself); nil when the block
	// leaves it untouched.
	localExit := make([]ir.Value, nb*nv)
	for bi, b := range u.Blocks {
		row := localExit[bi*nv : (bi+1)*nv]
		for _, in := range b.Insts {
			switch in.Op {
			case ir.OpVar:
				if vi := promoted(in); vi >= 0 {
					row[vi] = in.Args[0]
				}
			case ir.OpSt:
				if vi := promoted(in.Args[0]); vi >= 0 {
					row[vi] = in.Args[1]
				}
			}
		}
	}

	// Phase 2: entry values to a fixed point. Join blocks use their phi;
	// single-pred blocks inherit the predecessor's exit; the entry block
	// defaults to the initializer.
	entry := make([]ir.Value, nb*nv)
	for i, phi := range phis {
		if phi != nil {
			entry[i] = phi
		}
	}
	for vi := range vars {
		if entry[vi] == nil {
			entry[vi] = inits[vi]
		}
	}
	exitOf := func(slot int) ir.Value {
		if lv := localExit[slot]; lv != nil {
			return lv
		}
		return entry[slot]
	}
	for iter := 0; iter <= nb; iter++ {
		changed := false
		for bi, ps := range preds {
			if len(ps) != 1 {
				continue
			}
			for vi := range vars {
				pv := exitOf(ps[0]*nv + vi)
				if slot := bi*nv + vi; pv != nil && entry[slot] != pv {
					entry[slot] = pv
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Phase 3: each load's replacement is the running value at the load
	// site, recorded in a from → to table over the unit's value IDs. A
	// running value can itself be a promoted load from another block
	// (st %v2, %ld_of_v1), so a use is resolved through the whole chain —
	// otherwise dropped loads leak into phi operands and rewritten uses as
	// dangling references.
	num := u.Numbering()
	to := make([]ir.Value, num.Len())
	loads := 0
	cur := make([]ir.Value, nv)
	for bi, b := range u.Blocks {
		copy(cur, entry[bi*nv:(bi+1)*nv])
		for _, in := range b.Insts {
			switch in.Op {
			case ir.OpVar:
				if vi := promoted(in); vi >= 0 {
					cur[vi] = in.Args[0]
				}
			case ir.OpLd:
				if vi := promoted(in.Args[0]); vi >= 0 {
					rv := cur[vi]
					if rv == nil {
						rv = inits[vi]
					}
					to[ir.ValueID(in)] = rv
					loads++
				}
			case ir.OpSt:
				if vi := promoted(in.Args[0]); vi >= 0 {
					cur[vi] = in.Args[1]
				}
			}
		}
	}
	// resolve follows replacement chains to a value that survives phase 4.
	// Chains are acyclic (cross-block flow passes through the phis placed in
	// phase 1), but the walk is bounded defensively.
	resolve := func(x ir.Value) ir.Value {
		for i := 0; i <= loads; i++ {
			id := num.ID(x)
			if id < 0 || to[id] == nil {
				return x
			}
			x = to[id]
		}
		return x
	}

	// Phase 4: one sweep drops the promoted memory instructions and
	// rewrites every remaining operand through the table.
	for _, b := range u.Blocks {
		b.RemoveIf(func(in *ir.Inst) bool {
			switch in.Op {
			case ir.OpVar:
				return promoted(in) >= 0
			case ir.OpLd, ir.OpSt:
				return promoted(in.Args[0]) >= 0
			}
			return false
		})
		for _, in := range b.Insts {
			in.RewriteOperands(resolve)
		}
	}

	// Phase 5: fill phi operands from predecessor exit values, resolved
	// past any promoted loads.
	for bi, ps := range preds {
		if len(ps) < 2 {
			continue
		}
		for vi := range vars {
			phi := phis[bi*nv+vi]
			phi.Args = make([]ir.Value, len(ps))
			phi.Dests = make([]*ir.Block, len(ps))
			for k, p := range ps {
				pv := exitOf(p*nv + vi)
				if pv == nil {
					pv = inits[vi]
				}
				phi.Args[k] = resolve(pv)
				phi.Dests[k] = u.Blocks[p]
			}
		}
	}
	return true, nil
}

// isBranchTarget reports whether any block of u branches to b.
func isBranchTarget(u *ir.Unit, b *ir.Block) bool {
	for _, p := range u.Blocks {
		if slices.Contains(p.Succs(), b) {
			return true
		}
	}
	return false
}

// splitEntry prepends a fresh entry block holding a single branch to the
// old entry, so the old entry — previously both the activation target and
// a branch destination — becomes an ordinary join block that can carry
// phis.
func splitEntry(u *ir.Unit) {
	old := u.Entry()
	nb := u.AddBlock(old.ValueName() + ".pre")
	b := ir.NewBuilder(u)
	b.SetBlock(nb)
	b.Br(old)
	// AddBlock appends; the entry block is Blocks[0], so rotate nb to the
	// front.
	copy(u.Blocks[1:], u.Blocks[:len(u.Blocks)-1])
	u.Blocks[0] = nb
}

// hoistInitializers returns the promotable vars whose initializer can be
// made available in every block of the unit, and those initializers, one
// per kept var: the original when it is an argument or already defined in
// the entry block, else a clone of its pure-constant cone inserted at the
// top of the entry block. Vars whose initializer cannot be made
// entry-available are dropped from promotion.
func hoistInitializers(u *ir.Unit, vars []*ir.Inst) ([]*ir.Inst, []ir.Value) {
	kept := make([]*ir.Inst, 0, len(vars))
	inits := make([]ir.Value, 0, len(vars))
	h := &initHoister{u: u, cloned: map[ir.Value]*ir.Inst{}}
	for _, v := range vars {
		iv, ok := h.entryAvailable(v.Args[0], 16, true)
		if !ok {
			// An unpromoted var must not leave orphaned instructions
			// behind.
			h.rollback()
			continue
		}
		h.commit()
		kept = append(kept, v)
		inits = append(inits, iv)
	}
	return kept, inits
}

// initHoister clones pure-constant initializer cones into the entry
// block. Clones are collected per cone and only inserted when the whole
// cone resolves; a cone goes in ahead of the entry block's current first
// instruction, in emission order (operands first), so it stays
// def-before-use and ahead of every pre-existing instruction. That also
// puts it ahead of the cones hoisted before it, which is why the clone
// cache lives for one cone only: a clone shared with an earlier cone would
// follow its use (corpus mem2reg_shared_init_cone.llhd).
type initHoister struct {
	u       *ir.Unit
	cloned  map[ir.Value]*ir.Inst
	pending []ir.Value // originals cloned for the cone in flight
}

func (h *initHoister) commit() {
	anchor := h.u.Entry().Insts[0]
	for _, v := range h.pending {
		h.u.Entry().InsertBefore(h.cloned[v], anchor)
	}
	h.rollback()
}

func (h *initHoister) rollback() {
	for _, v := range h.pending {
		delete(h.cloned, v)
	}
	h.pending = h.pending[:0]
}

// entryAvailable returns a version of v that dominates the whole unit,
// cloning pure instruction cones over constants when the original is
// defined outside the entry block. top marks the initializer itself,
// which may be used as-is when it already lives in the entry block;
// nested operands must be cloned instead (the clones land ahead of all
// original entry instructions, so an original there would follow its
// use).
func (h *initHoister) entryAvailable(v ir.Value, depth int, top bool) (ir.Value, bool) {
	if c, ok := h.cloned[v]; ok {
		return c, true
	}
	in, isInst := v.(*ir.Inst)
	if !isInst {
		// Arguments (and other non-inst values) are available everywhere.
		return v, true
	}
	if top && in.Block() == h.u.Entry() {
		return v, true
	}
	if depth <= 0 || in.Block() == nil || !in.Op.IsPure() {
		return nil, false
	}
	clone := &ir.Inst{
		Op: in.Op, Ty: in.Ty,
		Imm0: in.Imm0, Imm1: in.Imm1,
		IVal: in.IVal, TVal: in.TVal, LVal: in.LVal.Clone(),
	}
	for _, a := range in.Args {
		ca, ok := h.entryAvailable(a, depth-1, false)
		if !ok {
			return nil, false
		}
		clone.Args = append(clone.Args, ca)
	}
	h.cloned[v] = clone
	h.pending = append(h.pending, v)
	return clone, true
}

// promotableVars finds, in one walk over the operands, the var
// instructions whose only uses are direct ld/st (address position for st).
func promotableVars(u *ir.Unit) []*ir.Inst {
	var vars []*ir.Inst
	escaped := map[*ir.Inst]bool{}
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpVar {
			vars = append(vars, in)
		}
		in.Operands(func(x ir.Value) {
			v, ok := x.(*ir.Inst)
			if !ok || v.Op != ir.OpVar {
				return
			}
			switch in.Op {
			case ir.OpLd:
			case ir.OpSt:
				if in.Args[1] == v {
					escaped[v] = true // address stored as a value
				}
			default:
				escaped[v] = true
			}
		})
	})
	out := vars[:0]
	for _, v := range vars {
		if !escaped[v] {
			out = append(out, v)
		}
	}
	return out
}
