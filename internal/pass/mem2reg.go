package pass

import "llhd/internal/ir"

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
	if len(u.Preds()[u.Entry()]) > 0 {
		splitEntry(u)
		split = true
	}
	// The promoted initializer becomes a phi operand on every path that
	// never executed the var (and the entry value of the entry block), so
	// it must be available everywhere: hoist a clone of its constant cone
	// into the entry block when the original does not already dominate the
	// whole unit. Vars whose initializer cannot be hoisted stay in memory
	// form.
	vars, initOf := hoistInitializers(u, vars)
	if len(vars) == 0 {
		return split, nil
	}
	preds := u.Preds()

	// Phase 1: one phi per (join block, var).
	phis := map[*ir.Block]map[*ir.Inst]*ir.Inst{}
	for _, b := range u.Blocks {
		if len(preds[b]) < 2 {
			continue
		}
		phis[b] = map[*ir.Inst]*ir.Inst{}
		for _, v := range vars {
			phi := &ir.Inst{Op: ir.OpPhi, Ty: v.Ty.Elem}
			phi.SetName(v.ValueName() + ".phi")
			b.InsertBefore(phi, firstNonPhi(b))
			phis[b][v] = phi
		}
	}

	// localExit[b][v]: the value v holds at the end of b when b writes it
	// (st or the var itself); nil when b leaves v untouched.
	localExit := map[*ir.Block]map[*ir.Inst]ir.Value{}
	for _, b := range u.Blocks {
		localExit[b] = map[*ir.Inst]ir.Value{}
		for _, in := range b.Insts {
			switch in.Op {
			case ir.OpVar:
				if containsVar(vars, in) {
					localExit[b][in] = in.Args[0]
				}
			case ir.OpSt:
				if v, ok := in.Args[0].(*ir.Inst); ok && containsVar(vars, v) {
					localExit[b][v] = in.Args[1]
				}
			}
		}
	}

	// Phase 2: entry values to a fixed point. Join blocks use their phi;
	// single-pred blocks inherit the predecessor's exit; the entry block
	// defaults to the initializer.
	entry := map[*ir.Block]map[*ir.Inst]ir.Value{}
	for _, b := range u.Blocks {
		entry[b] = map[*ir.Inst]ir.Value{}
		for _, v := range vars {
			if ph, ok := phis[b][v]; ok {
				entry[b][v] = ph
			} else if b == u.Entry() {
				entry[b][v] = initOf[v]
			}
		}
	}
	exitOf := func(b *ir.Block, v *ir.Inst) ir.Value {
		if lv := localExit[b][v]; lv != nil {
			return lv
		}
		return entry[b][v]
	}
	for iter := 0; iter <= len(u.Blocks); iter++ {
		changed := false
		for _, b := range u.Blocks {
			if len(preds[b]) != 1 {
				continue
			}
			for _, v := range vars {
				pv := exitOf(preds[b][0], v)
				if pv != nil && entry[b][v] != pv {
					entry[b][v] = pv
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Phase 3: compute each load's replacement (the running value at the
	// load site). Rewriting is deferred: a running value can itself be a
	// promoted load from another block (st %v2, %ld_of_v1), so uses must be
	// resolved through the full replacement chain after all replacements
	// are known — otherwise dropped loads leak into phi operands and
	// rewritten uses as dangling references.
	repl := map[*ir.Inst]ir.Value{}
	for _, b := range u.Blocks {
		cur := map[*ir.Inst]ir.Value{}
		for _, v := range vars {
			cur[v] = entry[b][v]
		}
		for _, in := range b.Insts {
			switch in.Op {
			case ir.OpVar:
				if containsVar(vars, in) {
					cur[in] = in.Args[0]
				}
			case ir.OpLd:
				if v, ok := in.Args[0].(*ir.Inst); ok && containsVar(vars, v) {
					rv := cur[v]
					if rv == nil {
						rv = initOf[v]
					}
					repl[in] = rv
				}
			case ir.OpSt:
				if v, ok := in.Args[0].(*ir.Inst); ok && containsVar(vars, v) {
					cur[v] = in.Args[1]
				}
			}
		}
	}
	// resolve follows replacement chains to a value that survives phase 5.
	// Chains are acyclic (cross-block flow passes through the phis placed in
	// phase 1), but the walk is bounded defensively.
	resolve := func(x ir.Value) ir.Value {
		for i := 0; i <= len(repl); i++ {
			ld, ok := x.(*ir.Inst)
			if !ok {
				return x
			}
			rv, ok := repl[ld]
			if !ok {
				return x
			}
			x = rv
		}
		return x
	}
	for ld := range repl {
		u.ReplaceAllUses(ld, resolve(ld))
	}

	// Phase 4: fill phi operands from predecessor exit values, resolved
	// past any promoted loads.
	for b, perVar := range phis {
		for v, phi := range perVar {
			for _, p := range preds[b] {
				pv := exitOf(p, v)
				if pv == nil {
					pv = initOf[v]
				}
				phi.Args = append(phi.Args, resolve(pv))
				phi.Dests = append(phi.Dests, p)
			}
		}
	}

	// Phase 5: drop the promoted memory instructions.
	for _, b := range u.Blocks {
		kept := b.Insts[:0]
		for _, in := range b.Insts {
			drop := false
			switch in.Op {
			case ir.OpVar:
				drop = containsVar(vars, in)
			case ir.OpLd, ir.OpSt:
				if v, ok := in.Args[0].(*ir.Inst); ok {
					drop = containsVar(vars, v)
				}
			}
			if !drop {
				kept = append(kept, in)
			}
		}
		b.Insts = kept
	}
	return true, nil
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

// hoistInitializers returns, for each promotable var, an initializer
// value that is available in every block of the unit: the original when it
// is an argument or already defined in the entry block, else a clone of
// its pure-constant cone inserted at the top of the entry block. Vars
// whose initializer cannot be made entry-available are dropped from
// promotion.
func hoistInitializers(u *ir.Unit, vars []*ir.Inst) ([]*ir.Inst, map[*ir.Inst]ir.Value) {
	kept := make([]*ir.Inst, 0, len(vars))
	initOf := map[*ir.Inst]ir.Value{}
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
		initOf[v] = iv
	}
	return kept, initOf
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

func containsVar(vars []*ir.Inst, v *ir.Inst) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// promotableVars finds var instructions whose only uses are direct ld/st
// (address position for st).
func promotableVars(u *ir.Unit) []*ir.Inst {
	uses := u.Uses()
	var out []*ir.Inst
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op != ir.OpVar {
			return
		}
		ok := true
		for _, use := range uses[in] {
			switch use.Op {
			case ir.OpLd:
			case ir.OpSt:
				if use.Args[1] == in {
					ok = false // address stored as a value
				}
			default:
				ok = false
			}
		}
		if ok {
			out = append(out, in)
		}
	})
	return out
}
