package pass

import "llhd/internal/ir"

// ECM returns the Early Code Motion pass (§4.2): pure instructions are
// eagerly hoisted into predecessor blocks — as far up the dominator tree
// as their operands allow — to facilitate later control flow elimination.
// It subsumes loop-invariant code motion. prb instructions are special:
// they must not move across wait (that would change which point in time is
// sampled), so they hoist at most to the entry block of their temporal
// region.
func ECM() Pass {
	return &unitPass{
		name:  "ecm",
		kinds: []ir.UnitKind{ir.UnitProc, ir.UnitFunc},
		run:   ecmUnit,
	}
}

// ecmUnit is one sweep. ECM never edits the CFG, so the dominator tree
// and the temporal regions are computed once; blocks are visited in
// dominator-tree preorder, so every operand has reached its final block
// before its user is looked at and one visit per instruction settles where
// it goes. The moves are collected per target block and each instruction
// list is rebuilt once at the end.
func ecmUnit(u *ir.Unit) (bool, error) {
	if len(u.Blocks) < 2 {
		return false, nil
	}
	dt := ir.NewDomTree(u)
	tr := temporalRegions(u, dt).byIndex
	num := u.Numbering()

	// home is the tree index of the block each value lives in, updated as
	// instructions are hoisted; -1 marks values of unreachable blocks.
	// Arguments count as defined in the entry block, index 0.
	home := make([]int32, num.Len())
	for i := 0; i < dt.Len(); i++ {
		at := int32(i)
		if i >= dt.NumReachable() {
			at = -1
		}
		for _, in := range dt.Block(i).Insts {
			home[ir.ValueID(in)] = at
		}
	}

	hoisted := make([][]*ir.Inst, dt.NumReachable()) // per target, in sweep order
	moved := false
	for _, bi := range dt.Preorder() {
		b := int(bi)
		for _, in := range dt.Block(b).Insts {
			if !hoistable(in) {
				continue
			}
			target := hoistTarget(dt, num, home, in, b)
			if in.Op == ir.OpPrb && target >= 0 && tr[target] != tr[b] {
				// Stay in the temporal region: take the highest block of
				// the region on the dominator chain from target down to b.
				top := b
				for x := b; x != target; x = dt.IDomIndex(x) {
					if tr[x] == tr[b] {
						top = x
					}
				}
				target = top
			}
			if target < 0 || target == b {
				continue
			}
			home[ir.ValueID(in)] = int32(target)
			hoisted[target] = append(hoisted[target], in)
			moved = true
		}
	}
	if !moved {
		return false, nil
	}

	// A hoisted instruction goes to the end of its target, ahead of the
	// terminator: behind the phi prefix, behind every operand the block
	// already held, and — the sweep being a preorder — behind every operand
	// hoisted into the same block before it.
	for i := 0; i < dt.NumReachable(); i++ {
		at := int32(i)
		dt.Block(i).RemoveIf(func(in *ir.Inst) bool { return home[ir.ValueID(in)] != at })
	}
	for i, arrivals := range hoisted {
		if len(arrivals) == 0 {
			continue
		}
		b := dt.Block(i)
		term := b.Terminator()
		n := len(b.Insts)
		if term != nil {
			n--
		}
		insts := append(b.Insts[:n:n], arrivals...)
		if term != nil {
			insts = append(insts, term)
		}
		for _, in := range arrivals {
			b.Adopt(in)
		}
		b.Insts = insts
	}
	return true, nil
}

func hoistable(in *ir.Inst) bool {
	return in.Op == ir.OpPrb || in.Op.IsPure()
}

// hoistTarget finds the highest block that all operand definitions of in
// (an instruction of block b) dominate: the deepest definition block on the
// dominator chain. It returns -1 when in must stay where it is.
func hoistTarget(dt *ir.DomTree, num *ir.Numbering, home []int32, in *ir.Inst, b int) int {
	target := 0
	in.Operands(func(v ir.Value) {
		def, isInst := v.(*ir.Inst)
		if !isInst || target < 0 {
			return // args and globals are defined at entry
		}
		id := num.ID(def)
		if id < 0 || home[id] < 0 || !dt.DominatesIndex(int(home[id]), b) {
			target = -1 // detached, unreachable or cross-path use; leave alone
			return
		}
		if db := int(home[id]); dt.Depth(db) > dt.Depth(target) {
			target = db
		}
	})
	return target
}
