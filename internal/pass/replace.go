package pass

import "llhd/internal/ir"

// replaceSweep is one round of a pass that replaces instructions by values
// which already exist (CSE, InstSimplify). It visits every instruction of
// u once: the reachable blocks in dominator-tree preorder, so a definition
// is decided before its users are looked at, then the unreachable ones.
// decide sees the instruction with its operands already resolved through
// the replacements made so far and returns the value that replaces it, or
// nil to keep it. Replacements go into a from → to table; nothing is
// removed and no other instruction is touched until the sweep is over,
// when one pass over the unit rewrites the operands that were read before
// their replacement was known (phi inputs along back edges, forward
// references in an entity) and each block drops its replaced
// instructions.
//
// It returns the number of instructions replaced and the instructions
// whose operands only that closing pass rewrote: decide saw those with
// stale operands, so the caller runs another round if it cares about
// them.
func replaceSweep(u *ir.Unit, dt *ir.DomTree, decide func(block int, in *ir.Inst) ir.Value) (replaced int, late []*ir.Inst) {
	// The table is indexed by the unit's dense value IDs; it comes into
	// being with the first replacement, so a sweep that finds nothing costs
	// one visit per instruction and nothing else.
	var num *ir.Numbering
	var to []ir.Value
	resolve := func(v ir.Value) ir.Value {
		for {
			id := num.ID(v)
			if id < 0 || to[id] == nil {
				return v
			}
			v = to[id]
		}
	}
	visit := func(block int) {
		for _, in := range dt.Block(block).Insts {
			if to != nil {
				in.RewriteOperands(resolve)
			}
			if r := decide(block, in); r != nil && r != in {
				if to == nil {
					num = u.Numbering()
					to = make([]ir.Value, num.Len())
				}
				to[ir.ValueID(in)] = r
				replaced++
			}
		}
	}
	for _, i := range dt.Preorder() {
		visit(int(i))
	}
	for i := dt.NumReachable(); i < dt.Len(); i++ {
		visit(i)
	}
	if replaced == 0 {
		return 0, nil
	}
	for _, b := range u.Blocks {
		b.RemoveIf(func(in *ir.Inst) bool { return to[ir.ValueID(in)] != nil })
		for _, in := range b.Insts {
			if in.RewriteOperands(resolve) > 0 {
				late = append(late, in)
			}
		}
	}
	return replaced, late
}
