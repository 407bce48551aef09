package pass

import "llhd/internal/ir"

// DCE returns the dead code elimination pass (§4.1): unused instructions
// without side effects (phis among them), single-entry phis, and
// unreachable blocks are removed.
func DCE() Pass {
	return &unitPass{name: "dce", run: dceUnit}
}

// dceUnit counts the uses of every value once and then follows the deaths:
// removing an instruction releases its operands, and an operand whose last
// user just died joins the worklist. Each block is compacted once.
func dceUnit(u *ir.Unit) (bool, error) {
	pruneDeadPhiEdges(u)
	num := u.Numbering()
	uses := make([]int32, num.Len())
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		in.Operands(func(v ir.Value) {
			if id := num.ID(v); id >= 0 {
				uses[id]++
			}
		})
	})
	const dead = -1
	var work []*ir.Inst
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if uses[ir.ValueID(in)] == 0 && !in.Op.HasSideEffects() {
			work = append(work, in)
		}
	})
	if len(work) == 0 {
		return false, nil
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		uses[ir.ValueID(in)] = dead
		in.Operands(func(v ir.Value) {
			def, ok := v.(*ir.Inst)
			if !ok {
				return
			}
			if id := num.ID(def); id >= 0 && uses[id] > 0 {
				if uses[id]--; uses[id] == 0 && !def.Op.HasSideEffects() {
					work = append(work, def)
				}
			}
		})
	}
	for _, b := range u.Blocks {
		b.RemoveIf(func(in *ir.Inst) bool { return uses[ir.ValueID(in)] == dead })
	}
	return true, nil
}
