package pass

import (
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// ConstantFold returns the CF pass (§4.1): pure instructions whose
// operands are all constants are replaced by constant instructions.
func ConstantFold() Pass {
	return &unitPass{name: "constant-fold", run: foldUnit}
}

func foldUnit(u *ir.Unit) (bool, error) {
	changed := false
	// Known constant values per defining instruction.
	known := map[ir.Value]val.Value{}
	// Outer loop: folding a branch prunes phi edges, and a single-entry phi
	// collapses to its (possibly constant) operand — which can make further
	// pure instructions foldable. Re-run the fold fixpoint until the branch
	// stage finds nothing, so one run reaches the state a repeated run would.
	for {
		branchChanged := false
		for {
			roundChanged := false
			u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
				if _, have := known[in]; have {
					return
				}
				switch in.Op {
				case ir.OpConstInt:
					known[in] = val.Int(in.Ty.BitWidth(), in.IVal)
					return
				case ir.OpConstTime:
					known[in] = val.TimeVal(in.TVal)
					return
				case ir.OpConstLogic:
					known[in] = val.LogicVal(in.LVal)
					return
				}
				if !in.Op.IsPure() {
					return
				}
				v, err := engine.EvalPure(in, func(x ir.Value) (val.Value, bool) {
					k, ok := known[x]
					return k, ok
				})
				if err != nil {
					return
				}
				// Rewrite the instruction in place into a constant.
				switch v.Kind {
				case val.KindInt:
					if !in.Ty.IsInt() && !in.Ty.IsEnum() {
						return
					}
					in.Op = ir.OpConstInt
					in.IVal = v.Bits
					in.Args = nil
					in.Dests = nil
					known[in] = v
					roundChanged = true
				case val.KindTime:
					in.Op = ir.OpConstTime
					in.TVal = v.Time()
					in.Args = nil
					in.Dests = nil
					known[in] = v
					roundChanged = true
				default:
					// Aggregates stay as literal instructions, but record the
					// value so consumers (mux, extf) can fold through them.
					known[in] = v
				}
			})
			if !roundChanged {
				break
			}
			changed = true
		}

		// Fold conditional branches on constant conditions.
		for _, b := range u.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr || len(t.Args) != 1 {
				continue
			}
			k, ok := t.Args[0].(*ir.Inst)
			if !ok || k.Op != ir.OpConstInt {
				continue
			}
			dest := t.Dests[0]
			if k.IVal != 0 {
				dest = t.Dests[1]
			}
			t.Args = nil
			t.Dests = []*ir.Block{dest}
			changed = true
			branchChanged = true
			pruneDeadPhiEdges(u)
		}
		if !branchChanged {
			break
		}
	}
	return changed, nil
}

// pruneDeadPhiEdges drops phi incoming entries whose block is no longer a
// predecessor, and removes unreachable blocks entirely.
func pruneDeadPhiEdges(u *ir.Unit) {
	if u.Kind == ir.UnitEntity || len(u.Blocks) == 0 {
		return
	}
	// Find reachable blocks.
	reach := map[*ir.Block]bool{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs() {
			walk(s)
		}
	}
	walk(u.Entry())
	var kept []*ir.Block
	for _, b := range u.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	u.Blocks = kept

	preds := u.Preds()
	for _, b := range u.Blocks {
		for _, in := range b.Insts {
			if in.Op != ir.OpPhi {
				continue
			}
			var args []ir.Value
			var dests []*ir.Block
			for i, pb := range in.Dests {
				isPred := false
				for _, p := range preds[b] {
					if p == pb {
						isPred = true
						break
					}
				}
				if isPred {
					args = append(args, in.Args[i])
					dests = append(dests, pb)
				}
			}
			in.Args, in.Dests = args, dests
			// Single-entry phi degenerates to a copy; InstSimplify will
			// fold it, but do it here to keep verifiers happy.
			if len(in.Args) == 1 {
				u.ReplaceAllUses(in, in.Args[0])
			}
		}
	}
}
