package pass

import (
	"slices"

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
	// Known constant values, a register file over the unit's numbering.
	num := u.Numbering()
	vals, known := make([]val.Value, num.Len()), make([]bool, num.Len())
	// Outer loop: folding a branch prunes phi edges, and a single-entry phi
	// collapses to its (possibly constant) operand — which can make further
	// pure instructions foldable. Re-run the fold fixpoint until the branch
	// stage finds nothing, so one run reaches the state a repeated run would.
	for {
		branchChanged := false
		for {
			roundChanged := false
			u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
				id := ir.ValueID(in)
				if known[id] || !in.Op.IsPure() {
					return
				}
				for _, a := range in.Args {
					if k := num.ID(a); k < 0 || !known[k] {
						return
					}
				}
				if engine.EvalPure(in, vals) != nil {
					return
				}
				// Rewrite the instruction in place into a constant.
				switch v := vals[id]; {
				case in.Op.IsConst():
				case v.Kind == val.KindInt:
					if !in.Ty.IsInt() && !in.Ty.IsEnum() {
						return
					}
					in.Op = ir.OpConstInt
					in.IVal = v.Bits
					in.Args = nil
					in.Dests = nil
					roundChanged = true
				case v.Kind == val.KindTime:
					in.Op = ir.OpConstTime
					in.TVal = v.Time()
					in.Args = nil
					in.Dests = nil
					roundChanged = true
				}
				// Aggregates stay literal instructions, but their value is
				// recorded so consumers (mux, extf) can fold through them.
				known[id] = true
			})
			if !roundChanged {
				break
			}
			changed = true
		}

		// Fold conditional branches on constant conditions, then prune the
		// phi edges and blocks they cut off, once for all of them.
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
		}
		if !branchChanged {
			break
		}
		pruneDeadPhiEdges(u)
		// Removed blocks shift the numbering: start the tables over.
		if n := u.Numbering(); n != num {
			num = n
			vals, known = make([]val.Value, num.Len()), make([]bool, num.Len())
		}
	}
	return changed, nil
}

// pruneDeadPhiEdges drops phi incoming entries whose block is no longer a
// predecessor, and removes unreachable blocks entirely. A phi left with a
// single entry degenerates to a copy: its uses are rewritten to that entry
// through a from → to table resolved along chains (as in replaceSweep), in
// one sweep over the unit. The phi itself stays for DCE.
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
	for _, b := range u.Blocks {
		for _, in := range b.Insts {
			if in.Op != ir.OpPhi {
				continue
			}
			args, dests := in.Args[:0], in.Dests[:0]
			for i, pb := range in.Dests {
				if slices.Contains(preds[b], pb) {
					args = append(args, in.Args[i])
					dests = append(dests, pb)
				}
			}
			in.Args, in.Dests = args, dests
			// Single-entry phi degenerates to a copy; InstSimplify will
			// fold it, but do it here to keep verifiers happy. The entry
			// is resolved before it is recorded, so the table never maps
			// a value back onto itself.
			if len(in.Args) == 1 {
				if to == nil {
					num = u.Numbering()
					to = make([]ir.Value, num.Len())
				}
				if r := resolve(in.Args[0]); r != in {
					to[ir.ValueID(in)] = r
				}
			}
		}
	}
	if to != nil {
		u.ForEachInst(func(_ *ir.Block, in *ir.Inst) { in.RewriteOperands(resolve) })
	}
}
