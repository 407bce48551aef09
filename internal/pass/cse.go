package pass

import "llhd/internal/ir"

// CSE returns the common subexpression elimination pass (§4.1): pure
// instructions with identical opcode and operands are deduplicated when the
// existing definition dominates the duplicate.
func CSE() Pass {
	return &unitPass{name: "cse", run: cseUnit}
}

// cseKey is the structural identity of a pure instruction as a comparable
// value: opcode, interned type, immediates and the identities (dense value
// IDs) of its operands. The operands of a commutative instruction are
// ordered by ID. The variadic aggregate literals keep only a count and a
// hash of their operand list in the key; sameOperands settles a hit.
// cseInlineOperands is how many operand IDs a cseKey holds verbatim; the
// fixed-arity pure instructions have at most three (dynamic insf).
const cseInlineOperands = 3

type cseKey struct {
	op         ir.Opcode
	ty         *ir.Type
	ival       uint64
	imm0, imm1 int
	tval       ir.Time // const time only
	lval       string  // const lN only
	nargs      int
	args       [cseInlineOperands]int32
	hash       uint64 // longer operand lists: FNV-1a over the operand IDs
}

// cseKeyOf builds the key of a pure instruction. It reports false for an
// instruction with an operand the unit's numbering does not know: such an
// instruction has no identity to compare and is left alone.
func cseKeyOf(num *ir.Numbering, in *ir.Inst) (cseKey, bool) {
	k := cseKey{op: in.Op, ty: in.Ty, ival: in.IVal, imm0: in.Imm0, imm1: in.Imm1, nargs: len(in.Args)}
	switch in.Op {
	case ir.OpConstTime:
		k.tval = in.TVal
	case ir.OpConstLogic:
		k.lval = in.LVal.String()
	}
	if len(in.Args) > cseInlineOperands {
		k.hash = 14695981039346656037
		for _, a := range in.Args {
			id := num.ID(a)
			if id < 0 {
				return k, false
			}
			k.hash = (k.hash ^ uint64(id)) * 1099511628211
		}
		return k, true
	}
	for i, a := range in.Args {
		id := num.ID(a)
		if id < 0 {
			return k, false
		}
		k.args[i] = int32(id)
	}
	if in.Op.IsCommutative() && len(in.Args) == 2 && k.args[0] > k.args[1] {
		k.args[0], k.args[1] = k.args[1], k.args[0]
	}
	return k, true
}

// sameOperands reports whether two instructions with equal keys have the
// same operands; only the hashed form of the key can leave that open.
func sameOperands(a, b *ir.Inst) bool {
	if len(a.Args) <= cseInlineOperands {
		return true
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// cseUnit is a dominator-scoped value numbering in one sweep: an
// instruction is replaced by the holder of its key when the holder's
// block dominates it, and becomes the holder otherwise — the sweep is a
// preorder of the dominator tree, so a holder that does not dominate the
// current block dominates none of the blocks still to come. Operands are
// resolved before the key is built, so a chain of duplicates collapses in
// the same sweep.
func cseUnit(u *ir.Unit) (bool, error) {
	type holder struct {
		in    *ir.Inst
		block int
	}
	changed := false
	for again := true; again; {
		again = false
		dt := ir.NewDomTree(u)
		num := u.Numbering()
		holders := map[cseKey]holder{}
		replaced, late := replaceSweep(u, dt, func(block int, in *ir.Inst) ir.Value {
			if !in.Op.IsPure() {
				return nil
			}
			key, ok := cseKeyOf(num, in)
			if !ok {
				return nil
			}
			if h, ok := holders[key]; ok && dt.DominatesIndex(h.block, block) && sameOperands(h.in, in) {
				return h.in
			}
			holders[key] = holder{in, block}
			return nil
		})
		changed = changed || replaced > 0
		// Only an entity, whose instructions need not be in def-before-use
		// order, can have had a keyed instruction read before its operand
		// was replaced.
		for _, in := range late {
			if in.Op.IsPure() {
				again = true
			}
		}
	}
	return changed, nil
}
