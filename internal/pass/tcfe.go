package pass

import "llhd/internal/ir"

// TCFE returns the Total Control Flow Elimination pass (§4.4): the empty
// blocks left behind by TCM are removed and straight-line block chains are
// merged, so that (for well-formed processes) exactly one block remains
// per temporal region. Remaining phi instructions become mux selections.
func TCFE() Pass {
	return &unitPass{
		name:  "tcfe",
		kinds: []ir.UnitKind{ir.UnitProc, ir.UnitFunc},
		run:   tcfeUnit,
	}
}

func tcfeUnit(u *ir.Unit) (bool, error) {
	// Merging and phi-to-mux conversion enable each other: converting a phi
	// removes the obstacle that kept a forwarder or chain from merging, and
	// a merge can bring a phi's operands into dominating position. Iterate
	// both to a joint fixpoint, so one run reaches the state a repeated run
	// would (pass idempotence, relied on by RunFixpoint convergence).
	changed := false
	for budget := 0; budget < 1000; budget++ {
		if mergeOnce(u) {
			changed = true
			continue
		}
		if phiToMux(u) {
			changed = true
			continue
		}
		break
	}
	return changed, nil
}

// mergeOnce performs one CFG simplification and reports whether it did
// anything:
//
//   - forwarder elimination: a block containing only "br dest" has its
//     predecessors retargeted to dest;
//   - chain merge: a block with a single unconditional-branch predecessor
//     whose only successor it is gets spliced into that predecessor;
//   - conditional branch with equal destinations becomes unconditional.
func mergeOnce(u *ir.Unit) bool {
	preds := u.Preds()

	for _, b := range u.Blocks {
		term := b.Terminator()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		if len(term.Dests) == 2 && term.Dests[0] == term.Dests[1] {
			term.Args = nil
			term.Dests = term.Dests[:1]
			return true
		}
	}

	// An entry block that only sets up pure values (constants hoisted by
	// ECM) and falls through unconditionally — as frontends emit for
	// processes without local variables — is folded into its destination,
	// which becomes the new entry. Pure instructions may re-execute per
	// activation without changing behaviour.
	if entry := u.Entry(); entry != nil {
		term := entry.Terminator()
		if term != nil && term.Op == ir.OpBr && len(term.Args) == 0 && len(term.Dests) == 1 &&
			term.Dests[0] != entry && len(preds[entry]) == 0 {
			dest := term.Dests[0]
			movable := true
			for _, in := range entry.Insts {
				if in == term {
					continue
				}
				if !in.Op.IsPure() {
					movable = false
					break
				}
			}
			hasPhi := false
			for _, in := range dest.Insts {
				if in.Op == ir.OpPhi {
					hasPhi = true
				}
			}
			if movable && !hasPhi {
				// Prepend the entry's pure instructions to dest.
				moved := append([]*ir.Inst{}, entry.Insts[:len(entry.Insts)-1]...)
				dest.Insts = append(moved, dest.Insts...)
				for _, in := range moved {
					dest.Adopt(in)
				}
				u.RemoveBlock(entry)
				for i, blk := range u.Blocks {
					if blk == dest && i != 0 {
						copy(u.Blocks[1:i+1], u.Blocks[:i])
						u.Blocks[0] = dest
						break
					}
				}
				return true
			}
		}
	}

	// Forwarder elimination.
	for _, b := range u.Blocks {
		if b == u.Entry() || len(b.Insts) != 1 {
			continue
		}
		term := b.Terminator()
		if term == nil || term.Op != ir.OpBr || len(term.Dests) != 1 || len(term.Args) != 0 {
			continue
		}
		dest := term.Dests[0]
		if dest == b {
			continue
		}
		// Phis in dest must not distinguish between b's preds and dest's
		// other preds; retargeting is safe when dest has no phis that
		// mention b with a different value than they would get.
		hasPhi := false
		for _, in := range dest.Insts {
			if in.Op == ir.OpPhi {
				hasPhi = true
				break
			}
		}
		if hasPhi {
			// Soundness: retargeting makes each pred p of b an incoming
			// block of dest's phis, carrying b's value. If a phi already
			// has an entry for p (p also reaches dest through another
			// edge) with a *different* value, the rewritten phi could no
			// longer distinguish the two edges — the classic critical-edge
			// hazard. A conditional "br %c, %b1, %b2" whose arms are both
			// forwarders to dest hits this on the second elimination;
			// collapsing it anyway rewrote the phi to one arbitrary arm
			// (miscompile found by the differential fuzzer, seed 4).
			safe := true
			for _, in := range dest.Insts {
				if in.Op != ir.OpPhi || !safe {
					continue
				}
				for i, pb := range in.Dests {
					if pb != b {
						continue
					}
					for _, p := range preds[b] {
						for j, qb := range in.Dests {
							if j != i && qb == p && in.Args[j] != in.Args[i] {
								safe = false
							}
						}
					}
				}
			}
			if !safe {
				continue
			}
			// Rewrite the phi entries from b to each of b's preds.
			for _, in := range dest.Insts {
				if in.Op != ir.OpPhi {
					continue
				}
				for i, pb := range in.Dests {
					if pb != b {
						continue
					}
					v := in.Args[i]
					bp := preds[b]
					if len(bp) == 0 {
						continue
					}
					in.Dests[i] = bp[0]
					for _, extra := range bp[1:] {
						in.Args = append(in.Args, v)
						in.Dests = append(in.Dests, extra)
					}
				}
			}
		}
		for _, p := range preds[b] {
			p.Terminator().ReplaceDest(b, dest)
		}
		u.RemoveBlock(b)
		return true
	}

	// Chain merge.
	for _, b := range u.Blocks {
		if b == u.Entry() {
			continue
		}
		ps := preds[b]
		if len(ps) != 1 {
			continue
		}
		p := ps[0]
		if p == b {
			continue
		}
		pterm := p.Terminator()
		if pterm == nil || pterm.Op != ir.OpBr || len(pterm.Dests) != 1 {
			continue
		}
		// Splice: drop p's terminator, adopt b's instructions.
		p.Remove(pterm)
		for _, in := range b.Insts {
			if in.Op == ir.OpPhi {
				// Single-pred phi is a copy.
				u.ReplaceAllUses(in, in.Args[0])
				continue
			}
			p.Insts = append(p.Insts, in)
			p.Adopt(in)
		}
		// Successor phis must see p instead of b.
		for _, s := range b.Succs() {
			for _, in := range s.Insts {
				if in.Op == ir.OpPhi {
					in.ReplaceDest(b, p)
				}
			}
		}
		u.RemoveBlock(b)
		return true
	}
	return false
}

// phiToMux converts remaining two-entry phis into mux instructions (§4.4):
// the selector is derived the same way as a TCM drive condition.
func phiToMux(u *ir.Unit) bool {
	changed := false
	for budget := 0; budget < 100; budget++ {
		dt := ir.NewDomTree(u)
		trs := temporalRegions(u, dt)
		var phi *ir.Inst
		var home *ir.Block
		u.ForEachInst(func(b *ir.Block, in *ir.Inst) {
			if phi == nil && in.Op == ir.OpPhi && len(in.Args) == 2 {
				phi, home = in, b
			}
		})
		if phi == nil {
			break
		}
		// Selector: condition under which control arrives via Dests[1].
		dom := dt.CommonDominator(phi.Dests[0], phi.Dests[1])
		if dom == nil {
			break
		}
		// Operands must be available where the mux will sit: defined in a
		// strictly dominating block, or earlier in the same block. A
		// same-block definition after the phi (the loop-carried increment
		// of a loop-header phi) reads the value of the previous iteration
		// along its edge; as a mux operand it would be a combinational
		// cycle, so those phis must stay phis.
		availableAt := func(v ir.Value) bool {
			def, isInst := v.(*ir.Inst)
			if !isInst {
				return true
			}
			if def.Block() == nil {
				return false
			}
			if def.Block() == home {
				return home.Index(def) < home.Index(phi)
			}
			return dt.Dominates(def.Block(), home)
		}
		ok := true
		for _, a := range phi.Args {
			if !availableAt(a) {
				ok = false
			}
		}
		if !ok {
			break
		}
		cond, condOK := pathCondition(u, dt, trs, dom, phi.Dests[1], home, phi)
		if !condOK || cond == nil || !availableAt(cond) {
			break
		}
		arr := &ir.Inst{Op: ir.OpArray, Ty: ir.ArrayType(2, phi.Ty), Args: []ir.Value{phi.Args[0], phi.Args[1]}}
		mux := &ir.Inst{Op: ir.OpMux, Ty: phi.Ty, Args: []ir.Value{arr, cond}}
		home.InsertBefore(arr, phi)
		home.InsertBefore(mux, phi)
		u.ReplaceAllUses(phi, mux)
		home.Remove(phi)
		changed = true
	}
	return changed
}
