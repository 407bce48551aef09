package pass

import "llhd/internal/ir"

// ProcessLowering returns the PL pass (§4.5): a process consisting of a
// single block terminated by a wait that is sensitive to every probed
// signal (and has no timeout) is a combinational description, and is
// converted in place into an entity with the same signature.
func ProcessLowering() Pass {
	return &unitPass{
		name:  "process-lowering",
		kinds: []ir.UnitKind{ir.UnitProc},
		run:   plUnit,
	}
}

func plUnit(u *ir.Unit) (bool, error) {
	if len(u.Blocks) != 1 {
		return false, nil
	}
	b := u.Blocks[0]
	term := b.Terminator()
	if term == nil || term.Op != ir.OpWait {
		return false, nil
	}
	if term.TimeArg != nil {
		return false, nil // timed waits have no combinational equivalent
	}
	if term.Dests[0] != b {
		return false, nil // must loop back onto itself
	}

	// The wait must be sensitive to every probed signal (§4.5).
	observed := map[ir.Value]bool{}
	for _, s := range term.Args {
		observed[s] = true
	}
	for _, in := range b.Insts {
		if in.Op == ir.OpPrb && !observed[rootSignal(in.Args[0])] && !observed[in.Args[0]] {
			return false, nil
		}
	}

	// Only entity-legal instructions may remain.
	for _, in := range b.Insts {
		if in == term {
			continue
		}
		if in.Op != ir.OpPrb && in.Op != ir.OpDrv && !in.Op.IsPure() {
			return false, nil
		}
	}

	// Convert in place: drop the wait, turn the block into an entity body.
	b.Remove(term)
	u.Kind = ir.UnitEntity
	b.SetName("body")
	return true, nil
}

// rootSignal chases extf/exts projections back to the underlying signal
// value (an argument or sig instruction).
func rootSignal(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Inst)
		if !ok {
			return v
		}
		if (in.Op == ir.OpExtF || in.Op == ir.OpExtS) && in.Ty.IsSignal() {
			v = in.Args[0]
			continue
		}
		return v
	}
}
