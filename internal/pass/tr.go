package pass

import "llhd/internal/ir"

// TRMap assigns each block of a control-flow unit to a Temporal Region
// (§4.3.1): a section of code that executes during one fixed point in
// physical time. wait instructions bound the regions.
type TRMap struct {
	Of    map[*ir.Block]int
	Count int

	byIndex []int // the same assignment over the DomTree's block index
}

// SameTR reports whether two blocks share a temporal region.
func (t *TRMap) SameTR(a, b *ir.Block) bool { return t.Of[a] == t.Of[b] }

// TemporalRegions computes the TR assignment with the paper's three rules:
//
//  1. If any predecessor has a wait terminator, or this is the entry
//     block, generate a new TR.
//  2. If all predecessors have the same TR, inherit that TR.
//  3. If they have distinct TRs, generate a new TR.
//
// The rules are iterated to a fixed point to handle loops within a region.
func TemporalRegions(u *ir.Unit) *TRMap {
	return temporalRegions(u, ir.NewDomTree(u))
}

// temporalRegions is TemporalRegions for a caller that already holds the
// unit's dominator tree: the tree's block index and predecessor lists are
// all the CFG the rules need.
func temporalRegions(u *ir.Unit, dt *ir.DomTree) *TRMap {
	n := dt.Len()
	t := &TRMap{Of: make(map[*ir.Block]int, n), byIndex: make([]int, n)}
	if n == 0 {
		return t
	}
	// The rules run over the blocks in layout order, and a block's fresh
	// id is its layout position: ids are stable, compacted afterwards.
	layout := make([]int, len(u.Blocks))
	waitPred := make([]bool, n)
	for pos, b := range u.Blocks {
		layout[pos] = dt.Index(b)
		if term := b.Terminator(); term != nil && term.Op == ir.OpWait {
			for _, d := range term.Dests {
				if i := dt.Index(d); i >= 0 {
					waitPred[i] = true
				}
			}
		}
	}

	const unassigned = -1
	assign := t.byIndex
	for i := range assign {
		assign[i] = unassigned
	}
	for iter := 0; iter <= len(u.Blocks)+1; iter++ {
		changed := false
		for pos, i := range layout {
			want := pos // rules 1 and 3, and blocks with no assigned predecessor
			if i != 0 && !waitPred[i] {
				// Rule 2. A predecessor not assigned yet does not count:
				// the block inherits tentatively and later rounds correct it.
				only, distinct := unassigned, false
				for _, p := range dt.Preds(i) {
					switch tr := assign[p]; {
					case tr == unassigned:
					case only == unassigned:
						only = tr
					case tr != only:
						distinct = true
					}
				}
				if only != unassigned && !distinct {
					want = only
				}
			}
			if assign[i] != want {
				assign[i] = want
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Compact ids in block order.
	remap := make([]int, len(u.Blocks))
	for i := range remap {
		remap[i] = unassigned
	}
	for _, i := range layout {
		if remap[assign[i]] == unassigned {
			remap[assign[i]] = t.Count
			t.Count++
		}
	}
	for i := range assign {
		assign[i] = remap[assign[i]]
		t.Of[dt.Block(i)] = assign[i]
	}
	return t
}

// ExitBlocks returns, per TR, the blocks whose terminator leaves the
// region (a wait, halt, ret, or a branch into a different TR).
func (t *TRMap) ExitBlocks(u *ir.Unit) map[int][]*ir.Block {
	out := map[int][]*ir.Block{}
	for _, b := range u.Blocks {
		term := b.Terminator()
		if term == nil {
			continue
		}
		exits := false
		switch term.Op {
		case ir.OpWait, ir.OpHalt, ir.OpRet, ir.OpUnreachable:
			exits = true
		case ir.OpBr:
			for _, d := range term.Dests {
				if t.Of[d] != t.Of[b] {
					exits = true
				}
			}
		}
		if exits {
			out[t.Of[b]] = append(out[t.Of[b]], b)
		}
	}
	return out
}
