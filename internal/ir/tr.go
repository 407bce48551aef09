package ir

import "math/bits"

// TRMap assigns each block of a control-flow unit to a temporal region
// (§4.3.1): a section of code that executes during one fixed point in
// physical time. wait instructions bound the regions. The map is kept
// over the block index of the DomTree it was computed from, and like the
// tree it is a snapshot: editing the CFG invalidates it.
type TRMap struct {
	Count int

	dt *DomTree
	of []int32 // tree index -> region
}

// Of returns the temporal region of b, or -1 for a block the tree does not
// index.
func (t *TRMap) Of(b *Block) int {
	if i := t.dt.Index(b); i >= 0 {
		return int(t.of[i])
	}
	return -1
}

// OfIndex returns the temporal region of the block with tree index i.
func (t *TRMap) OfIndex(i int) int { return int(t.of[i]) }

// SameTR reports whether two blocks share a temporal region.
func (t *TRMap) SameTR(a, b *Block) bool { return t.Of(a) == t.Of(b) }

// TemporalRegions computes the TR assignment of the unit dt was built
// from, with the paper's three rules:
//
//  1. If any predecessor has a wait terminator, or this is the entry
//     block, generate a new TR.
//  2. If all predecessors have the same TR, inherit that TR.
//  3. If they have distinct TRs, generate a new TR.
//
// The rules are iterated to a fixed point to handle loops within a region.
// The tree's block index and predecessor lists are all the CFG they need.
// Where the rules settle, a block that does not generate its TR has every
// predecessor in it, and none ending in a wait; so when a block a
// dominates a block b of its TR, no path from a to b that does not pass a
// again crosses a wait.
func TemporalRegions(dt *DomTree) *TRMap {
	n := dt.Len()
	if n == 0 {
		return &TRMap{dt: dt}
	}
	ints := make([]int32, 4*n+2+len(dt.predList))
	t := &TRMap{dt: dt, of: ints[:n:n]}
	posOf, remap, succStart, succList := ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n+2], ints[4*n+2:]
	// The rules run over the blocks in layout order, and a block's fresh
	// id is its layout position: ids are stable, compacted afterwards.
	waitPred := make([]bool, n)
	for pos, i := range dt.byLayout {
		posOf[i] = int32(pos)
		if term := dt.blocks[i].Terminator(); term != nil && term.Op == OpWait {
			for _, d := range term.Dests {
				if i := dt.Index(d); i >= 0 {
					waitPred[i] = true
				}
			}
		}
	}
	// The successors of each block, by tree index.
	for i := 0; i < n; i++ {
		for _, p := range dt.Preds(i) {
			succStart[p+2]++
		}
	}
	for i := 2; i <= n+1; i++ {
		succStart[i] += succStart[i-1]
	}
	for i := 0; i < n; i++ {
		for _, p := range dt.Preds(i) {
			succList[succStart[p+1]] = int32(i)
			succStart[p+1]++
		}
	}

	// A block is evaluated again only once a predecessor changed since it
	// last was (stale, one bit per layout position): what it would get is
	// a function of its predecessors' regions, so skipping it changes
	// nothing but the cost. A round takes the stale blocks in layout
	// order; one marked behind the block at hand waits for the next.
	stale := make([]uint64, (n+63)/64)
	for pos := 0; pos < n; pos++ {
		stale[pos/64] |= 1 << (pos % 64)
	}
	const unassigned = -1
	assign := t.of
	for i := range assign {
		assign[i] = unassigned
	}
	for iter := 0; iter <= n+1; iter++ {
		changed := false
		for w := range stale {
			for ahead := ^uint64(0); stale[w]&ahead != 0; {
				b := bits.TrailingZeros64(stale[w] & ahead)
				stale[w] &^= 1 << b
				ahead = ^uint64(0) << (b + 1)
				pos := 64*w + b
				i := dt.byLayout[pos]
				want := int32(pos) // rules 1 and 3, and blocks with no assigned predecessor
				if i != 0 && !waitPred[i] {
					// Rule 2. A predecessor not assigned yet does not count:
					// the block inherits tentatively and later rounds correct it.
					only, distinct := int32(unassigned), false
					for _, p := range dt.Preds(int(i)) {
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
					for _, s := range succList[succStart[i]:succStart[i+1]] {
						stale[posOf[s]/64] |= 1 << (posOf[s] % 64)
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	// Compact ids in block order.
	for i := range remap {
		remap[i] = unassigned
	}
	for _, i := range dt.byLayout {
		if remap[assign[i]] == unassigned {
			remap[assign[i]] = int32(t.Count)
			t.Count++
		}
	}
	for i := range assign {
		assign[i] = remap[assign[i]]
	}
	return t
}

// ExitBlocks returns, per TR, the blocks whose terminator leaves the
// region (a wait, halt, ret, or a branch into a different TR), in layout
// order.
func (t *TRMap) ExitBlocks() map[int][]*Block {
	out := map[int][]*Block{}
	for _, i := range t.dt.byLayout {
		b := t.dt.blocks[i]
		term := b.Terminator()
		if term == nil {
			continue
		}
		exits := false
		switch term.Op {
		case OpWait, OpHalt, OpRet, OpUnreachable:
			exits = true
		case OpBr:
			for _, d := range term.Dests {
				if t.Of(d) != t.OfIndex(int(i)) {
					exits = true
				}
			}
		}
		if exits {
			tr := t.OfIndex(int(i))
			out[tr] = append(out[tr], b)
		}
	}
	return out
}
