package ir_test

import (
	"fmt"
	"math/rand"
	"testing"

	"llhd/internal/ir"
)

// randomProcCFG builds a process of 1..16 blocks whose terminators are
// drawn at random: waits, halts, jumps and two-way branches to any block,
// the entry and the block itself included.
func randomProcCFG(seed int64) *ir.Unit {
	rng := rand.New(rand.NewSource(seed))
	u := ir.NewUnit(ir.UnitProc, fmt.Sprintf("proc%d", seed))
	sig := u.AddInput("s", ir.SignalType(ir.IntType(1)))
	n := 1 + rng.Intn(16)
	for i := 0; i < n; i++ {
		u.AddBlock(fmt.Sprintf("b%d", i))
	}
	b := ir.NewBuilder(u)
	for _, blk := range u.Blocks {
		b.SetBlock(blk)
		switch k := rng.Intn(10); {
		case k == 0:
			b.Halt()
		case k < 3:
			b.Wait(u.Blocks[rng.Intn(n)], nil, sig)
		case k < 6:
			b.Br(u.Blocks[rng.Intn(n)])
		default:
			c := b.Prb(sig)
			b.BrCond(c, u.Blocks[rng.Intn(n)], u.Blocks[rng.Intn(n)])
		}
	}
	return u
}

// crossesWait reports whether some path from a's terminator to b that
// does not enter a again takes a wait's edge.
func crossesWait(a, b *ir.Block) bool {
	// seen[x][w]: x reached, w whether a wait's edge was taken on the way.
	seen := map[*ir.Block][2]bool{}
	type step struct {
		x    *ir.Block
		wait bool
	}
	var work []step
	leave := func(x *ir.Block, wait bool) {
		t := x.Terminator()
		if t == nil {
			return
		}
		wait = wait || t.Op == ir.OpWait
		for _, s := range x.Succs() {
			if s == a {
				continue
			}
			k := 0
			if wait {
				k = 1
			}
			if v := seen[s]; !v[k] {
				v[k] = true
				seen[s] = v
				work = append(work, step{s, wait})
			}
		}
	}
	leave(a, false)
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		leave(s.x, s.wait)
	}
	return seen[b][1]
}

// TestTemporalRegionsBoundWaits checks what Blaze's probe reuse rests on
// against the paths themselves, on seeded random process CFGs: when block
// a dominates block b and both lie in one temporal region, no path from a
// to b that does not pass a again crosses a wait.
func TestTemporalRegionsBoundWaits(t *testing.T) {
	pairs := 0
	for seed := int64(0); seed < 2000; seed++ {
		u := randomProcCFG(seed)
		dt := ir.NewDomTree(u)
		trs := ir.TemporalRegions(dt)
		for _, a := range u.Blocks {
			for _, b := range u.Blocks {
				if a == b || !dt.Reachable(b) || !dt.Dominates(a, b) || !trs.SameTR(a, b) {
					continue
				}
				pairs++
				if crossesWait(a, b) {
					t.Fatalf("seed %d: %s dominates %s in TR %d, but a path between them crosses a wait",
						seed, a, b, trs.Of(a))
				}
			}
		}
	}
	if pairs < 1000 {
		t.Errorf("only %d dominating pairs in one region: the CFGs test nothing", pairs)
	}
}
