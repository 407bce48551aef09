package ir_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/pass"
)

// dominatesByWalk is the definition the dense tree replaced: climb the
// immediate-dominator chain from b until a or the entry turns up.
func dominatesByWalk(dt *ir.DomTree, entry, a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		if b == entry || dt.IDom(b) == nil {
			return false
		}
		b = dt.IDom(b)
	}
}

// dominatesByRemoval is dominance from first principles, sharing nothing
// with the tree: a dominates a reachable b when every path from the entry
// to b passes through a, i.e. when b cannot be reached without entering a.
func dominatesByRemoval(u *ir.Unit, a, b *ir.Block) bool {
	if a == b {
		return true
	}
	reach := func(avoid *ir.Block) map[*ir.Block]bool {
		seen := map[*ir.Block]bool{}
		var walk func(x *ir.Block)
		walk = func(x *ir.Block) {
			if x == avoid || seen[x] {
				return
			}
			seen[x] = true
			for _, s := range x.Succs() {
				walk(s)
			}
		}
		walk(u.Entry())
		return seen
	}
	return reach(nil)[b] && reach(nil)[a] && !reach(a)[b]
}

func checkDomTree(t *testing.T, name string, u *ir.Unit, bruteForce bool) {
	t.Helper()
	if len(u.Blocks) == 0 {
		return
	}
	dt := ir.NewDomTree(u)
	if dt.Len() != len(u.Blocks) {
		t.Fatalf("%s: tree indexes %d blocks, unit has %d", name, dt.Len(), len(u.Blocks))
	}
	seen := make([]bool, dt.Len())
	for _, i := range dt.Preorder() {
		if id := dt.IDomIndex(int(i)); int(i) != 0 && !seen[id] {
			t.Errorf("%s: preorder visits %s before its immediate dominator", name, dt.Block(int(i)))
		}
		seen[i] = true
	}
	for _, a := range u.Blocks {
		if (dt.Index(a) < dt.NumReachable()) != dt.Reachable(a) {
			t.Errorf("%s: %s: index %d disagrees with Reachable", name, a, dt.Index(a))
		}
		for _, b := range u.Blocks {
			got := dt.Dominates(a, b)
			if want := dominatesByWalk(dt, u.Entry(), a, b); got != want {
				t.Errorf("%s: Dominates(%s, %s) = %v, the idom walk says %v", name, a, b, got, want)
			}
			if byIndex := dt.DominatesIndex(dt.Index(a), dt.Index(b)); byIndex != got {
				t.Errorf("%s: DominatesIndex(%s, %s) = %v, Dominates = %v", name, a, b, byIndex, got)
			}
			if bruteForce {
				if want := dominatesByRemoval(u, a, b); got != want {
					t.Errorf("%s: Dominates(%s, %s) = %v, path removal says %v", name, a, b, got, want)
				}
			}
		}
	}
}

// TestDomTreeAgreesWithIDomWalk pins the O(1) dominance query — two
// integer compares on DFS numbers — to the idom-chain walk it replaced, for
// every pair of blocks (unreachable ones included) of every Table 2 and
// corpus unit before and after lowering, and to dominance from first
// principles on seeded random CFGs.
func TestDomTreeAgreesWithIDomWalk(t *testing.T) {
	var mods []*ir.Module
	for _, d := range designs.All() {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		mods = append(mods, m)
	}
	entries, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.llhd"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no corpus entries (%v)", err)
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := assembly.Parse(filepath.Base(path), string(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		mods = append(mods, m)
	}
	for _, m := range mods {
		for _, stage := range []string{"behavioural", "lowered"} {
			if stage == "lowered" {
				if err := pass.LoweringPipeline().RunFixpoint(m); err != nil {
					t.Fatalf("%s: lower: %v", m.Name, err)
				}
			}
			for _, u := range m.Units {
				checkDomTree(t, fmt.Sprintf("%s/%s/@%s", m.Name, stage, u.Name), u, false)
			}
		}
	}

	for seed := int64(0); seed < 300; seed++ {
		checkDomTree(t, fmt.Sprintf("random/%d", seed), randomCFG(seed), true)
	}
}

// randomCFG builds a function of 1..24 blocks whose terminators are drawn
// at random: returns, jumps and two-way branches to any block, the entry
// and the block itself included. Unreachable blocks come out naturally.
func randomCFG(seed int64) *ir.Unit {
	rng := rand.New(rand.NewSource(seed))
	u := ir.NewUnit(ir.UnitFunc, fmt.Sprintf("cfg%d", seed))
	cond := u.AddInput("c", ir.IntType(1))
	n := 1 + rng.Intn(24)
	for i := 0; i < n; i++ {
		u.AddBlock(fmt.Sprintf("b%d", i))
	}
	b := ir.NewBuilder(u)
	for _, blk := range u.Blocks {
		b.SetBlock(blk)
		switch k := rng.Intn(10); {
		case k == 0:
			b.Ret(nil)
		case k < 5:
			b.Br(u.Blocks[rng.Intn(n)])
		default:
			b.BrCond(cond, u.Blocks[rng.Intn(n)], u.Blocks[rng.Intn(n)])
		}
	}
	return u
}

// TestDomTreeIgnoresForeignEdges: a branch to a block the unit does not
// hold is malformed IR that Verify may be handed; the tree must not follow
// it (or index out of range), and must treat the stranger as undominated.
func TestDomTreeIgnoresForeignEdges(t *testing.T) {
	u := ir.NewUnit(ir.UnitFunc, "f")
	entry := u.AddBlock("entry")
	gone := u.AddBlock("gone")
	b := ir.NewBuilder(u)
	b.SetBlock(entry)
	b.Br(gone)
	b.SetBlock(gone)
	b.Ret(nil)
	u.RemoveBlock(gone)

	dt := ir.NewDomTree(u)
	if dt.Len() != 1 || dt.Index(gone) != -1 || dt.Reachable(gone) || dt.IDom(gone) != nil {
		t.Errorf("foreign block leaked into the tree: len %d, index %d", dt.Len(), dt.Index(gone))
	}
	if dt.Dominates(entry, gone) || !dt.Dominates(gone, gone) {
		t.Error("a foreign block is dominated by itself only")
	}
	if pre := dt.Preorder(); len(pre) != 1 || pre[0] != 0 {
		t.Errorf("preorder = %v, want the entry alone", pre)
	}
}
