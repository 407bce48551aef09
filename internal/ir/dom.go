package ir

// DomTree is a dominator tree over a unit's CFG, computed with the
// Cooper-Harvey-Kennedy iterative algorithm. It is a snapshot: editing
// the CFG invalidates it.
//
// The tree is dense. Every block of the unit has an index: the
// reachable blocks come first, in reverse postorder (the entry is 0),
// the unreachable ones after them in layout order. Immediate
// dominators, depths and the entry/exit numbers of a depth-first walk
// of the tree are slices over that index, so a dominance query is two
// integer compares once the indices are known, and analyses built on the
// tree (temporal regions, hoist targets) can use the same index for
// their own tables. An unreachable block is a tree of its own: it
// dominates itself and nothing else.
type DomTree struct {
	blocks    []*Block         // index -> block
	layout    map[*Block]int32 // block -> position in the unit's block list
	byLayout  []int32          // layout position -> index
	nreach    int              // blocks[:nreach] are reachable
	idom      []int32          // immediate dominator; entry maps to itself, unreachable to -1
	depth     []int32          // distance from the entry in the tree
	pre       []int32          // DFS entry number in the tree
	post      []int32          // DFS exit number in the tree
	preorder  []int32          // reachable blocks in tree preorder, siblings in layout order
	predStart []int32          // CFG predecessors of i: predList[predStart[i]:predStart[i+1]]
	predList  []int32
}

// NewDomTree computes the dominator tree of u.
func NewDomTree(u *Unit) *DomTree {
	n := len(u.Blocks)
	t := &DomTree{layout: make(map[*Block]int32, n)}
	if n == 0 {
		return t
	}
	for pos, b := range u.Blocks {
		t.layout[b] = int32(pos)
	}
	// The successor lists, by layout position. A branch to a block that
	// is not in the unit is malformed IR; such an edge is dropped here
	// rather than followed.
	ints := make([]int32, 6*n+2) // one backing array for the per-block tables
	take := func(k int) []int32 {
		out := ints[:k:k]
		ints = ints[k:]
		return out
	}
	succStart := make([]int32, n+1)
	var succList []int32
	for pos, b := range u.Blocks {
		for _, s := range b.Succs() {
			if sp, ok := t.layout[s]; ok {
				succList = append(succList, sp)
			}
		}
		succStart[pos+1] = int32(len(succList))
	}

	// Postorder over the reachable blocks, with an explicit stack;
	// reversed, it numbers them. The unreachable ones follow in layout
	// order.
	const unnumbered = -1
	t.byLayout = take(n)
	for i := range t.byLayout {
		t.byLayout[i] = unnumbered
	}
	type frame struct{ pos, next int32 }
	visited := make([]bool, n)
	visited[0] = true
	stack := []frame{{pos: 0, next: succStart[0]}}
	order := make([]int32, 0, n) // layout positions: postorder, then reversed
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < succStart[f.pos+1] {
			s := succList[f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{pos: s, next: succStart[s]})
			}
			continue
		}
		order = append(order, f.pos)
		stack = stack[:len(stack)-1]
	}
	t.nreach = len(order)
	for i, j := 0, t.nreach-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for pos := range u.Blocks {
		if !visited[pos] {
			order = append(order, int32(pos))
		}
	}
	t.blocks = make([]*Block, len(order))
	for i, pos := range order {
		t.byLayout[pos] = int32(i)
		t.blocks[i] = u.Blocks[pos]
	}

	// Predecessor lists, by index: count, then fill.
	t.predStart = take(n + 1)
	for _, sp := range succList {
		t.predStart[t.byLayout[sp]+1]++
	}
	for i := 0; i < n; i++ {
		t.predStart[i+1] += t.predStart[i]
	}
	t.predList = make([]int32, len(succList))
	fill := make([]int32, n)
	for i, pos := range order {
		for _, sp := range succList[succStart[pos]:succStart[pos+1]] {
			s := t.byLayout[sp]
			t.predList[t.predStart[s]+fill[s]] = int32(i)
			fill[s]++
		}
	}

	t.idom, t.depth, t.pre, t.post = take(n), take(n), take(n), take(n)
	for i := range t.idom {
		t.idom[i] = -1
	}
	t.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < t.nreach; i++ {
			newIdom := int32(-1)
			for _, p := range t.Preds(i) {
				if t.idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && t.idom[i] != newIdom {
				t.idom[i] = newIdom
				changed = true
			}
		}
	}

	// A dominator precedes what it dominates in reverse postorder, so one
	// ascending sweep fills the depths. Children are collected in layout
	// order (count, then fill), which makes the tree preorder follow the
	// layout wherever the layout is itself a preorder of the tree.
	childStart := make([]int32, t.nreach+1)
	for i := 1; i < t.nreach; i++ {
		t.depth[i] = t.depth[t.idom[i]] + 1
		childStart[t.idom[i]+1]++
	}
	for i := 0; i < t.nreach; i++ {
		childStart[i+1] += childStart[i]
		fill[i] = 0
	}
	childList := make([]int32, t.nreach)
	for pos := 1; pos < len(u.Blocks); pos++ {
		if i := t.byLayout[pos]; int(i) < t.nreach && i != 0 {
			p := t.idom[i]
			childList[childStart[p]+fill[p]] = i
			fill[p]++
		}
	}
	t.preorder = make([]int32, 1, t.nreach)
	clock := int32(1) // the entry is entered at 0
	walk := append(stack[:0], frame{pos: 0, next: childStart[0]})
	for len(walk) > 0 {
		v := &walk[len(walk)-1]
		if v.next < childStart[v.pos+1] {
			c := childList[v.next]
			v.next++
			t.preorder = append(t.preorder, c)
			t.pre[c] = clock
			clock++
			walk = append(walk, frame{pos: c, next: childStart[c]})
			continue
		}
		t.post[v.pos] = clock
		clock++
		walk = walk[:len(walk)-1]
	}
	for i := t.nreach; i < n; i++ {
		t.pre[i] = clock
		t.post[i] = clock + 1
		clock += 2
	}
	return t
}

func (t *DomTree) intersect(a, b int32) int32 {
	for a != b {
		for a > b {
			a = t.idom[a]
		}
		for b > a {
			b = t.idom[b]
		}
	}
	return a
}

// Len returns the number of blocks the tree indexes: every block the unit
// had when the tree was built.
func (t *DomTree) Len() int { return len(t.blocks) }

// NumReachable returns the number of reachable blocks; they hold the
// indices below it.
func (t *DomTree) NumReachable() int { return t.nreach }

// Block returns the block with the given index.
func (t *DomTree) Block(i int) *Block { return t.blocks[i] }

// Index returns the dense index of b, or -1 for a block the unit did not
// have when the tree was built.
func (t *DomTree) Index(b *Block) int {
	if pos, ok := t.layout[b]; ok {
		return int(t.byLayout[pos])
	}
	return -1
}

// Preorder returns the indices of the reachable blocks in a preorder walk
// of the dominator tree: every block comes after all of its dominators.
// The slice belongs to the tree.
func (t *DomTree) Preorder() []int32 { return t.preorder }

// Preds returns the indices of the CFG predecessors of block i. The slice
// belongs to the tree.
func (t *DomTree) Preds(i int) []int32 { return t.predList[t.predStart[i]:t.predStart[i+1]] }

// IDomIndex returns the index of the immediate dominator of block i (the
// entry maps to itself), or -1 when i is unreachable.
func (t *DomTree) IDomIndex(i int) int { return int(t.idom[i]) }

// Depth returns the distance of block i from the entry in the dominator
// tree.
func (t *DomTree) Depth(i int) int { return int(t.depth[i]) }

// DominatesIndex reports whether block i dominates block j (reflexively).
func (t *DomTree) DominatesIndex(i, j int) bool {
	return t.pre[i] <= t.pre[j] && t.post[j] <= t.post[i]
}

// IDom returns the immediate dominator of b (the entry dominates itself).
// It returns nil for unreachable blocks.
func (t *DomTree) IDom(b *Block) *Block {
	i := t.Index(b)
	if i < 0 || t.idom[i] < 0 {
		return nil
	}
	return t.blocks[t.idom[i]]
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	i, j := t.Index(a), t.Index(b)
	return i >= 0 && j >= 0 && t.DominatesIndex(i, j)
}

// CommonDominator returns the closest block dominating both a and b, or nil
// if either is unreachable.
func (t *DomTree) CommonDominator(a, b *Block) *Block {
	i, j := t.Index(a), t.Index(b)
	if i < 0 || j < 0 || i >= t.nreach || j >= t.nreach {
		return nil
	}
	return t.blocks[t.intersect(int32(i), int32(j))]
}

// Reachable reports whether b is reachable from the entry.
func (t *DomTree) Reachable(b *Block) bool {
	i := t.Index(b)
	return i >= 0 && i < t.nreach
}
