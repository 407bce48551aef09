package bytecode

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/engine"
	"llhd/internal/pass"
	"llhd/internal/val"
)

// idle is the process lowerDesign hands the elaborator: the tests want
// the lowered units, not a simulation.
type idle struct {
	engine.ProcHandle
	name string
}

func (p *idle) Name() string        { return p.name }
func (p *idle) Init(*engine.Engine) {}
func (p *idle) Wake(*engine.Engine) {}

// lowerDesign elaborates the design under @top the way blaze does — every
// unit lowered against its first instance — and returns the lowered units
// by name.
func lowerDesign(t *testing.T, name, src string) map[string]*Unit {
	t.Helper()
	m, err := assembly.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog := NewProgram(m)
	units := map[string]*Unit{}
	factory := func(inst *engine.Instance) (engine.Process, error) {
		if _, ok := units[inst.Unit.Name]; !ok {
			u, err := prog.LowerUnit(inst)
			if err != nil {
				return nil, err
			}
			units[inst.Unit.Name] = u
		}
		return &idle{name: inst.Name}, nil
	}
	if err := engine.Elaborate(engine.New(), m, "top", factory); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return units
}

// corpusEntry reads an entry of the root package's corpus.
func corpusEntry(t *testing.T, file string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "corpus", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// countOps returns how many instructions of u have the opcode.
func countOps(u *Unit, op Op) int {
	n := 0
	for _, i := range u.Code {
		if i.Op == op {
			n++
		}
	}
	return n
}

// TestRewritesHoldBack reads the adversarial corpus entries — one per
// condition of plan.go that must keep a rewrite from firing; root
// TestCorpusReplay runs each through the four-leg oracle — and checks that
// the lowered @p still holds the instruction the rewrite would have
// dropped. The counts are those of the plain transcription for that
// opcode; one that shrinks means a rule fired where it must not.
func TestRewritesHoldBack(t *testing.T) {
	cases := []struct {
		file string
		op   Op
		want int
		why  string
		// lead: count only the instructions ahead of the first transfer,
		// where what a unit's entry block computes stands.
		lead bool
	}{
		{"blaze_load_killed_by_store.llhd", opMove, 2, "%old: read again after a store to its var (and the st of %kn, read twice)", false},
		{"blaze_load_used_in_successor.llhd", opMove, 2, "%a: used in a successor block (and the st of %c, read three times)", false},
		{"blaze_load_feeds_phi.llhd", opMove, 2, "%a: feeds a phi (and the st of %kn, read twice)", false},
		{"blaze_load_wait_timeout.llhd", opMove, 2, "%d: read by the wait timeout (and the st of %kn, read three times)", false},
		{"blaze_var_escapes.llhd", opMove, 7, "four ld and three st of the two escaping vars", false},
		{"blaze_store_value_reused.llhd", opMove, 1, "st of %sum, which is read again", false},
		{"blaze_store_not_adjacent.llhd", opMove, 1, "st of %sum, two instructions after it", false},
		{"blaze_splice_middle_reused.llhd", opInsSCat, 2, "the chain breaks at %mid: two halves, not one", false},
		{"blaze_splice_across_join.llhd", opInsSInt, 3, "%lo, %w and %wk: the chain crosses a block boundary, then a forwarded ld", false},
		{"blaze_br_next_with_phi.llhd", opMoves, 1, "entry -> head moves %one into %i ahead of its fall-through", false},
		{"blaze_jump_cycles.llhd", opJump, 2, "%spin and %pong -> %ping, each a jump to itself", false},
		{"blaze_init_seen_on_one_path.llhd", opClone, 1, "%slot: the skipping arm reaches the load without a store", false},
		{"blaze_init_seen_on_loop_entry.llhd", opClone, 1, "%acc: the entry edge reaches the loop head's load without a store", false},
		{"blaze_branch_compare_reused.llhd", opUlt, 1, "%c: driven in the block the branch enters", false},
		{"blaze_branch_compare_before_store.llhd", opEq, 1, "%same: a store to the var it reads stands between it and the branch", false},
		{"blaze_splice_not_a_run.llhd", opInsSCat, 1, "a gap, a width change and a second source: no run", false},
		{"blaze_phi_swap.llhd", opMoves, 2, "entry -> head, and body -> head, which swaps %a and %b", false},
		{"blaze_phi_chain.llhd", opMoves, 2, "entry -> head, and body -> head, where %a reads the %b that %b <- %c writes", false},
		{"blaze_probe_across_wait.llhd", opPrb, 2, "%after: the wait between it and %before ends the activation", false},
		{"blaze_probe_stored.llhd", opMove, 2, "st of %a, whose register %b reads (and the st of %kn, read twice)", false},
		{"blaze_probe_loop_wait.llhd", opPrb, 2, "%again: the loop's back edge waits between it and %first", false},
		{"blaze_probe_loop_store.llhd", opMove, 1, "st of %g0, whose register %g1 reads in the loop", false},
		{"blaze_zext_users.llhd", opInsSInt, 5, "%zd, %zp, %zc, %zn and %zt: driven, a phi's, a call's, not read next, read twice", false},
		{"blaze_sink_div.llhd", opEvalBin, 1, "%d: a udiv, which may fail, stays ahead of the branch", true},
		{"blaze_sink_loop.llhd", opMul, 1, "%y: read in the loop's body, computed before the loop", true},
		{"blaze_coalesce_lost_copy.llhd", opMoves, 1, "entry -> join moves %a into %m: %a is read after the join", false},
		{"blaze_coalesce_wait.llhd", opMoves, 1, "tail -> head moves %n into %i: %i is read after the wait, where %n is live", false},
		{"blaze_rise_new_read.llhd", opPrb, 3, "%old, %new and %x: the body drives %new", false},
		{"blaze_rise_negedge.llhd", opPrb, 3, "%old, %new and %x: a falling edge", false},
		{"blaze_rise_two_events.llhd", opPrb, 5, "%clk0, %rst0, %clk1, %rst1 and %x: the br tests an or of two edges", false},
		{"blaze_rise_wait_in_body.llhd", opBrRise, 1, "the edge test, whose check skips the head probe (and %tail does not)", false},
		{"blaze_rise_head_not_first.llhd", opBrRise, 1, "the edge test (and no back edge skips the count ahead of the head probe)", false},
		{"blaze_trunc_shifts.llhd", opExtSInt, 2, "%ts and %ta: truncations of a shr and an ashr", false},
		{"blaze_trunc_reused.llhd", opExtSInt, 1, "%t: the sum it truncates is driven too", false},
		{"blaze_trunc_not_adjacent.llhd", opExtSInt, 1, "%t: a drive stands between it and the sum", false},
		{"blaze_trunc_not_branch.llhd", opNot, 1, "%n, narrowed to %b's bit (rule 14): rule 6 must not fuse a not of i8", false},
	}
	// The transfers that land past an edge wait's head probe (rule 13),
	// where a back edge may or must not skip it.
	skips := map[string]int{
		"blaze_rise_new_read.llhd":       0,
		"blaze_rise_negedge.llhd":        0,
		"blaze_rise_wait_in_body.llhd":   1,
		"blaze_rise_head_not_first.llhd": 0,
	}
	seen := map[string]bool{}
	for _, c := range cases {
		seen[c.file] = true
		t.Run(strings.TrimSuffix(c.file, ".llhd"), func(t *testing.T) {
			u := lowerDesign(t, c.file, corpusEntry(t, c.file))["p"]
			got := countOps(u, c.op)
			if c.lead {
				got = countOps(&Unit{Code: u.Code[:firstTransfer(u)]}, c.op)
			}
			if got != c.want {
				t.Errorf("@p holds %d %s, want %d (%s)\n%s", got, c.op, c.want, c.why, Disasm(u))
			}
			if want, ok := skips[c.file]; ok && pastProbe(u) != want {
				t.Errorf("@p has %d transfers past a head probe, want %d\n%s", pastProbe(u), want, Disasm(u))
			}
			checkMovesInOrder(t, u)
		})
	}
	// Every blaze_* entry states a condition; one without a row here is
	// replayed but never looked at.
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "corpus", "blaze_*.llhd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !seen[filepath.Base(f)] {
			t.Errorf("%s has no expectation in this test", filepath.Base(f))
		}
	}
}

// firstTransfer returns the pc of the first instruction of u that ends
// straight-line code: a jump, branch, suspension or halt.
func firstTransfer(u *Unit) int {
	for pc, i := range u.Code {
		switch i.Op {
		case opJump, opBranch, opBrEq, opBrUlt, opBrRise, opSuspend, opHalt, opRet, opRetV:
			return pc
		}
	}
	return len(u.Code)
}

// pastProbe counts the transfers and resume points of u that land right
// behind a prb: the back edges that rule 13 lets skip an edge wait's head
// probe, and any that threading carried through such a jump.
func pastProbe(u *Unit) int {
	n := 0
	for _, i := range u.Code {
		retarget(&i, func(pc int32) int32 {
			if pc > 0 && u.Code[pc-1].Op == opPrb {
				n++
			}
			return pc
		})
	}
	return n
}

// TestJumpCyclesKeepACountedTransfer pins rule 3's bound on the two
// jump-only cycles: threading stops, and what is left of each cycle is a
// jump whose target is itself — the backward transfer run counts against
// maxJumps (TestMaxJumpsGuard spins them).
func TestJumpCyclesKeepACountedTransfer(t *testing.T) {
	u := lowerDesign(t, "cycles", corpusEntry(t, "blaze_jump_cycles.llhd"))["p"]
	self := 0
	for pc, i := range u.Code {
		if i.Op == opJump && int(i.A) == pc {
			self++
		}
	}
	if self != 2 {
		t.Errorf("%d jumps target themselves, want 2 (%%spin, and %%ping/%%pong folded into one)\n%s", self, Disasm(u))
	}
}

// TestRewritesFire is TestRewritesHoldBack's other half for rules 5-12
// and the edge moves: the corpus entry branch_on_compare.llhd, built so
// that each of rules 5-8 may fire, lowers with every compare and the i1
// not inside its branch, no jump left that lands on a branch, the one var
// whose initial value is read initialised and the other not, and its
// replicate chain as one inss.rep. After the §4 lowering, which turns its
// vars into phis and hoists its compares ahead of the branches, rules 10
// and 11 give back the same shape: every compare placed in front of its
// branch and fused, and the running sum in one register, so that only
// constants are moved and no jump is left. Entries TestRewritesHoldBack
// reads have a rewrite that must fire next to the one that must not: %b
// of blaze_probe_stored.llhd reuses %a's probe (rule 9); in
// blaze_phi_chain.llhd, %k shares %x's register (rule 11), and the back
// edge moves nothing onto it; in blaze_coalesce_lost_copy.llhd, %b is
// placed in the arm that reads it (rule 10) and shares %m's register; in
// blaze_br_next_with_phi.llhd, the entry edge falls through after its
// moves and %inext shares %i's register; in blaze_probe_loop_store.llhd,
// the loop body reuses the probes ahead of the loop (rule 9); in
// blaze_zext_users.llhd, @q reads every zero-extension through (rule 12).
// And edge_wait_truncations.llhd, a flip-flop in Moore's form, tests its
// clock edge in one br.rise whose back edges skip the head probe (rule
// 13), and computes each of its nine truncations where the value is
// computed (rule 14).
func TestRewritesFire(t *testing.T) {
	u := lowerDesign(t, "branch_on_compare", corpusEntry(t, "branch_on_compare.llhd"))["p"]
	for _, c := range []struct {
		op   Op
		want int
	}{
		{opEq, 0}, {opNeq, 0}, {opUlt, 0}, {opUgt, 0}, {opUle, 0}, {opUge, 0}, {opNot, 0},
		{opBrEq, 2}, {opBrUlt, 5}, {opBranch, 1},
		{opClone, 1}, {opInsSRep, 1}, {opInsSCat, 0}, {opInsSInt, 0},
	} {
		if got := countOps(u, c.op); got != c.want {
			t.Errorf("@p holds %d %s, want %d", got, c.op, c.want)
		}
	}
	for pc, i := range u.Code {
		if i.Op == opJump {
			t.Errorf("pc %d: a jump is left, to %s", pc, u.Code[i.A].Op)
		}
	}
	if t.Failed() {
		t.Log("\n" + Disasm(u))
	}

	m, err := assembly.Parse("branch_on_compare", corpusEntry(t, "branch_on_compare.llhd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pass.LoweringPipeline().RunFixpoint(m); err != nil {
		t.Fatal(err)
	}
	for _, lu := range lowerModule(t, m, "top") {
		if lu.Name == "p" {
			u = lu
		}
	}
	for _, op := range []Op{opEq, opNeq, opUlt, opUgt, opUle, opUge, opNot, opJump} {
		if got := countOps(u, op); got != 0 {
			t.Errorf("lowered @p holds %d %s, want none", got, op)
		}
	}
	// %k's start, and %sum's at the head of the step and at an arm it skips.
	if got := countCopies(u); got != 3 {
		t.Errorf("lowered @p makes %d edge-move copies, want 3", got)
	}
	if t.Failed() {
		t.Log("\n" + Disasm(u))
	}

	if u := lowerDesign(t, "probe_stored", corpusEntry(t, "blaze_probe_stored.llhd"))["p"]; countOps(u, opPrb) != 1 {
		t.Errorf("blaze_probe_stored: @p holds %d prb, want 1\n%s", countOps(u, opPrb), Disasm(u))
	}
	// Entry -> head copies %b and %a; body -> head copies %c and %b.
	if u := lowerDesign(t, "phi_chain", corpusEntry(t, "blaze_phi_chain.llhd"))["p"]; countCopies(u) != 4 {
		t.Errorf("blaze_phi_chain: @p makes %d edge-move copies, want 4\n%s", countCopies(u), Disasm(u))
	}
	// %a, ahead of the branch; %b, in %other, and none of it moved.
	if u := lowerDesign(t, "lost_copy", corpusEntry(t, "blaze_coalesce_lost_copy.llhd"))["p"]; countOps(u, opAdd) != 2 ||
		countOps(&Unit{Code: u.Code[:firstTransfer(u)]}, opAdd) != 1 || countCopies(u) != 1 {
		t.Errorf("blaze_coalesce_lost_copy: want %%b placed after the branch and only %%a copied\n%s", Disasm(u))
	}
	if u := lowerDesign(t, "br_next", corpusEntry(t, "blaze_br_next_with_phi.llhd"))["p"]; countOps(u, opJump) != 0 || countCopies(u) != 1 {
		t.Errorf("blaze_br_next_with_phi: want no jump and one copy, %%one into %%i\n%s", Disasm(u))
	}
	// %g1 and %h1 reuse %g0's and %h0's probes in the loop; the entry
	// edge copies %h0 into %w and the constant into %k.
	if u := lowerDesign(t, "loop_store", corpusEntry(t, "blaze_probe_loop_store.llhd"))["p"]; countOps(u, opPrb) != 2 || countCopies(u) != 2 {
		t.Errorf("blaze_probe_loop_store: want two prb and two copies\n%s", Disasm(u))
	}
	// Every zero-extension of @q is read through (rule 12): the inss.i
	// left are %u13, which reads one as its source, and %a12.
	u = lowerDesign(t, "zext_users", corpusEntry(t, "blaze_zext_users.llhd"))["q"]
	for _, c := range []struct {
		op   Op
		want int
	}{
		{opInsSInt, 2}, {opEq, 1}, {opNeq, 1}, {opBrEq, 1}, {opBrUlt, 1},
	} {
		if got := countOps(u, c.op); got != c.want {
			t.Errorf("blaze_zext_users: @q holds %d %s, want %d", got, c.op, c.want)
		}
	}
	if t.Failed() {
		t.Log("\n" + Disasm(u))
	}

	u = lowerDesign(t, "edge_wait", corpusEntry(t, "edge_wait_truncations.llhd"))["p"]
	for _, c := range []struct {
		op   Op
		want int
	}{
		{opBrRise, 1}, {opNeq, 0}, {opBranch, 0}, {opExtSInt, 0}, {opPrb, 2}, {opAnd, 1},
	} {
		if got := countOps(u, c.op); got != c.want {
			t.Errorf("edge_wait_truncations: @p holds %d %s, want %d", got, c.op, c.want)
		}
	}
	// The check's false edge, and the body's back edge.
	if got := pastProbe(u); got != 2 {
		t.Errorf("edge_wait_truncations: %d transfers land past the head probe, want 2", got)
	}
	if t.Failed() {
		t.Log("\n" + Disasm(u))
	}
}

// countCopies returns how many copies the edge moves of u make.
func countCopies(u *Unit) int {
	n := 0
	for _, i := range u.Code {
		if i.Op == opMoves {
			n += int(i.B)
		}
	}
	return n
}

// checkMovesInOrder holds every opMoves of u to the order its copies run
// in: no copy reads a register that an earlier copy of the edge wrote,
// the scratch register aside, which is read only after it was written; no
// register is written twice, and none is copied onto itself.
func checkMovesInOrder(t *testing.T, u *Unit) {
	t.Helper()
	tmp := int32(u.unit.Numbering().Len())
	for pc, i := range u.Code {
		if i.Op != opMoves {
			continue
		}
		written := map[int32]bool{}
		for k := i.A; k < i.A+2*i.B; k += 2 {
			src, dst := u.Aux[k], u.Aux[k+1]
			switch {
			case src == dst:
				t.Errorf("@%s pc %d: r%d is copied onto itself", u.Name, pc, src)
			case src != tmp && written[src]:
				t.Errorf("@%s pc %d: r%d is read after a copy of the same edge wrote it", u.Name, pc, src)
			case src == tmp && !written[tmp]:
				t.Errorf("@%s pc %d: the scratch register is read before it is written", u.Name, pc)
			case dst != tmp && written[dst]:
				t.Errorf("@%s pc %d: r%d is written twice", u.Name, pc, dst)
			}
			written[dst] = true
		}
	}
}

// TestEdgeMovesAreParallel runs what sequence makes of random parallel
// moves — over six registers, so that chains, fans and cycles, several at
// once, are all common — and compares the registers with the parallel
// copy's. The scratch register is there only when the moves hold a cycle.
func TestEdgeMovesAreParallel(t *testing.T) {
	m := assembly.MustParse("m", `
proc @p () -> () {
 entry:
  %a = const i8 0
  %b = const i8 1
  %c = const i8 2
  %d = const i8 3
  %e = const i8 4
  halt
}
`)
	num := m.Unit("p").Numbering()
	n := num.Len()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		var pairs []int32
		for _, dst := range rng.Perm(n)[:1+rng.Intn(n)] {
			src := rng.Intn(n - 1)
			if src >= dst {
				src++
			}
			pairs = append(pairs, int32(src), int32(dst))
		}
		want := make([]val.Value, n)
		for r := range want {
			want[r] = val.Int(8, uint64(r))
		}
		regs := append([]val.Value(nil), want...)
		for k := 0; k < len(pairs); k += 2 {
			want[pairs[k+1]] = regs[pairs[k]]
		}
		cycle := hasCycle(pairs)
		desc := fmt.Sprint(pairs)

		lo := &lowerer{num: num, u: &Unit{Name: "p", NRegs: n, unit: m.Unit("p")}}
		lo.emitMoves(pairs)
		lo.emit(Instr{Op: opHalt})
		if got := lo.u.NRegs == n+1; got != cycle {
			t.Fatalf("moves %s: scratch register %v, cycle %v\n%s", desc, got, cycle, Disasm(lo.u))
		}
		checkMovesInOrder(t, lo.u)
		fr := &Frame{Regs: make([]val.Value, lo.u.NRegs)}
		copy(fr.Regs, regs)
		if _, err := NewRuntime(NewProgram(m)).Exec(engine.New(), lo.u, fr, 0); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			if !fr.Regs[r].Eq(want[r]) {
				t.Fatalf("moves %s: r%d = %s, want %s\n%s", desc, r, fr.Regs[r], want[r], Disasm(lo.u))
			}
		}
	}
}

// hasCycle reports whether parallel moves, (src, dst) pairs with distinct
// dsts, hold a cycle: a move whose src, followed back through the moves
// that write it, comes round to its dst.
func hasCycle(pairs []int32) bool {
	writer := map[int32]int32{} // dst -> src
	for k := 0; k < len(pairs); k += 2 {
		writer[pairs[k+1]] = pairs[k]
	}
	for k := 0; k < len(pairs); k += 2 {
		r := pairs[k]
		for steps := 0; steps < len(pairs); steps++ {
			if r == pairs[k+1] {
				return true
			}
			src, ok := writer[r]
			if !ok {
				break
			}
			r = src
		}
	}
	return false
}
