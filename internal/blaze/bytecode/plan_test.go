package bytecode

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/engine"
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
	}{
		{"blaze_load_killed_by_store.llhd", opMove, 2, "%old: read again after a store to its var (and the st of %kn, read twice)"},
		{"blaze_load_used_in_successor.llhd", opMove, 2, "%a: used in a successor block (and the st of %c, read three times)"},
		{"blaze_load_feeds_phi.llhd", opMove, 2, "%a: feeds a phi (and the st of %kn, read twice)"},
		{"blaze_load_wait_timeout.llhd", opMove, 2, "%d: read by the wait timeout (and the st of %kn, read three times)"},
		{"blaze_var_escapes.llhd", opMove, 7, "four ld and three st of the two escaping vars"},
		{"blaze_store_value_reused.llhd", opMove, 1, "st of %sum, which is read again"},
		{"blaze_store_not_adjacent.llhd", opMove, 1, "st of %sum, two instructions after it"},
		{"blaze_splice_middle_reused.llhd", opInsSCat, 2, "the chain breaks at %mid: two halves, not one"},
		{"blaze_splice_across_join.llhd", opInsSInt, 3, "%lo, %w and %wk: the chain crosses a block boundary, then a forwarded ld"},
		{"blaze_br_next_with_phi.llhd", opJump, 2, "entry -> head carries phi moves (the other is body -> head)"},
		{"blaze_jump_cycles.llhd", opJump, 2, "%spin and %pong -> %ping, each a jump to itself"},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		seen[c.file] = true
		t.Run(strings.TrimSuffix(c.file, ".llhd"), func(t *testing.T) {
			u := lowerDesign(t, c.file, corpusEntry(t, c.file))["p"]
			if got := countOps(u, c.op); got != c.want {
				t.Errorf("@p holds %d %s, want %d (%s)\n%s", got, c.op, c.want, c.why, Disasm(u))
			}
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
