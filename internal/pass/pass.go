// Package pass implements the LLHD transformation passes of §4 of the
// paper: the basic cleanups (constant folding, DCE, CSE, instruction
// simplification, inlining, mem2reg), and the lowering pipeline from
// Behavioural to Structural LLHD (ECM, TCM, TCFE, process lowering,
// desequentialization), plus the structural cleanups used at the end of
// Figure 5 (entity inlining and signal forwarding).
package pass

import (
	"fmt"
	"io"
	"time"

	"llhd/internal/ir"
)

// Pass is a module transformation. Run reports whether it changed the
// module.
type Pass interface {
	Name() string
	Run(m *ir.Module) (bool, error)
}

// unitPass adapts a per-unit transformation to the Pass interface.
type unitPass struct {
	name string
	// kinds restricts the pass to certain unit kinds; empty means all.
	kinds []ir.UnitKind
	run   func(u *ir.Unit) (bool, error)
}

func (p *unitPass) Name() string { return p.name }

func (p *unitPass) Run(m *ir.Module) (bool, error) {
	changed := false
	for _, u := range m.Units {
		if len(p.kinds) > 0 {
			ok := false
			for _, k := range p.kinds {
				if u.Kind == k {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		c, err := p.run(u)
		if err != nil {
			return changed, fmt.Errorf("%s: @%s: %w", p.name, u.Name, err)
		}
		changed = changed || c
	}
	return changed, nil
}

// Pipeline runs passes in order; RunFixpoint repeats until stable.
type Pipeline struct {
	Passes []Pass
	// VerifyEach runs ir.Verify(m, ir.Behavioural) after every pass
	// application and fails naming the offending pass. It is a debug
	// mode: the fuzzer and the lowering validity tests use it to
	// attribute an invariant break to the pass that introduced it.
	VerifyEach bool
	// CollectStats makes Run append one PassStat per pass application to
	// Stats. Off, Run reads no clock and counts nothing.
	CollectStats bool
	Stats        []PassStat
}

// PassStat is what one application of a pass did to the module: how long
// it took, whether it reported a change, and the instruction and block
// totals on either side of it.
type PassStat struct {
	Pass                      string
	Wall                      time.Duration
	Changed                   bool
	InstsBefore, InstsAfter   int
	BlocksBefore, BlocksAfter int
}

// Delta renders the counts of the application — the part of a PassStat
// that is the same on every run.
func (s PassStat) Delta() string {
	return fmt.Sprintf("insts %d -> %d, blocks %d -> %d", s.InstsBefore, s.InstsAfter, s.BlocksBefore, s.BlocksAfter)
}

func moduleSize(m *ir.Module) (insts, blocks int) {
	for _, u := range m.Units {
		insts += u.NumInsts()
		blocks += len(u.Blocks)
	}
	return insts, blocks
}

// WriteStats prints the collected statistics as a table, one row per pass
// application in the order they ran.
func (pl *Pipeline) WriteStats(w io.Writer) {
	fmt.Fprintf(w, "%4s  %-18s %10s  %-7s  %s\n", "#", "pass", "ms", "changed", "size")
	for i, s := range pl.Stats {
		fmt.Fprintf(w, "%4d  %-18s %10.3f  %-7v  %s\n", i+1, s.Pass, s.Wall.Seconds()*1e3, s.Changed, s.Delta())
	}
}

// Run executes each pass once in order.
func (pl *Pipeline) Run(m *ir.Module) (bool, error) {
	changed := false
	var insts, blocks int
	if pl.CollectStats {
		insts, blocks = moduleSize(m)
	}
	for _, p := range pl.Passes {
		var start time.Time
		if pl.CollectStats {
			start = time.Now()
		}
		c, err := p.Run(m)
		if pl.CollectStats {
			st := PassStat{Pass: p.Name(), Wall: time.Since(start), Changed: c, InstsBefore: insts, BlocksBefore: blocks}
			insts, blocks = moduleSize(m)
			st.InstsAfter, st.BlocksAfter = insts, blocks
			pl.Stats = append(pl.Stats, st)
		}
		if err != nil {
			return changed, err
		}
		changed = changed || c
		if pl.VerifyEach {
			if err := ir.Verify(m, ir.Behavioural); err != nil {
				return changed, fmt.Errorf("verify-each: after pass %q: %w", p.Name(), err)
			}
		}
	}
	return changed, nil
}

// RunFixpoint repeats the pipeline until no pass reports a change (capped
// at limit iterations).
func (pl *Pipeline) RunFixpoint(m *ir.Module, limit int) error {
	for i := 0; i < limit; i++ {
		changed, err := pl.Run(m)
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// Names lists the pass names in order.
func (pl *Pipeline) Names() []string {
	names := make([]string, len(pl.Passes))
	for i, p := range pl.Passes {
		names[i] = p.Name()
	}
	return names
}

// BasicPipeline returns the §4.1 cleanup passes: CF, DCE, CSE, IS,
// inlining, and memory-to-register promotion.
func BasicPipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		Inline(),
		Mem2Reg(),
		ConstantFold(),
		InstSimplify(),
		CSE(),
		DCE(),
	}}
}

// LoweringPipeline returns the behavioural-to-structural lowering of §4:
// the basic cleanups followed by ECM, TCM, TCFE, PL, and Deseq, then the
// structural cleanups of Figure 5 (entity inlining, signal forwarding).
func LoweringPipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		Inline(),
		Mem2Reg(),
		ConstantFold(),
		InstSimplify(),
		CSE(),
		DCE(),
		ECM(),
		TCM(),
		ConstantFold(),
		InstSimplify(),
		DCE(),
		TCFE(),
		ProcessLowering(),
		Desequentialize(),
		InlineEntities(),
		SignalForwarding(),
		ConstantFold(),
		InstSimplify(),
		CSE(),
		DCE(),
	}}
}

// Lower runs the full lowering pipeline to fixpoint and verifies the
// result at the requested level.
func Lower(m *ir.Module, target ir.Level) error {
	pl := LoweringPipeline()
	if err := pl.RunFixpoint(m, 8); err != nil {
		return err
	}
	return ir.Verify(m, target)
}
