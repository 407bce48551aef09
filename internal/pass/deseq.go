package pass

import (
	"fmt"

	"llhd/internal/ir"
)

// Desequentialize returns the Deseq pass (§4.6): processes with two blocks
// and two temporal regions — the canonical form TCM and TCFE produce for
// sequential circuits — are analyzed for flip-flop and latch behaviour.
// Drive conditions are canonicalized into DNF; conjuncts pairing an "old"
// (pre-wait) and a "present" (post-wait) sample of the same signal are
// recognized as rise/fall edges, remaining terms become level gates, and
// each drive maps to a reg instruction in an entity that replaces the
// process in place.
func Desequentialize() Pass {
	return &unitPass{
		name:  "deseq",
		kinds: []ir.UnitKind{ir.UnitProc},
		run:   deseqUnit,
	}
}

func deseqUnit(u *ir.Unit) (bool, error) {
	if len(u.Blocks) != 2 {
		return false, nil
	}
	trs := ir.TemporalRegions(ir.NewDomTree(u))
	if trs.Count != 2 {
		return false, nil
	}
	// Identify the past block (ends in wait) and the present block (holds
	// the drives and branches back).
	var past, present *ir.Block
	for _, b := range u.Blocks {
		term := b.Terminator()
		if term == nil {
			return false, nil
		}
		switch term.Op {
		case ir.OpWait:
			past = b
		case ir.OpBr:
			if len(term.Dests) == 1 {
				present = b
			}
		}
	}
	if past == nil || present == nil {
		return false, nil
	}
	if past.Terminator().Dests[0] != present || present.Terminator().Dests[0] != past {
		return false, nil
	}
	if past.Terminator().TimeArg != nil {
		return false, nil // timed waits cannot become registers
	}

	// Classify probes into past/present samples per signal.
	sampleBlock := map[ir.Value]*ir.Block{} // prb inst -> block
	prbSignal := map[ir.Value]ir.Value{}    // prb inst -> signal value
	for _, b := range []*ir.Block{past, present} {
		for _, in := range b.Insts {
			if in.Op == ir.OpPrb {
				sampleBlock[in] = b
				prbSignal[in] = rootSignal(in.Args[0])
			}
		}
	}

	// Analyze every drive in the present block; all must convert.
	type regPlan struct {
		drv      *ir.Inst
		triggers []ir.RegTrigger
	}
	var plans []regPlan
	for _, in := range present.Insts {
		if in.Op != ir.OpDrv {
			continue
		}
		if len(in.Args) != 4 {
			return false, nil // unconditional drive in a sequential process
		}
		d, ok := buildDNF(in.Args[3], false)
		if !ok || len(d) == 0 {
			return false, nil
		}
		var triggers []ir.RegTrigger
		for _, c := range d {
			tr, ok := conjunctToTrigger(c, past, present, sampleBlock, prbSignal, in)
			if !ok {
				return false, nil
			}
			triggers = append(triggers, tr)
		}
		plans = append(plans, regPlan{drv: in, triggers: triggers})
	}
	if len(plans) == 0 {
		return false, nil
	}
	// Any other side-effecting instruction blocks the conversion.
	for _, b := range []*ir.Block{past, present} {
		for _, in := range b.Insts {
			switch in.Op {
			case ir.OpDrv, ir.OpPrb, ir.OpWait, ir.OpBr:
			default:
				if !in.Op.IsPure() {
					return false, nil
				}
			}
		}
	}

	// Build the replacement entity body by cloning the present-sample DFG.
	body := &ir.Block{}
	cl := &dfgCloner{unit: u, body: body, memo: map[ir.Value]ir.Value{}}
	var regs []*ir.Inst
	okAll := true
	for _, plan := range plans {
		sig, err := cl.clone(plan.drv.Args[0])
		if err != nil {
			okAll = false
			break
		}
		delay, err := cl.clone(plan.drv.Args[2])
		if err != nil {
			okAll = false
			break
		}
		reg := &ir.Inst{Op: ir.OpReg, Ty: ir.VoidType(), Args: []ir.Value{sig}, Delay: delay}
		for _, tr := range plan.triggers {
			v, err := cl.clone(plan.drv.Args[1])
			if err != nil {
				okAll = false
				break
			}
			trigVal, err := cl.clone(tr.Trigger)
			if err != nil {
				okAll = false
				break
			}
			newTr := ir.RegTrigger{Mode: tr.Mode, Value: v, Trigger: trigVal}
			if tr.Gate != nil {
				g, err := cl.clone(tr.Gate)
				if err != nil {
					okAll = false
					break
				}
				newTr.Gate = g
			}
			reg.Triggers = append(reg.Triggers, newTr)
		}
		if !okAll {
			break
		}
		regs = append(regs, reg)
	}
	if !okAll {
		return false, nil
	}
	for _, reg := range regs {
		body.Append(reg)
	}

	// Replace the process in place with the entity.
	u.Kind = ir.UnitEntity
	u.Blocks = []*ir.Block{body}
	body.SetName("body")
	attachBlock(u, body)
	return true, nil
}

// conjunctToTrigger classifies one DNF conjunct (§4.6): exactly one
// (past, present) sample pair of a signal forms an edge; with no pair, a
// present-sample literal forms a level trigger; everything else gates the
// trigger. Past samples without a present partner cannot be expressed.
func conjunctToTrigger(c conjunct, past, present *ir.Block,
	sampleBlock map[ir.Value]*ir.Block, prbSignal map[ir.Value]ir.Value,
	drv *ir.Inst) (ir.RegTrigger, bool) {

	type sample struct {
		lit   literal
		isPrb bool
		sig   ir.Value
	}
	var pastS, presentS, opaque []sample
	for _, l := range c.literals() {
		s := sample{lit: l}
		if b, ok := sampleBlock[l.v]; ok {
			s.isPrb = true
			s.sig = prbSignal[l.v]
			if b == past {
				pastS = append(pastS, s)
			} else {
				presentS = append(presentS, s)
			}
		} else {
			opaque = append(opaque, s)
		}
	}

	var tr ir.RegTrigger
	var gates []ir.Value
	usedPresent := map[int]bool{}

	// Pair past samples with present samples of the same signal.
	edges := 0
	for _, p := range pastS {
		matched := false
		for i, q := range presentS {
			if usedPresent[i] || q.sig != p.sig {
				continue
			}
			switch {
			case p.lit.neg && !q.lit.neg:
				tr.Mode = ir.RegRise
			case !p.lit.neg && q.lit.neg:
				tr.Mode = ir.RegFall
			default:
				return tr, false // same polarity pair: not an edge
			}
			tr.Trigger = q.lit.v
			usedPresent[i] = true
			matched = true
			edges++
			break
		}
		if !matched {
			return tr, false // past level condition: inexpressible
		}
	}
	if edges > 1 {
		return tr, false // simultaneous multi-signal edge: inexpressible
	}

	// Remaining present samples and opaque terms are level conditions.
	var levels []sample
	for i, q := range presentS {
		if !usedPresent[i] {
			levels = append(levels, q)
		}
	}
	levels = append(levels, opaque...)

	if edges == 0 {
		// Level-triggered storage (latch): the first level term is the
		// trigger, the rest gate it.
		if len(levels) == 0 {
			return tr, false // unconditional in a 2-TR process: reject
		}
		first := levels[0]
		if first.lit.neg {
			tr.Mode = ir.RegLow
		} else {
			tr.Mode = ir.RegHigh
		}
		tr.Trigger = first.lit.v
		levels = levels[1:]
	}

	for _, l := range levels {
		v := l.lit.v
		if l.lit.neg {
			// The cloner materializes the not in the entity body.
			n := &ir.Inst{Op: ir.OpNot, Ty: ir.IntType(1), Args: []ir.Value{v}}
			// Attach to the present block so the cloner can reach it; it
			// is synthetic and removed with the process blocks.
			present.InsertBefore(n, drv)
			v = n
		}
		gates = append(gates, v)
	}
	switch len(gates) {
	case 0:
	case 1:
		tr.Gate = gates[0]
	default:
		acc := gates[0]
		for _, g := range gates[1:] {
			and := &ir.Inst{Op: ir.OpAnd, Ty: ir.IntType(1), Args: []ir.Value{acc, g}}
			present.InsertBefore(and, drv)
			acc = and
		}
		tr.Gate = acc
	}
	return tr, true
}

// dfgCloner copies the data-flow graph of process values into an entity
// body. Probes are re-created against the same signal operands (the unit's
// arguments are unchanged by the in-place conversion).
type dfgCloner struct {
	unit *ir.Unit
	body *ir.Block
	memo map[ir.Value]ir.Value
}

func (cl *dfgCloner) clone(v ir.Value) (ir.Value, error) {
	if out, ok := cl.memo[v]; ok {
		return out, nil
	}
	switch x := v.(type) {
	case *ir.Arg:
		return x, nil
	case *ir.Unit:
		return x, nil
	case *ir.Inst:
		switch {
		case x.Op == ir.OpPrb, x.Op.IsPure(), x.Op == ir.OpExtF, x.Op == ir.OpExtS:
			cp := x.Clone()
			for i, a := range cp.Args {
				na, err := cl.clone(a)
				if err != nil {
					return nil, err
				}
				cp.Args[i] = na
			}
			cl.body.Append(cp)
			cl.memo[v] = cp
			return cp, nil
		}
		return nil, fmt.Errorf("deseq: cannot clone %s into an entity", x.Op)
	}
	return nil, fmt.Errorf("deseq: unknown value kind")
}

// attachBlock rebinds a hand-built block (and its instructions) to u.
func attachBlock(u *ir.Unit, b *ir.Block) {
	// Block.unit is unexported; recreate via AddBlock semantics: we reuse
	// the fact that InsertBlockAfter appends when pos is absent.
	u.Blocks = nil
	nb := u.AddBlock("body")
	nb.Insts = b.Insts
	for _, in := range nb.Insts {
		nb.Adopt(in)
	}
}
