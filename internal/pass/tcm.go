package pass

import "llhd/internal/ir"

// TCM returns the Temporal Code Motion pass (§4.3): drv instructions are
// moved into the single exiting block of their temporal region, guarded by
// the branch conditions along the control path that originally reached
// them. Drives of the same signal coalesce into one drive selecting its
// value with a mux. TCM also inserts the auxiliary block needed to give a
// region a single exit when multiple arcs leave it (§4.3.2).
func TCM() Pass {
	return &unitPass{
		name:  "tcm",
		kinds: []ir.UnitKind{ir.UnitProc},
		run:   tcmUnit,
	}
}

func tcmUnit(u *ir.Unit) (bool, error) {
	changed := false

	// Step 1: single exiting block per TR (§4.3.2).
	if c := singleExitPerTR(u); c {
		changed = true
	}

	dt := ir.NewDomTree(u)
	trs := temporalRegions(u, dt)
	exits := trs.ExitBlocks(u)

	// Runtime order anchor: every block of a TR executes before the exit
	// block's own instructions, so drives moved into the exit must land
	// *before* any drive the exit already contains — appending them after
	// would flip the override order coalesceDrives resolves (a miscompile
	// found by the differential fuzzer, seed 16: a per-iteration loop
	// drive appended after the post-loop drive stole its final value).
	anchor := map[*ir.Block]*ir.Inst{}
	for _, ex := range exits {
		if len(ex) != 1 {
			continue
		}
		for _, in := range ex[0].Insts {
			if in.Op == ir.OpDrv {
				anchor[ex[0]] = in
				break
			}
		}
	}

	// Step 2: move drvs into the exiting block of their TR (§4.3.3).
	for _, b := range u.Blocks {
		tr := trs.Of[b]
		ex := exits[tr]
		if len(ex) != 1 {
			continue // no unique exit: leave the drives; lowering rejects later
		}
		exit := ex[0]
		if b == exit {
			continue
		}
		var toMove []*ir.Inst
		for _, in := range b.Insts {
			if in.Op == ir.OpDrv {
				toMove = append(toMove, in)
			}
		}
		for _, drv := range toMove {
			dom := dt.CommonDominator(b, exit)
			if dom == nil {
				continue // §4.3.3: leave untouched; rejected later
			}
			// All operands must dominate the exit block, otherwise the
			// moved drive would use values from a non-dominating path
			// (ECM should have hoisted them; reject the move if not).
			operandsOK := true
			drv.Operands(func(v ir.Value) {
				if def, isInst := v.(*ir.Inst); isInst {
					if def.Block() == nil || !dt.Dominates(def.Block(), exit) {
						operandsOK = false
					}
				}
			})
			if !operandsOK {
				continue
			}
			before := anchor[exit]
			if before == nil {
				before = exit.Terminator()
			}
			cond, ok := pathCondition(u, dt, trs, dom, b, exit, before)
			if !ok {
				continue
			}
			b.Remove(drv)
			if cond != nil {
				if len(drv.Args) == 4 {
					// AND with the drive's own condition.
					and := &ir.Inst{Op: ir.OpAnd, Ty: ir.IntType(1), Args: []ir.Value{drv.Args[3], cond}}
					exit.InsertBefore(and, before)
					drv.Args[3] = and
				} else {
					drv.Args = append(drv.Args, cond)
				}
			}
			exit.InsertBefore(drv, before)
			changed = true
		}
	}

	// Step 3: coalesce drives of the same signal in each exit block.
	for _, ex := range exits {
		if len(ex) != 1 {
			continue
		}
		if coalesceDrives(ex[0]) {
			changed = true
		}
	}
	return changed, nil
}

// singleExitPerTR inserts an auxiliary block when a TR has several arcs to
// a successor TR, so that each TR gets a unique exiting block.
func singleExitPerTR(u *ir.Unit) bool {
	trs := TemporalRegions(u)
	changed := false

	// Group cross-TR branch arcs by (source TR, dest block). Rule 3
	// guarantees a unique entry block per TR, so the dest block identifies
	// the target TR.
	type arc struct {
		from *ir.Block
		slot int
	}
	arcs := map[int]map[*ir.Block][]arc{}
	for _, b := range u.Blocks {
		term := b.Terminator()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		for i, d := range term.Dests {
			if trs.Of[d] != trs.Of[b] {
				tr := trs.Of[b]
				if arcs[tr] == nil {
					arcs[tr] = map[*ir.Block][]arc{}
				}
				arcs[tr][d] = append(arcs[tr][d], arc{b, i})
			}
		}
	}
	for _, dests := range arcs {
		for destBlock, as := range dests {
			// An aux block is needed when more than one arc leaves the TR
			// toward this destination, or the single arc shares its source
			// with drives that must move into a dedicated exit... the
			// paper inserts it whenever several arcs exist.
			if len(as) < 2 {
				continue
			}
			// Routing several arcs through one aux block collapses the
			// destination's per-arc phi entries into a single edge; that
			// is only sound when every phi sees the same incoming value on
			// all merged arcs. SSA values that genuinely differ per arc
			// (loop-carried state like a FIFO memory) must keep their
			// distinct edges, so such TRs keep multiple exits and their
			// drives stay put.
			mergeable := true
			for _, in := range destBlock.Insts {
				if in.Op != ir.OpPhi {
					continue
				}
				var seen ir.Value
				first := true
				for i, pb := range in.Dests {
					for _, a := range as {
						if pb == a.from {
							if first {
								seen, first = in.Args[i], false
							} else if in.Args[i] != seen {
								mergeable = false
							}
						}
					}
				}
			}
			if !mergeable {
				continue
			}
			aux := u.InsertBlockAfter(destBlock.ValueName()+"_aux", as[0].from)
			auxTerm := &ir.Inst{Op: ir.OpBr, Ty: ir.VoidType(), Dests: []*ir.Block{destBlock}}
			aux.Append(auxTerm)
			for _, a := range as {
				a.from.Terminator().Dests[a.slot] = aux
			}
			// Retarget phis in the destination: they now see aux as the
			// single predecessor from this TR. The merged arcs carry one
			// common value (checked above), so the first entry is
			// rewritten to the aux edge and the duplicates are dropped.
			for _, in := range destBlock.Insts {
				if in.Op != ir.OpPhi {
					continue
				}
				args := in.Args[:0]
				blocks := in.Dests[:0]
				kept := false
				for i, pb := range in.Dests {
					merged := false
					for _, a := range as {
						if pb == a.from {
							merged = true
							break
						}
					}
					if !merged {
						args = append(args, in.Args[i])
						blocks = append(blocks, pb)
						continue
					}
					if !kept {
						kept = true
						args = append(args, in.Args[i])
						blocks = append(blocks, aux)
					}
				}
				in.Args, in.Dests = args, blocks
			}
			changed = true
		}
	}
	return changed
}

// pathCondition computes the branch condition under which control flows
// from dom to target (§4.3.3): the OR over all acyclic paths of the AND of
// branch decisions along each path. Generated boolean instructions are
// inserted into insertAt before its terminator. The boolean operands used
// must dominate insertAt; otherwise ok=false.
func pathCondition(u *ir.Unit, dt *ir.DomTree, trs *TRMap, dom, target, insertAt *ir.Block, before *ir.Inst) (ir.Value, bool) {
	preds := u.Preds()
	emit := func(op ir.Opcode, args ...ir.Value) *ir.Inst {
		in := &ir.Inst{Op: op, Ty: ir.IntType(1), Args: args}
		insertAt.InsertBefore(in, before)
		return in
	}

	memo := map[*ir.Block]ir.Value{}
	visiting := map[*ir.Block]bool{}
	ok := true

	// cond(X) = nil means "always reached from dom".
	var cond func(x *ir.Block) ir.Value
	cond = func(x *ir.Block) ir.Value {
		if x == dom {
			return nil
		}
		if v, found := memo[x]; found {
			return v
		}
		if visiting[x] {
			ok = false // cycle within the region: reject
			return nil
		}
		visiting[x] = true
		defer delete(visiting, x)

		var acc ir.Value
		accSet := false
		unconditional := false
		for _, p := range preds[x] {
			if !trs.SameTR(p, x) || !dt.Reachable(p) {
				continue // entered from another TR: not a path from dom
			}
			if !dt.Dominates(dom, p) && p != dom {
				continue
			}
			pc := cond(p)
			if !ok {
				return nil
			}
			ec := edgeCondition(u, dt, insertAt, emit, p, x, &ok)
			if !ok {
				return nil
			}
			var term ir.Value
			switch {
			case pc == nil && ec == nil:
				unconditional = true
			case pc == nil:
				term = ec
			case ec == nil:
				term = pc
			default:
				term = emit(ir.OpAnd, pc, ec)
			}
			if unconditional {
				break
			}
			if !accSet {
				acc = term
				accSet = true
			} else {
				acc = emit(ir.OpOr, acc, term)
			}
		}
		var result ir.Value
		if unconditional {
			result = nil
		} else if accSet {
			result = acc
		} else {
			ok = false // no path from dom
			return nil
		}
		memo[x] = result
		return result
	}
	v := cond(target)
	if !ok {
		return nil, false
	}
	return v, true
}

// edgeCondition returns the branch condition of the edge p -> x, or nil
// for an unconditional edge. The condition value must dominate insertAt.
func edgeCondition(u *ir.Unit, dt *ir.DomTree, insertAt *ir.Block,
	emit func(op ir.Opcode, args ...ir.Value) *ir.Inst,
	p, x *ir.Block, ok *bool) ir.Value {

	term := p.Terminator()
	if term == nil || term.Op != ir.OpBr {
		*ok = false
		return nil
	}
	if len(term.Args) == 0 {
		return nil // unconditional branch
	}
	c := term.Args[0]
	if def, isInst := c.(*ir.Inst); isInst {
		if def.Block() == nil || !dt.Dominates(def.Block(), insertAt) {
			*ok = false
			return nil
		}
	}
	switch {
	case term.Dests[0] == x && term.Dests[1] == x:
		return nil
	case term.Dests[1] == x:
		return c // taken when true
	default:
		return emit(ir.OpNot, c) // taken when false
	}
}

// coalesceDrives merges multiple drives of the same signal with the same
// delay inside one block into a single drive: the later drive overrides
// the earlier (program order), so the value becomes mux([v1, v2], cond2)
// and the condition becomes cond1 OR cond2. The paper factors the value
// into a phi (Figure 5f); the mux form is the TCFE-normalized equivalent.
func coalesceDrives(b *ir.Block) bool {
	changed := false
	for {
		var first, second *ir.Inst
		byKey := map[[2]ir.Value]*ir.Inst{}
		for _, in := range b.Insts {
			if in.Op != ir.OpDrv {
				continue
			}
			key := [2]ir.Value{in.Args[0], in.Args[2]}
			if prev, found := byKey[key]; found {
				first, second = prev, in
				break
			}
			byKey[key] = in
		}
		if first == nil {
			break
		}
		v1, v2 := first.Args[1], second.Args[1]
		var c1, c2 ir.Value
		if len(first.Args) == 4 {
			c1 = first.Args[3]
		}
		if len(second.Args) == 4 {
			c2 = second.Args[3]
		}

		var newVal ir.Value
		if c2 == nil || v1 == v2 {
			newVal = v2 // unconditional override
		} else {
			arr := &ir.Inst{Op: ir.OpArray, Ty: ir.ArrayType(2, v1.Type()), Args: []ir.Value{v1, v2}}
			b.InsertBefore(arr, second)
			mux := &ir.Inst{Op: ir.OpMux, Ty: v1.Type(), Args: []ir.Value{arr, c2}}
			b.InsertBefore(mux, second)
			newVal = mux
		}
		var newCond ir.Value
		switch {
		case c1 == nil || c2 == nil:
			newCond = nil
		default:
			or := &ir.Inst{Op: ir.OpOr, Ty: ir.IntType(1), Args: []ir.Value{c1, c2}}
			b.InsertBefore(or, second)
			newCond = or
		}

		second.Args = second.Args[:3]
		second.Args[1] = newVal
		if newCond != nil {
			second.Args = append(second.Args, newCond)
		}
		b.Remove(first)
		changed = true
	}
	return changed
}
