package ir

import (
	"fmt"
	"strings"
)

// Level identifies one of the three nested LLHD dialects (§2.2). The levels
// form a strict subset chain: Netlist ⊂ Structural ⊂ Behavioural.
type Level uint8

const (
	// Behavioural LLHD is the full IR: functions, processes, entities,
	// control flow, memory, and simulation constructs.
	Behavioural Level = iota
	// Structural LLHD restricts descriptions to input-to-output relations
	// expressible by entities.
	Structural
	// Netlist LLHD permits only entities with sig, con, del, inst (and
	// the constants feeding them).
	Netlist
)

var levelNames = [...]string{"behavioural", "structural", "netlist"}

// String returns the lowercase level name.
func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Contains reports whether a description legal at level m is also legal at
// level l (the subset relation of §2.2: every Netlist module is Structural,
// every Structural module is Behavioural).
func (l Level) Contains(m Level) bool { return m >= l }

// VerifyError aggregates all verification failures of a module.
type VerifyError struct {
	Problems []string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("ir: verification failed:\n  %s", strings.Join(e.Problems, "\n  "))
}

type verifier struct {
	problems []string
}

func (v *verifier) errorf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// instErrorf reports a problem anchored to one instruction: every message
// names the unit, the containing block, and the instruction itself (result
// name, or mnemonic for void instructions), so fuzzers and shrinkers can
// act on the report without re-locating the fault.
func (v *verifier) instErrorf(name string, b *Block, in *Inst, format string, args ...any) {
	v.problems = append(v.problems,
		fmt.Sprintf("%s: %s (%s) in %s: %s", name, in, in.Op, b, fmt.Sprintf(format, args...)))
}

// Verify checks the structural well-formedness of the module and that it is
// legal at the requested level. It returns nil or a *VerifyError listing
// every problem found.
func Verify(m *Module, level Level) error {
	v := &verifier{}
	for _, u := range m.Units {
		v.verifyUnit(m, u, level)
	}
	if len(v.problems) > 0 {
		return &VerifyError{Problems: v.problems}
	}
	return nil
}

// VerifyUnit checks a single unit at the given level.
func VerifyUnit(u *Unit, level Level) error {
	v := &verifier{}
	v.verifyUnit(u.mod, u, level)
	if len(v.problems) > 0 {
		return &VerifyError{Problems: v.problems}
	}
	return nil
}

// LevelOf computes the most restrictive level the module satisfies.
func LevelOf(m *Module) Level {
	if Verify(m, Netlist) == nil {
		return Netlist
	}
	if Verify(m, Structural) == nil {
		return Structural
	}
	return Behavioural
}

func (v *verifier) verifyUnit(m *Module, u *Unit, level Level) {
	name := u.String()
	if level != Behavioural && u.Kind != UnitEntity {
		v.errorf("%s: %s level permits only entities, found %s", name, level, u.Kind)
	}

	// Signature rules (§2.4.2): processes and entities carry signals.
	if u.Kind != UnitFunc {
		for _, a := range u.Inputs {
			if !a.ty.IsSignal() {
				v.errorf("%s: input %s must be a signal, got %s", name, a, a.ty)
			}
		}
		for _, a := range u.Outputs {
			if !a.ty.IsSignal() {
				v.errorf("%s: output %s must be a signal, got %s", name, a, a.ty)
			}
		}
	} else if len(u.Outputs) > 0 {
		v.errorf("%s: functions have no output arguments", name)
	}

	// Shape and kind legality come from the instruction-set table; the
	// rules below index operands behind it.
	if p := shapeProblem(u); p != "" {
		v.problems = append(v.problems, p)
		return
	}
	if u.Kind == UnitEntity {
		v.verifyEntity(u, level, name)
	} else {
		v.verifyControlFlow(u, name)
	}
	v.verifyDefs(u, name)

	// Calls and instantiations must resolve, in every unit kind —
	// entities are where inst lives (gap found by the Verify error-path
	// suite: an entity instantiating an undefined unit verified clean).
	// Intrinsics (llhd.*) are exempt.
	if m != nil {
		u.ForEachInst(func(b *Block, in *Inst) {
			if in.Op == OpCall && !strings.HasPrefix(in.Callee, "llhd.") {
				if m.Unit(in.Callee) == nil {
					v.instErrorf(name, b, in, "call to undefined @%s", in.Callee)
				}
			}
			if in.Op == OpInst && m.Unit(in.Callee) == nil {
				v.instErrorf(name, b, in, "inst of undefined @%s", in.Callee)
			}
		})
	}
}

func (v *verifier) verifyEntity(u *Unit, level Level, name string) {
	for _, in := range u.Body().Insts {
		if in.Op.Info().Level < level {
			v.errorf("%s: instruction %s not allowed in entity at %s level", name, in.Op, level)
		}
		v.verifyInst(u, u.Body(), in, name)
	}
}

func (v *verifier) verifyControlFlow(u *Unit, name string) {
	for _, b := range u.Blocks {
		if b.Terminator() == nil {
			v.errorf("%s: block %s lacks a terminator", name, b)
		}
		for i, in := range b.Insts {
			if in.Op.IsTerminator() && i != len(b.Insts)-1 {
				v.errorf("%s: terminator %s in the middle of block %s", name, in.Op, b)
			}
			v.verifyInst(u, b, in, name)
		}
	}

	// Phi sanity: incoming blocks must be the actual predecessors.
	preds := u.Preds()
	for _, b := range u.Blocks {
		for _, in := range b.Insts {
			if in.Op != OpPhi {
				continue
			}
			for _, pb := range in.Dests {
				found := false
				for _, p := range preds[b] {
					if p == pb {
						found = true
						break
					}
				}
				if !found {
					v.instErrorf(name, b, in, "phi names non-predecessor %s", pb)
				}
			}
		}
	}
}

// verifyInst checks per-instruction operand typing. All problems are
// anchored: they name the unit, the block, and the instruction.
func (v *verifier) verifyInst(u *Unit, b *Block, in *Inst, name string) {
	switch in.Op {
	case OpConstLogic:
		if !in.Ty.IsLogic() {
			v.instErrorf(name, b, in, "logic constant needs lN type, got %s", in.Ty)
		} else if len(in.LVal) != in.Ty.Width {
			v.instErrorf(name, b, in, "logic constant value width %d does not match type %s", len(in.LVal), in.Ty)
		}
	case OpDrv:
		if !in.Args[0].Type().IsSignal() {
			v.instErrorf(name, b, in, "drv target must be a signal, got %s", in.Args[0].Type())
		} else if in.Args[0].Type().Elem != in.Args[1].Type() {
			v.instErrorf(name, b, in, "drv value type %s does not match signal %s", in.Args[1].Type(), in.Args[0].Type())
		}
		if !in.Args[2].Type().IsTime() {
			v.instErrorf(name, b, in, "drv delay must be time, got %s", in.Args[2].Type())
		}
		if len(in.Args) == 4 && !in.Args[3].Type().IsBool() {
			v.instErrorf(name, b, in, "drv condition must be i1, got %s", in.Args[3].Type())
		}
	case OpPrb:
		if !in.Args[0].Type().IsSignal() {
			v.instErrorf(name, b, in, "prb needs one signal operand")
		}
	case OpReg:
		if !in.Args[0].Type().IsSignal() {
			v.instErrorf(name, b, in, "reg needs a signal target")
			return
		}
		elem := in.Args[0].Type().Elem
		for _, t := range in.Triggers {
			if t.Value.Type() != elem {
				v.instErrorf(name, b, in, "reg stored value type %s does not match signal %s", t.Value.Type(), in.Args[0].Type())
			}
			if !t.Trigger.Type().IsBool() {
				v.instErrorf(name, b, in, "reg trigger must be i1, got %s", t.Trigger.Type())
			}
			if t.Gate != nil && !t.Gate.Type().IsBool() {
				v.instErrorf(name, b, in, "reg gate must be i1, got %s", t.Gate.Type())
			}
		}
	case OpBr:
		if len(in.Args) == 1 && !in.Args[0].Type().IsBool() {
			v.instErrorf(name, b, in, "br condition must be i1, got %s", in.Args[0].Type())
		}
	case OpWait:
		if in.TimeArg != nil && !in.TimeArg.Type().IsTime() {
			v.instErrorf(name, b, in, "wait timeout must be time, got %s", in.TimeArg.Type())
		}
		for _, s := range in.Args {
			if !s.Type().IsSignal() {
				v.instErrorf(name, b, in, "wait observes non-signal %s", s.Type())
			}
		}
	case OpMux:
		if !in.Args[0].Type().IsArray() {
			v.instErrorf(name, b, in, "mux needs array and selector")
		}
	case OpLd:
		if !in.Args[0].Type().IsPointer() {
			v.instErrorf(name, b, in, "ld needs one pointer operand")
		}
	case OpSt:
		if !in.Args[0].Type().IsPointer() {
			v.instErrorf(name, b, in, "st needs pointer and value")
		} else if in.Args[0].Type().Elem != in.Args[1].Type() {
			v.instErrorf(name, b, in, "st value type %s does not match pointer %s", in.Args[1].Type(), in.Args[0].Type())
		}
	}
	if in.Op.IsBinary() || in.Op.IsCompare() {
		if in.Args[0].Type() != in.Args[1].Type() {
			v.instErrorf(name, b, in, "operand types differ: %s vs %s", in.Args[0].Type(), in.Args[1].Type())
		}
	}
}

// verifyDefs checks SSA dominance: every use must be reachable from its
// definition. For entities (pure DFG, §2.4.3) order does not matter, so
// only membership is checked.
func (v *verifier) verifyDefs(u *Unit, name string) {
	defined := map[Value]bool{}
	for _, a := range u.Inputs {
		defined[a] = true
	}
	for _, a := range u.Outputs {
		defined[a] = true
	}
	u.ForEachInst(func(_ *Block, in *Inst) {
		defined[in] = true
	})
	u.ForEachInst(func(b *Block, in *Inst) {
		in.Operands(func(val Value) {
			if _, isUnit := val.(*Unit); isUnit {
				return
			}
			if !defined[val] {
				v.instErrorf(name, b, in, "uses value %s defined outside the unit", val)
			}
		})
	})

	if u.Kind == UnitEntity {
		return
	}
	// Def-before-use within blocks; cross-block checks use dominance.
	dt := NewDomTree(u)
	// Phi placement: the engines resolve a block's phis as one contiguous
	// leading run, simultaneously on edge entry, so (a) phis must form a
	// prefix of their block, and (b) each incoming value must be available
	// at the end of its edge's predecessor.
	for _, b := range u.Blocks {
		inPrefix := true
		for _, in := range b.Insts {
			if in.Op != OpPhi {
				inPrefix = false
				continue
			}
			if !inPrefix {
				v.instErrorf(name, b, in, "phi follows a non-phi instruction")
			}
			for i, pred := range in.Dests {
				def, ok := in.Args[i].(*Inst)
				if !ok {
					continue
				}
				if def.block == nil {
					continue // flagged by the membership check above
				}
				if dt.Reachable(pred) && dt.Reachable(def.block) && !dt.Dominates(def.block, pred) {
					v.instErrorf(name, b, in, "value %s does not dominate edge predecessor %s",
						in.Args[i], pred)
				}
			}
		}
	}
	for _, b := range u.Blocks {
		seen := map[Value]bool{}
		for _, a := range u.Inputs {
			seen[a] = true
		}
		for _, a := range u.Outputs {
			seen[a] = true
		}
		for _, in := range b.Insts {
			if in.Op != OpPhi { // phi uses arrive along edges
				in.Operands(func(val Value) {
					def, ok := val.(*Inst)
					if !ok {
						return
					}
					if def.block == b {
						if !seen[def] {
							v.instErrorf(name, b, in, "uses %s before its definition", val)
						}
					} else if def.block != nil && dt.Reachable(b) && dt.Reachable(def.block) &&
						!dt.Dominates(def.block, b) {
						v.instErrorf(name, b, in, "uses %s whose definition does not dominate the use", val)
					}
				})
			}
			seen[in] = true
		}
	}
}
