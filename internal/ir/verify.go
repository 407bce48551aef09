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

// Verify checks the structural well-formedness of the module and that it is
// legal at the requested level. It returns nil or a *VerifyError listing
// every problem found.
func Verify(m *Module, level Level) error {
	c := &checker{m: m, all: true}
	for _, u := range m.Units {
		c.verifyUnit(u, level)
	}
	if len(c.problems) > 0 {
		return &VerifyError{Problems: c.problems}
	}
	return nil
}

// VerifyUnit checks a single unit at the given level.
func VerifyUnit(u *Unit, level Level) error {
	c := &checker{m: u.mod, all: true}
	c.verifyUnit(u, level)
	if len(c.problems) > 0 {
		return &VerifyError{Problems: c.problems}
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

func (c *checker) verifyUnit(u *Unit, level Level) {
	if level != Behavioural && u.Kind != UnitEntity {
		c.problemf("%s: %s level permits only entities, found %s", u, level, u.Kind)
	}

	// Signature rules (§2.4.2): processes and entities carry signals.
	if u.Kind != UnitFunc {
		for _, a := range u.Inputs {
			if !a.ty.IsSignal() {
				c.problemf("%s: input %s must be a signal, got %s", u, a, a.ty)
			}
		}
		for _, a := range u.Outputs {
			if !a.ty.IsSignal() {
				c.problemf("%s: output %s must be a signal, got %s", u, a, a.ty)
			}
		}
	} else if len(u.Outputs) > 0 {
		c.problemf("%s: functions have no output arguments", u)
	}

	// Shape, kind, type and callee rules are CheckShape's walk; the rules
	// below index operands behind it.
	if !c.unit(u) {
		return
	}
	if u.Kind == UnitEntity {
		for _, in := range u.Body().Insts {
			if in.Op.Info().Level < level {
				c.problemf("%s: instruction %s not allowed in entity at %s level", u, in.Op, level)
			}
		}
	}
	c.verifyDefs(u)
}

// instTypes checks what an instruction of the right shape reads against
// what it is: operand and result types, slice bounds, destinations and
// callee. These are the rules through which a value of one width would
// otherwise reach storage of another, or control another unit's code;
// Blaze tests no width at run time because of them.
func (c *checker) instTypes(u *Unit, b *Block, in *Inst) {
	switch in.Op {
	case OpConstLogic:
		if !in.Ty.IsLogic() {
			c.instf(u, b, in, "logic constant needs lN type, got %s", in.Ty)
		} else if len(in.LVal) != in.Ty.Width {
			c.instf(u, b, in, "logic constant value width %d does not match type %s", len(in.LVal), in.Ty)
		}
	case OpSig:
		if !in.Ty.IsSignal() || in.Args[0].Type() != in.Ty.Elem {
			c.instf(u, b, in, "initial value type %s does not match signal %s", in.Args[0].Type(), in.Ty)
		}
	case OpVar:
		if !in.Ty.IsPointer() || in.Args[0].Type() != in.Ty.Elem {
			c.instf(u, b, in, "initial value type %s does not match pointer %s", in.Args[0].Type(), in.Ty)
		}
	case OpDrv:
		if !in.Args[0].Type().IsSignal() {
			c.instf(u, b, in, "drv target must be a signal, got %s", in.Args[0].Type())
		} else if in.Args[0].Type().Elem != in.Args[1].Type() {
			c.instf(u, b, in, "drv value type %s does not match signal %s", in.Args[1].Type(), in.Args[0].Type())
		}
		if !in.Args[2].Type().IsTime() {
			c.instf(u, b, in, "drv delay must be time, got %s", in.Args[2].Type())
		}
		if len(in.Args) == 4 && !in.Args[3].Type().IsBool() {
			c.instf(u, b, in, "drv condition must be i1, got %s", in.Args[3].Type())
		}
	case OpPrb:
		if !in.Args[0].Type().IsSignal() {
			c.instf(u, b, in, "prb needs one signal operand")
		} else if in.Ty != in.Args[0].Type().Elem {
			c.instf(u, b, in, "prb result type %s does not match signal %s", in.Ty, in.Args[0].Type())
		}
	case OpCon:
		if in.Args[0].Type() != in.Args[1].Type() {
			c.instf(u, b, in, "con of %s and %s", in.Args[0].Type(), in.Args[1].Type())
		}
	case OpDel:
		if in.Args[0].Type() != in.Args[1].Type() {
			c.instf(u, b, in, "del of %s into %s", in.Args[1].Type(), in.Args[0].Type())
		}
		if !in.Args[2].Type().IsTime() {
			c.instf(u, b, in, "del delay must be time, got %s", in.Args[2].Type())
		}
	case OpReg:
		if !in.Args[0].Type().IsSignal() {
			c.instf(u, b, in, "reg needs a signal target")
			return
		}
		elem := in.Args[0].Type().Elem
		for _, t := range in.Triggers {
			if t.Value.Type() != elem {
				c.instf(u, b, in, "reg stored value type %s does not match signal %s", t.Value.Type(), in.Args[0].Type())
			}
			if !t.Trigger.Type().IsBool() {
				c.instf(u, b, in, "reg trigger must be i1, got %s", t.Trigger.Type())
			}
			if t.Gate != nil && !t.Gate.Type().IsBool() {
				c.instf(u, b, in, "reg gate must be i1, got %s", t.Gate.Type())
			}
		}
		if in.Delay != nil && !in.Delay.Type().IsTime() {
			c.instf(u, b, in, "reg delay must be time, got %s", in.Delay.Type())
		}
	case OpBr:
		if len(in.Args) == 1 && !in.Args[0].Type().IsBool() {
			c.instf(u, b, in, "br condition must be i1, got %s", in.Args[0].Type())
		}
		c.dests(u, b, in)
	case OpWait:
		c.dests(u, b, in)
		if in.TimeArg != nil && !in.TimeArg.Type().IsTime() {
			c.instf(u, b, in, "wait timeout must be time, got %s", in.TimeArg.Type())
		}
		for _, s := range in.Args {
			if !s.Type().IsSignal() {
				c.instf(u, b, in, "wait observes non-signal %s", s.Type())
			}
		}
	case OpMux:
		if !in.Args[0].Type().IsArray() {
			c.instf(u, b, in, "mux needs array and selector")
		} else if in.Ty != in.Args[0].Type().Elem {
			c.instf(u, b, in, "result type %s does not match the elements of %s", in.Ty, in.Args[0].Type())
		}
	case OpArray:
		for _, a := range in.Args {
			if !in.Ty.IsArray() || in.Ty.Width != len(in.Args) || a.Type() != in.Ty.Elem {
				c.instf(u, b, in, "element type %s does not match %s", a.Type(), in.Ty)
				break
			}
		}
	case OpStruct:
		for i, a := range in.Args {
			if !in.Ty.IsStruct() || len(in.Ty.Fields) != len(in.Args) || a.Type() != in.Ty.Fields[i] {
				c.instf(u, b, in, "field type %s does not match %s", a.Type(), in.Ty)
				break
			}
		}
	case OpLd:
		if !in.Args[0].Type().IsPointer() {
			c.instf(u, b, in, "ld needs one pointer operand")
		} else if in.Ty != in.Args[0].Type().Elem {
			c.instf(u, b, in, "ld result type %s does not match pointer %s", in.Ty, in.Args[0].Type())
		}
	case OpSt:
		if !in.Args[0].Type().IsPointer() {
			c.instf(u, b, in, "st needs pointer and value")
		} else if in.Args[0].Type().Elem != in.Args[1].Type() {
			c.instf(u, b, in, "st value type %s does not match pointer %s", in.Args[1].Type(), in.Args[0].Type())
		}
	case OpExtS, OpInsS:
		switch ty, off, n := in.Args[0].Type(), in.Imm0, in.Imm1; {
		case !sliceFits(ty, off, n):
			c.instf(u, b, in, "slice [%d, %d) out of %s", off, off+n, ty)
		case in.Op == OpExtS && !isSlice(in.Ty, ty, n):
			c.instf(u, b, in, "result type %s is no slice of %d of %s", in.Ty, n, ty)
		case in.Op == OpInsS && in.Ty != ty:
			c.instf(u, b, in, "result type %s does not match target type %s", in.Ty, ty)
		case in.Op == OpInsS && ty.IsArray() && aggLen(in.Args[1].Type()) < n:
			c.instf(u, b, in, "inss of %d elements from %s", n, in.Args[1].Type())
		}
	case OpExtF, OpInsF:
		ty := in.Args[0].Type()
		f := fieldType(ty, in.Imm0)
		switch dynamic := len(in.Args) > int(opInfos[in.Op].MinArgs); {
		case dynamic && !ty.IsArray():
			c.instf(u, b, in, "a dynamic index needs an array, got %s", ty)
		case in.Op == OpExtF && !isField(in.Ty, ty, f):
			c.instf(u, b, in, "result type %s does not match the field of %s", in.Ty, ty)
		case in.Op == OpInsF && in.Ty != ty:
			c.instf(u, b, in, "result type %s does not match target type %s", in.Ty, ty)
		case in.Op == OpInsF && f != nil && in.Args[1].Type() != f:
			c.instf(u, b, in, "value type %s does not match the field of %s", in.Args[1].Type(), ty)
		}
	case OpCall, OpInst:
		c.callee(u, b, in)
	case OpRet:
		got := VoidType()
		if len(in.Args) == 1 {
			got = in.Args[0].Type()
		}
		if got != u.RetType {
			c.instf(u, b, in, "ret of %s from a function returning %s", got, u.RetType)
		}
	case OpPhi:
		for _, a := range in.Args {
			if a.Type() != in.Ty {
				c.instf(u, b, in, "phi operand type %s does not match %s", a.Type(), in.Ty)
			}
		}
	case OpNot, OpNeg:
		if in.Ty != in.Args[0].Type() {
			c.instf(u, b, in, "result type %s does not match operand type %s", in.Ty, in.Args[0].Type())
		}
	default:
		if f := opInfos[in.Op].Flags; f&(FlagBinary|FlagCompare) != 0 {
			switch x, y := in.Args[0].Type(), in.Args[1].Type(); {
			case x != y:
				c.instf(u, b, in, "operand types differ: %s vs %s", x, y)
			case f&FlagBinary != 0 && in.Ty != x:
				c.instf(u, b, in, "result type %s does not match operand type %s", in.Ty, x)
			case f&FlagCompare != 0 && !in.Ty.IsBool():
				c.instf(u, b, in, "compare result must be i1, got %s", in.Ty)
			}
		}
	}
}

// dests checks that a br or wait goes to blocks of its own unit.
func (c *checker) dests(u *Unit, b *Block, in *Inst) {
	for _, d := range in.Dests {
		if d == nil || d.unit != u {
			c.instf(u, b, in, "destination %s is not a block of %s", d, u)
		}
	}
}

// sliceFits reports whether exts or inss may take n elements from off of
// a value of type t (of its element, for a projection of a signal or
// pointer): exactly where val.ExtS and val.InsS do not fail. An integer or
// enum slices its bits, a logic vector its bits and an array its
// elements, the last two only by a length that is not negative; nothing
// else slices.
func sliceFits(t *Type, off, n int) bool {
	if t.IsSignal() || t.IsPointer() {
		t = t.Elem
	}
	switch t.Kind {
	case IntKind, EnumKind:
		return off >= 0 && off+n <= t.BitWidth()
	case LogicKind, ArrayKind:
		return off >= 0 && n >= 0 && off+n <= t.Width
	}
	return false
}

// isSlice reports whether res is the type exts gives for n elements of t:
// of an integer or enum an n-bit integer, of a logic vector an n-wide one,
// of an array an array of n of its elements, and of a signal or pointer
// the signal or pointer of that of its element.
func isSlice(res, t *Type, n int) bool {
	if t.IsSignal() || t.IsPointer() {
		if res.Kind != t.Kind {
			return false
		}
		res, t = res.Elem, t.Elem
	}
	switch t.Kind {
	case IntKind, EnumKind:
		return res.Kind == IntKind && res.Width == n
	case LogicKind:
		return res.Kind == LogicKind && res.Width == n
	}
	return res.Kind == ArrayKind && res.Width == n && res.Elem == t.Elem
}

// fieldType is the type of field i of t, or of its element for a signal
// or pointer: an array's element type, for any index, or a struct's field
// i. It is nil where there is no such field, which extf and insf fail on
// at run time.
func fieldType(t *Type, i int) *Type {
	if t.IsSignal() || t.IsPointer() {
		t = t.Elem
	}
	switch {
	case t.IsArray():
		return t.Elem
	case t.IsStruct() && i >= 0 && i < len(t.Fields):
		return t.Fields[i]
	}
	return nil
}

// isField reports whether res is what extf gives for a field of type f of
// t: f itself, or for a signal or pointer t, the signal or pointer of f.
// A field of no known type (nil) is anything's.
func isField(res, t, f *Type) bool {
	switch {
	case f == nil:
		return true
	case t.IsSignal() || t.IsPointer():
		return res.Kind == t.Kind && res.Elem == f
	}
	return res == f
}

// aggLen is the number of elements of a value of type t: an array's or a
// struct's, 0 for anything else.
func aggLen(t *Type) int {
	switch t.Kind {
	case ArrayKind:
		return t.Width
	case StructKind:
		return len(t.Fields)
	}
	return 0
}

// callee checks that the unit a call or inst names exists, is of a kind it
// can name, and takes what the instruction gives it: a function's
// arguments and result, an instance's input and output signals. The
// llhd.* intrinsics the engines implement (§2.5.9) are held to their
// signatures; an unknown one fails where it runs. Without a module, no
// unit is resolved.
func (c *checker) callee(u *Unit, b *Block, in *Inst) {
	if in.Op == OpCall && strings.HasPrefix(in.Callee, "llhd.") {
		c.intrinsic(u, b, in)
		return
	}
	if c.m == nil {
		return
	}
	f := c.m.Unit(in.Callee)
	switch {
	case f == nil && in.Op == OpCall:
		c.instf(u, b, in, "call to undefined @%s", in.Callee)
		return
	case f == nil:
		c.instf(u, b, in, "inst of undefined @%s", in.Callee)
		return
	case in.Op == OpCall && f.Kind != UnitFunc:
		c.instf(u, b, in, "call of @%s, a %s", in.Callee, f.Kind)
		return
	case in.Op == OpInst && f.Kind == UnitFunc:
		c.instf(u, b, in, "inst of @%s, a func", in.Callee)
		return
	}
	if in.Op == OpCall {
		if len(in.Args) != len(f.Inputs) {
			c.instf(u, b, in, "call passes %d arguments, @%s takes %d", len(in.Args), in.Callee, len(f.Inputs))
			return
		}
		if in.Ty != f.RetType {
			c.instf(u, b, in, "call result type %s does not match @%s's %s", in.Ty, in.Callee, f.RetType)
		}
		c.bind(u, b, in, in.Args, f.Inputs)
		return
	}
	if outs := len(in.Args) - in.NumIns; in.NumIns != len(f.Inputs) || outs != len(f.Outputs) {
		c.instf(u, b, in, "inst binds %d->%d signals, @%s takes %d->%d", in.NumIns, outs, in.Callee, len(f.Inputs), len(f.Outputs))
		return
	}
	c.bind(u, b, in, in.Args[:in.NumIns], f.Inputs)
	c.bind(u, b, in, in.Args[in.NumIns:], f.Outputs)
}

// intrinsic checks a call of llhd.assert (one i1, no result), llhd.display
// (anything, no result) or llhd.time (nothing, a time).
func (c *checker) intrinsic(u *Unit, b *Block, in *Inst) {
	switch in.Callee {
	case "llhd.assert":
		if len(in.Args) != 1 || !in.Args[0].Type().IsBool() || !in.Ty.IsVoid() {
			c.instf(u, b, in, "llhd.assert takes one i1 and returns void")
		}
	case "llhd.display":
		if !in.Ty.IsVoid() {
			c.instf(u, b, in, "llhd.display returns void")
		}
	case "llhd.time":
		if len(in.Args) != 0 || !in.Ty.IsTime() {
			c.instf(u, b, in, "llhd.time takes nothing and returns time")
		}
	}
}

// bind checks each value a call or inst passes against the argument of the
// callee it binds.
func (c *checker) bind(u *Unit, b *Block, in *Inst, vals []Value, args []*Arg) {
	for i, v := range vals {
		if a := args[i]; v.Type() != a.ty {
			c.instf(u, b, in, "%s is %s, @%s's %s is %s", v, v.Type(), in.Callee, a, a.ty)
		}
	}
}

// verifyDefs checks SSA dominance: every use must be reachable from its
// definition. For entities (pure DFG, §2.4.3) order does not matter, so
// only membership is checked.
func (c *checker) verifyDefs(u *Unit) {
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
				c.instf(u, b, in, "uses value %s defined outside the unit", val)
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
				c.instf(u, b, in, "phi follows a non-phi instruction")
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
					c.instf(u, b, in, "value %s does not dominate edge predecessor %s",
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
							c.instf(u, b, in, "uses %s before its definition", val)
						}
					} else if def.block != nil && dt.Reachable(b) && dt.Reachable(def.block) &&
						!dt.Dominates(def.block, b) {
						c.instf(u, b, in, "uses %s whose definition does not dominate the use", val)
					}
				})
			}
			seen[in] = true
		}
	}
}
