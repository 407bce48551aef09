// Package bytecode is blaze's execution core: a lowering pass from
// frozen IR units to a linear, fixed-width instruction stream plus a
// threaded dispatch loop that executes process bodies and entity dataflow
// cones — one switch dispatch per lowered instruction over a
// cache-friendly []Instr, with no per-instruction indirect calls. Lowering
// forwards values where it can prove it may (plan.go), so a unit executes
// fewer instructions than its IR has.
//
// # Register file = value IDs
//
// The register slot of a value IS its dense value ID (ir.Numbering): the
// register file is indexed directly by ir.ValueID, with no compaction and
// no const/slot distinction. Every compile-time constant — const
// instructions and the instance's elaboration constants alike — is
// pre-placed in the unit's ConstRegs template and copied into each
// frame's register file at instantiation, so every operand access is a
// plain indexed read. This rule is load-bearing: encodings embed register
// indices, so renumbering a unit invalidates its bytecode (frozen modules
// never renumber).
//
// # Two-state fast path and the x/z escape hatch
//
// Scalar integer ops (add/sub/mul/logic/shifts/compares, integer
// slices/splices) execute in place on the uint64 payload of the
// val.Value registers, writing Kind/Width/Bits directly. Everything the
// two-state path cannot express — nine-valued logic vectors, times,
// aggregates, division errors — escapes through opEvalBin/opEvalUn into
// the generic val evaluator, the same routines engine.EvalPure is built
// from, so escape-hatch semantics are identical to the reference
// interpreter by construction.
//
// # Session independence
//
// Lowered code is immutable and session-independent: all mutable state
// (registers, resolved signal tables, wait lists, reg/del histories, the
// phi scratch) lives in the per-instance Frame, and function call frames
// are pooled in the per-session Runtime. A Program therefore upholds the
// CompiledDesign seal and farm-sharing invariants: one lowering, any
// number of concurrent sessions, zero locks on wake paths.
package bytecode

import (
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// Op is a bytecode opcode. The encoding is append-only: existing opcode
// values and operand layouts stay stable so disassembly goldens remain
// reviewable diffs.
type Op uint8

// Opcode space. Operand conventions: Dst/A/B/C are register indices
// (= value IDs) unless stated otherwise; aux refers to the unit's Aux
// pool; pc operands are absolute code indices.
const (
	opNop Op = iota

	// Moves.
	opMove   // Dst = Regs[A]
	opClone  // Dst = Regs[A]  (var initialization; payloads are immutable, so a move)
	opCloneP // Dst = Pool[A]  (alloc default template)

	// Integer fast path (two-state scalars; C = result width).
	opAdd
	opSub
	opMul
	opAnd
	opOr
	opXor
	opShl
	opShr
	opAshr
	opNot // Dst, A; C = width
	opNeg // Dst, A; C = width

	// Comparisons (Dst = i1). Signed compares carry the width in C.
	opEq
	opNeq
	opUlt
	opUgt
	opUle
	opUge
	opSlt
	opSgt
	opSle
	opSge

	// Integer slice/splice fast paths.
	opExtSInt // Dst = int(C, Regs[A].Bits >> B)
	opInsSInt // Dst = splice(Regs[A], Regs[B]); aux[C..C+3) = off, n, width

	// Generic escape hatch (nine-valued logic, times, aggregates,
	// division errors): C = the ir.Opcode, evaluated by the val package.
	opEvalBin // Dst = val.Binary(C, Regs[A], Regs[B])
	opEvalUn  // Dst = val.Unary(C, Regs[A])

	// Aggregates.
	opMux     // Dst = mux(Regs[A], clamp(Regs[B]))
	opExtF    // Dst = extf(Regs[A], B)
	opExtFDyn // Dst = extf(Regs[A], clamp(Regs[B]))
	opExtS    // Dst = exts(Regs[A], off=B, n=C) (generic)
	opInsF    // Dst = insf(Regs[A], Regs[B], C)
	opInsFDyn // Dst = insf(Regs[A], Regs[B], Regs[C]); out-of-range dropped
	opInsS    // Dst = inss(Regs[A], Regs[B]); aux[C..C+2) = off, n
	opAgg     // Dst = aggregate of aux[A..A+B) element registers

	// Signals (A = signal slot unless noted).
	opPrb     // Dst = Probe(Sigs[A])
	opDrv     // Drive(Sigs[A], Regs[B], Regs[C].Time())
	opDrvCond // like opDrv, gated on Regs[Dst].Bits != 0
	opDel     // del site Dst: change-detect Sigs[B], drive Sigs[A] after Regs[C].Time()
	opReg     // reg storage site A (RegSites[A], history Regst[A])

	// Calls and intrinsics.
	opCall    // Dst (-1: void) = FuncList[A](aux[B..B+C) arg registers)
	opAssert  // llhd.assert: OnAssert when Regs[A].Bits == 0
	opDisplay // llhd.display: aux[A..A+B) argument registers
	opTimeNow // llhd.time: Dst = current instant (-1: discard)
	opBadCall // unknown intrinsic Strs[A]: runtime error

	// Control flow.
	opJump    // pc = A
	opBranch  // pc = Regs[A].Bits != 0 ? C : B
	opPhi     // parallel edge moves: aux[A..A+2B) = (src, dst) pairs
	opWaitArm // Subscribe(Waits[A]); B >= 0: ScheduleWake(Regs[B].Time())
	opSuspend // Frame.PC = A; yield to the engine
	opHalt
	opRet     // function return, void
	opRetV    // function return, Ret = Regs[A]
	opUnreach // reached unreachable: runtime error

	// A fused chain of integer splices (rule 4 of plan.go).
	opInsSCat // Dst = Regs[A] with B pieces spliced in; aux[C] = width, then (src, off, n) per piece

	numOps
)

// opWritesDst marks the opcodes whose Dst is a register the instruction
// writes (for the others it is unused, a condition or a site index). Store
// coalescing may only redirect these, and each of them must read all its
// operands before it writes (TestOpsReadOperandsBeforeDst walks the table).
var opWritesDst = [numOps]bool{
	opMove: true, opClone: true, opCloneP: true,
	opAdd: true, opSub: true, opMul: true, opAnd: true, opOr: true, opXor: true,
	opShl: true, opShr: true, opAshr: true, opNot: true, opNeg: true,
	opEq: true, opNeq: true, opUlt: true, opUgt: true, opUle: true, opUge: true,
	opSlt: true, opSgt: true, opSle: true, opSge: true,
	opExtSInt: true, opInsSInt: true, opInsSCat: true, opEvalBin: true, opEvalUn: true,
	opMux: true, opExtF: true, opExtFDyn: true, opExtS: true,
	opInsF: true, opInsFDyn: true, opInsS: true, opAgg: true,
	opPrb: true, opCall: true, opTimeNow: true,
}

// Instr is one fixed-width bytecode instruction.
type Instr struct {
	Op      Op
	Dst     int32
	A, B, C int32
}

// RegTrig is one trigger of a reg storage site. Value, Trigger and Gate
// are register indices; Gate is -1 when ungated.
type RegTrig struct {
	Mode    ir.RegMode
	Value   int32
	Trigger int32
	Gate    int32
}

// RegSite is the static side table of one reg instruction. Sig is the
// driven signal slot; Delay is the delay register or -1.
type RegSite struct {
	Sig   int32
	Delay int32
	Trigs []RegTrig
}

// Unit is the lowered, session-independent form of one IR unit. It is
// immutable after lowering and shared by every frame (and session)
// executing it.
type Unit struct {
	Name   string
	Entity bool

	Code []Instr
	Aux  []int32     // variadic operand pool (call args, aggregates, phi pairs)
	Pool []val.Value // value templates (alloc defaults)
	Strs []string    // diagnostic strings (unknown intrinsic names)

	NRegs     int         // register file size == ir.Numbering length
	ConstRegs []val.Value // dense register template, constants pre-placed
	ConstIDs  []int32     // which registers the template seeds (for disasm)

	SigVals  []ir.Value // signal slot -> IR value, resolved per instance
	Probed   []int32    // entity sensitivity, as signal slots
	Waits    [][]int32  // wait site -> signal slots
	NDels    int
	RegSites []RegSite
	NPhi     int // widest phi edge: sizes the frame's move scratch

	// Functions only.
	FuncIdx int
	Args    []int32 // argument registers, in input order
	HasRet  bool

	unit *ir.Unit
}

// DelState is the per-frame history of one del site.
type DelState struct {
	Seen bool
	Prev val.Value
}

// RegHist is the per-frame trigger history of one reg site.
type RegHist struct {
	Seen bool
	Prev []bool
}

// Frame is the mutable half of an executing unit: the register file, the
// instance-resolved signal table, prebuilt wait lists, activation
// histories, and the resume point. Everything the shared bytecode
// mutates lives here, never in the Unit.
type Frame struct {
	Regs   []val.Value
	Sigs   []engine.SigRef
	Probed []engine.SigRef   // entity sensitivity (deduped by signal)
	Waits  [][]engine.SigRef // wait site -> prebuilt sensitivity list
	Dels   []DelState
	Regst  []RegHist
	Phi    []val.Value // phi move scratch (gather half), preallocated
	PC     int
	Ret    val.Value // function frames only
}

// NewFrame builds the per-instance frame for u: registers seeded from
// the constant template, every signal slot resolved against the
// instance's elaborated bindings, wait lists prebuilt, and activation
// histories allocated.
func (u *Unit) NewFrame(inst *engine.Instance) (*Frame, error) {
	fr := &Frame{Regs: make([]val.Value, u.NRegs)}
	copy(fr.Regs, u.ConstRegs)
	if len(u.SigVals) > 0 {
		fr.Sigs = make([]engine.SigRef, len(u.SigVals))
		for i, v := range u.SigVals {
			ref, err := ResolveSigRef(inst, v)
			if err != nil {
				return nil, err
			}
			fr.Sigs[i] = ref
		}
	}
	if u.Entity && len(u.Probed) > 0 {
		seen := make(map[*engine.Signal]bool, len(u.Probed))
		fr.Probed = make([]engine.SigRef, 0, len(u.Probed))
		for _, si := range u.Probed {
			if r := fr.Sigs[si]; r.Sig != nil && !seen[r.Sig] {
				seen[r.Sig] = true
				fr.Probed = append(fr.Probed, r)
			}
		}
	}
	if len(u.Waits) > 0 {
		fr.Waits = make([][]engine.SigRef, len(u.Waits))
		for wi, slots := range u.Waits {
			refs := make([]engine.SigRef, len(slots))
			for i, si := range slots {
				refs[i] = fr.Sigs[si]
			}
			fr.Waits[wi] = refs
		}
	}
	if u.NDels > 0 {
		fr.Dels = make([]DelState, u.NDels)
	}
	if len(u.RegSites) > 0 {
		fr.Regst = make([]RegHist, len(u.RegSites))
		for i, site := range u.RegSites {
			fr.Regst[i] = RegHist{Prev: make([]bool, len(site.Trigs))}
		}
	}
	if u.NPhi > 0 {
		fr.Phi = make([]val.Value, u.NPhi)
	}
	return fr, nil
}

// newFuncFrame builds a pooled call frame for a function unit.
func (u *Unit) newFuncFrame() *Frame {
	fr := &Frame{Regs: make([]val.Value, u.NRegs)}
	copy(fr.Regs, u.ConstRegs)
	if u.NPhi > 0 {
		fr.Phi = make([]val.Value, u.NPhi)
	}
	return fr
}

// ResolveSigRef resolves an IR value to the instance's elaborated signal
// reference: either a direct binding, or an extf/exts projection chain
// over one. Lowering uses it to validate resolvability against the
// prototype instance; NewFrame uses it to build each session's table.
func ResolveSigRef(inst *engine.Instance, v ir.Value) (engine.SigRef, error) {
	if r, ok := inst.BindOf(v); ok {
		return r, nil
	}
	in, ok := v.(*ir.Inst)
	if !ok {
		return engine.SigRef{}, errNotSignal(v)
	}
	switch in.Op {
	case ir.OpExtF:
		base, err := ResolveSigRef(inst, in.Args[0])
		if err != nil {
			return engine.SigRef{}, err
		}
		return base.Extend(engine.Proj{Kind: engine.ProjField, A: in.Imm0}), nil
	case ir.OpExtS:
		base, err := ResolveSigRef(inst, in.Args[0])
		if err != nil {
			return engine.SigRef{}, err
		}
		return base.Extend(engine.Proj{Kind: engine.ProjSlice, A: in.Imm0, B: in.Imm1}), nil
	}
	return engine.SigRef{}, errNotSignal(v)
}
