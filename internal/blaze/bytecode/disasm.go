package bytecode

import (
	"fmt"
	"strings"
)

// opNames maps opcodes to their mnemonic. Append-only, like the opcode
// space itself: goldens diff against these names.
var opNames = [numOps]string{
	opNop:     "nop",
	opMove:    "move",
	opClone:   "clone",
	opCloneP:  "clonep",
	opAdd:     "add",
	opSub:     "sub",
	opMul:     "mul",
	opAnd:     "and",
	opOr:      "or",
	opXor:     "xor",
	opShl:     "shl",
	opShr:     "shr",
	opAshr:    "ashr",
	opNot:     "not",
	opNeg:     "neg",
	opEq:      "eq",
	opNeq:     "neq",
	opUlt:     "ult",
	opUgt:     "ugt",
	opUle:     "ule",
	opUge:     "uge",
	opSlt:     "slt",
	opSgt:     "sgt",
	opSle:     "sle",
	opSge:     "sge",
	opExtSInt: "exts.i",
	opInsSInt: "inss.i",
	opEvalBin: "evalbin",
	opEvalUn:  "evalun",
	opMux:     "mux",
	opExtF:    "extf",
	opExtFDyn: "extf.d",
	opExtS:    "exts",
	opInsF:    "insf",
	opInsFDyn: "insf.d",
	opInsS:    "inss",
	opAgg:     "agg",
	opPrb:     "prb",
	opDrv:     "drv",
	opDrvCond: "drv.c",
	opDel:     "del",
	opReg:     "reg",
	opCall:    "call",
	opAssert:  "assert",
	opDisplay: "display",
	opTimeNow: "timenow",
	opBadCall: "badcall",
	opJump:    "jump",
	opBranch:  "branch",
	opPhi:     "phi",
	opWaitArm: "waitarm",
	opSuspend: "suspend",
	opHalt:    "halt",
	opRet:     "ret",
	opRetV:    "retv",
	opUnreach: "unreachable",
	opInsSCat: "inss.cat",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Disasm renders a lowered unit as reviewable text: a header with the
// unit's shapes, the pre-placed constant registers, and one line per
// instruction with aux operands expanded in place. The format is stable;
// golden tests pin it (and, through it, the encoding).
func Disasm(u *Unit) string {
	var sb strings.Builder
	kind := "proc"
	if u.Entity {
		kind = "entity"
	}
	if u.Args != nil || u.HasRet {
		kind = "func"
	}
	fmt.Fprintf(&sb, "%s @%s: nregs=%d sigs=%d waits=%d dels=%d regsites=%d phi=%d\n",
		kind, u.Name, u.NRegs, len(u.SigVals), len(u.Waits), u.NDels, len(u.RegSites), u.NPhi)
	for _, id := range u.ConstIDs {
		fmt.Fprintf(&sb, "  const r%d = %s\n", id, u.ConstRegs[id])
	}
	for si, trigs := range u.Waits {
		fmt.Fprintf(&sb, "  wait w%d = sigs%v\n", si, trigs)
	}
	for ri, site := range u.RegSites {
		fmt.Fprintf(&sb, "  regsite %d: sig%d delay=r%d trigs=", ri, site.Sig, site.Delay)
		for k, t := range site.Trigs {
			if k > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "{mode=%d val=r%d trig=r%d gate=r%d}", t.Mode, t.Value, t.Trigger, t.Gate)
		}
		sb.WriteString("\n")
	}
	for pc := range u.Code {
		sb.WriteString(disasmInstr(u, pc))
		sb.WriteString("\n")
	}
	return sb.String()
}

// disasmInstr renders one instruction.
func disasmInstr(u *Unit, pc int) string {
	i := u.Code[pc]
	head := fmt.Sprintf("  %04d  %-8s", pc, i.Op)
	switch i.Op {
	case opNop, opHalt, opRet:
		return strings.TrimRight(head, " ")
	case opMove, opClone:
		return head + fmt.Sprintf("r%d, r%d", i.Dst, i.A)
	case opCloneP:
		return head + fmt.Sprintf("r%d, pool%d", i.Dst, i.A)
	case opAdd, opSub, opMul, opAnd, opOr, opXor, opShl, opShr, opAshr:
		return head + fmt.Sprintf("r%d, r%d, r%d, i%d", i.Dst, i.A, i.B, i.C)
	case opNot, opNeg:
		return head + fmt.Sprintf("r%d, r%d, i%d", i.Dst, i.A, i.C)
	case opEq, opNeq, opUlt, opUgt, opUle, opUge:
		return head + fmt.Sprintf("r%d, r%d, r%d", i.Dst, i.A, i.B)
	case opSlt, opSgt, opSle, opSge:
		return head + fmt.Sprintf("r%d, r%d, r%d, i%d", i.Dst, i.A, i.B, i.C)
	case opExtSInt:
		return head + fmt.Sprintf("r%d, r%d, off=%d, n=%d", i.Dst, i.A, i.B, i.C)
	case opInsSInt:
		return head + fmt.Sprintf("r%d, r%d, r%d, off=%d, n=%d, w=%d",
			i.Dst, i.A, i.B, u.Aux[i.C], u.Aux[i.C+1], u.Aux[i.C+2])
	case opInsSCat:
		var sb strings.Builder
		// The mnemonic fills the column: the separating space is the arm's.
		fmt.Fprintf(&sb, " r%d, r%d, w=%d", i.Dst, i.A, u.Aux[i.C])
		for k := i.C + 1; k < i.C+1+3*i.B; k += 3 {
			fmt.Fprintf(&sb, ", r%d@%d+%d", u.Aux[k], u.Aux[k+1], u.Aux[k+2])
		}
		return head + sb.String()
	case opEvalBin:
		return head + fmt.Sprintf("r%d, r%d, r%d, op=%d", i.Dst, i.A, i.B, i.C)
	case opEvalUn:
		return head + fmt.Sprintf("r%d, r%d, op=%d", i.Dst, i.A, i.C)
	case opMux:
		return head + fmt.Sprintf("r%d, r%d, r%d", i.Dst, i.A, i.B)
	case opExtF:
		return head + fmt.Sprintf("r%d, r%d, k=%d", i.Dst, i.A, i.B)
	case opExtFDyn:
		return head + fmt.Sprintf("r%d, r%d, r%d", i.Dst, i.A, i.B)
	case opExtS:
		return head + fmt.Sprintf("r%d, r%d, off=%d, n=%d", i.Dst, i.A, i.B, i.C)
	case opInsF:
		return head + fmt.Sprintf("r%d, r%d, r%d, k=%d", i.Dst, i.A, i.B, i.C)
	case opInsFDyn:
		return head + fmt.Sprintf("r%d, r%d, r%d, r%d", i.Dst, i.A, i.B, i.C)
	case opInsS:
		return head + fmt.Sprintf("r%d, r%d, r%d, off=%d, n=%d", i.Dst, i.A, i.B, u.Aux[i.C], u.Aux[i.C+1])
	case opAgg:
		return head + fmt.Sprintf("r%d, %s", i.Dst, auxRegs(u, i.A, i.B))
	case opPrb:
		return head + fmt.Sprintf("r%d, sig%d", i.Dst, i.A)
	case opDrv:
		return head + fmt.Sprintf("sig%d, r%d, after r%d", i.A, i.B, i.C)
	case opDrvCond:
		return head + fmt.Sprintf("sig%d, r%d, after r%d, if r%d", i.A, i.B, i.C, i.Dst)
	case opDel:
		return head + fmt.Sprintf("site%d, sig%d, from sig%d, after r%d", i.Dst, i.A, i.B, i.C)
	case opReg:
		return head + fmt.Sprintf("site%d", i.A)
	case opCall:
		return head + fmt.Sprintf("r%d, fn%d, %s", i.Dst, i.A, auxRegs(u, i.B, i.C))
	case opAssert:
		return head + fmt.Sprintf("r%d", i.A)
	case opDisplay:
		return head + auxRegs(u, i.A, i.B)
	case opTimeNow:
		return head + fmt.Sprintf("r%d", i.Dst)
	case opBadCall:
		return head + fmt.Sprintf("@%s", u.Strs[i.A])
	case opJump:
		return head + fmt.Sprintf("@%04d", i.A)
	case opBranch:
		return head + fmt.Sprintf("r%d, @%04d, @%04d", i.A, i.B, i.C)
	case opPhi:
		var parts []string
		for k := int32(0); k < i.B; k++ {
			parts = append(parts, fmt.Sprintf("r%d->r%d", u.Aux[i.A+2*k], u.Aux[i.A+2*k+1]))
		}
		return head + strings.Join(parts, ", ")
	case opWaitArm:
		if i.B >= 0 {
			return head + fmt.Sprintf("w%d, for r%d", i.A, i.B)
		}
		return head + fmt.Sprintf("w%d", i.A)
	case opSuspend:
		return head + fmt.Sprintf("resume @%04d", i.A)
	case opRetV:
		return head + fmt.Sprintf("r%d", i.A)
	case opUnreach:
		return strings.TrimRight(head, " ")
	}
	return head + fmt.Sprintf("dst=%d a=%d b=%d c=%d", i.Dst, i.A, i.B, i.C)
}

func auxRegs(u *Unit, at, n int32) string {
	var parts []string
	for k := int32(0); k < n; k++ {
		parts = append(parts, fmt.Sprintf("r%d", u.Aux[at+k]))
	}
	return "[" + strings.Join(parts, " ") + "]"
}
