package bytecode

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/designs"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/pass"
	"llhd/internal/riscv"
)

// effects calls read for every register instr reads and write for every
// register it writes, in the order the dispatch loop does, and returns
// the pcs control goes to next. It is written from the encoding (the arms
// of run), not from the lowering that produces it.
func effects(u *Unit, pc int, read, write func(int32)) []int32 {
	i := u.Code[pc]
	aux := u.Aux
	next := []int32{int32(pc + 1)}
	switch i.Op {
	case opNop:
	case opMove, opClone, opNot, opNeg, opExtSInt, opEvalUn, opExtF, opExtS:
		read(i.A)
		write(i.Dst)
	case opCloneP, opPrb:
		write(i.Dst)
	case opAdd, opSub, opMul, opAnd, opOr, opXor, opShl, opShr, opAshr,
		opEq, opNeq, opUlt, opUgt, opUle, opUge, opSlt, opSgt, opSle, opSge,
		opInsSInt, opEvalBin, opMux, opExtFDyn, opInsF, opInsS:
		read(i.A)
		read(i.B)
		write(i.Dst)
	case opInsFDyn:
		read(i.A)
		read(i.B)
		read(i.C)
		write(i.Dst)
	case opInsSCat:
		read(i.A)
		for k := int32(0); k < i.B; k++ {
			read(aux[i.C+1+3*k])
		}
		write(i.Dst)
	case opInsSRep:
		read(i.A)
		for k := int32(0); k < i.B; k++ {
			read(aux[i.C+1+4*k])
		}
		write(i.Dst)
	case opAgg:
		for _, r := range aux[i.A : i.A+i.B] {
			read(r)
		}
		write(i.Dst)
	case opDrv:
		read(i.B)
		read(i.C)
	case opDrvCond:
		read(i.Dst)
		read(i.B)
		read(i.C)
	case opDel:
		read(i.C)
	case opReg:
		site := u.RegSites[i.A]
		if site.Delay >= 0 {
			read(site.Delay)
		}
		for _, t := range site.Trigs {
			read(t.Trigger)
			read(t.Value)
			if t.Gate >= 0 {
				read(t.Gate)
			}
		}
	case opCall:
		for _, r := range aux[i.B : i.B+i.C] {
			read(r)
		}
		if i.Dst >= 0 {
			write(i.Dst)
		}
	case opAssert:
		read(i.A)
	case opDisplay:
		for _, r := range aux[i.A : i.A+i.B] {
			read(r)
		}
	case opTimeNow:
		if i.Dst >= 0 {
			write(i.Dst)
		}
	case opMoves:
		for k := i.A; k < i.A+2*i.B; k += 2 {
			read(aux[k])
			write(aux[k+1])
		}
	case opWaitArm:
		if i.B >= 0 {
			read(i.B)
		}
	case opJump:
		next = []int32{i.A}
	case opSuspend:
		next = []int32{i.A} // where the next activation resumes
	case opBranch:
		read(i.A)
		next = []int32{i.B, i.C}
	case opBrEq, opBrUlt:
		read(i.A)
		read(i.B)
		next = []int32{i.Dst, i.C}
	case opBrRise:
		read(i.Dst)
		write(i.Dst)
		next = []int32{i.B, i.C}
	case opRetV:
		read(i.A)
		next = nil
	case opHalt, opRet, opUnreach, opBadCall:
		next = nil
	default:
		panic(fmt.Sprintf("effects: %s has no row", i.Op))
	}
	return next
}

// regSet is a set of registers, one bit each.
type regSet []uint64

func (s regSet) has(r int32) bool { return s[r/64]&(1<<(r%64)) != 0 }
func (s regSet) add(r int32)      { s[r/64] |= 1 << (r % 64) }

// checkDefined is a forward must-analysis over u's lowered code: a
// register is defined at a pc when every path from the unit's entry to
// it writes the register, the entry defining the constant template and a
// function's arguments, and a resume point the registers defined where
// the activation suspended. It reports every read of a register that is
// not defined there: such a read sees the frame template's zero on some
// path, whatever the interpreter reads.
func checkDefined(u *Unit) error {
	n := len(u.Code)
	words := (u.NRegs + 63) / 64
	in := make([]regSet, n)
	for pc := range in {
		in[pc] = make(regSet, words)
		for w := range in[pc] {
			in[pc][w] = ^uint64(0) // unknown: every path seen so far defines all
		}
	}
	entry := make(regSet, words)
	for _, r := range u.ConstIDs {
		entry.add(r)
	}
	for _, r := range u.Args {
		entry.add(r)
	}
	copy(in[0], entry)
	work := []int{0}
	queued := make([]bool, n)
	queued[0] = true
	out := make(regSet, words)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		queued[pc] = false
		copy(out, in[pc])
		for _, s := range effects(u, pc, func(int32) {}, out.add) {
			changed := false
			for w := range out {
				if v := in[s][w] & out[w]; v != in[s][w] {
					in[s][w] = v
					changed = true
				}
			}
			if changed && !queued[s] {
				queued[s] = true
				work = append(work, int(s))
			}
		}
	}
	// A pc nothing reaches keeps every bit and reports nothing.
	var errs []string
	for pc := range u.Code {
		cur := append(regSet(nil), in[pc]...)
		effects(u, pc, func(r int32) {
			if !cur.has(r) {
				errs = append(errs, fmt.Sprintf("@%s pc %d (%s): r%d is read before every path writes it", u.Name, pc, u.Code[pc].Op, r))
			}
		}, cur.add)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return nil
}

// lowerModule elaborates m under top the way blaze does and returns every
// unit lowered for it, the functions they call included.
func lowerModule(t *testing.T, m *ir.Module, top string) []*Unit {
	t.Helper()
	m.Freeze()
	prog := NewProgram(m)
	seen := map[string]bool{}
	var units []*Unit
	factory := func(inst *engine.Instance) (engine.Process, error) {
		if !seen[inst.Unit.Name] {
			seen[inst.Unit.Name] = true
			u, err := prog.LowerUnit(inst)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		return &idle{name: inst.Name}, nil
	}
	if err := engine.Elaborate(engine.New(), m, top, factory); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return append(units, prog.FuncList...)
}

// TestLoweredRegistersDefined runs checkDefined on every unit of the ten
// Table 2 designs, the RV32I core and fabric_4x40 (testdata/fabric_4x40.sv),
// behavioural and after the §4 lowering (the units TestBytecodeSizeRatchet
// pins), and of every .llhd corpus entry in both forms. A rewrite of plan.go that leaves a register
// unwritten on a path that reads it fails here without a simulation,
// even where the frame template's zero happens to be the right value.
func TestLoweredRegistersDefined(t *testing.T) {
	words, err := riscv.Assemble("j 0")
	if err != nil {
		t.Fatal(err)
	}
	var hex strings.Builder
	if err := riscv.WriteHex(&hex, words); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rv32i.hex")
	if err := os.WriteFile(path, []byte(hex.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(name string, mk func() (*ir.Module, error), top string) {
		for _, lowered := range []bool{false, true} {
			m, err := mk()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if lowered {
				if err := pass.LoweringPipeline().RunFixpoint(m); err != nil {
					t.Fatalf("%s: lowering: %v", name, err)
				}
			}
			if top == "" {
				top = m.DefaultTop()
			}
			for _, u := range lowerModule(t, m, top) {
				if err := checkDefined(u); err != nil {
					t.Errorf("%s (lowered %v): %v\n%s", name, lowered, err, Disasm(u))
				}
			}
		}
	}
	fabric, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "fabric_4x40.sv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(designs.All(), designs.RV32I(path), designs.Design{Name: "fabric_4x40", Top: "fabric_tb", Source: string(fabric)}) {
		check(d.Name, func() (*ir.Module, error) { return moore.Compile(d.Name, d.Source) }, d.Top)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "corpus", "*.llhd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		check(filepath.Base(f), func() (*ir.Module, error) { return assembly.Parse(filepath.Base(f), string(src)) }, "")
	}
}

// TestCheckDefinedSeesAMissingWrite holds checkDefined to its purpose on
// code built by hand: a read ahead of the only write fails, and so does
// one behind a write on only one of two paths; reads behind writes on
// every path, or of the constant template, pass.
func TestCheckDefinedSeesAMissingWrite(t *testing.T) {
	u := &Unit{Name: "p", NRegs: 4, ConstIDs: []int32{0}, Code: []Instr{
		{Op: opAdd, Dst: 1, A: 0, B: 0, C: 8},
		{Op: opBranch, A: 1, B: 3, C: 2},
		{Op: opMove, Dst: 2, A: 0},
		{Op: opAdd, Dst: 3, A: 2, B: 1, C: 8}, // r2: written on one path only
		{Op: opHalt},
	}}
	if err := checkDefined(u); err == nil || !strings.Contains(err.Error(), "pc 3 (add): r2") || strings.Count(err.Error(), "is read") != 1 {
		t.Errorf("one path without the write: got %v", err)
	}
	u.Code[1] = Instr{Op: opMove, Dst: 2, A: 1}
	if err := checkDefined(u); err != nil {
		t.Errorf("every path writes: %v", err)
	}
	u.Code[0], u.Code[1] = u.Code[1], u.Code[0] // r1 read before its write
	if err := checkDefined(u); err == nil || !strings.Contains(err.Error(), "pc 0 (move): r1") {
		t.Errorf("read before the write: got %v", err)
	}
}
