// Package assembly implements the human-readable LLHD text representation:
// a printer and a parser that round-trip the in-memory IR. The syntax
// follows the paper's Figures 2 and 5 (e.g. "%q = sig i32 %zero",
// "drv i32$ %x, %ip after %del2ns", "wait %next for %del2ns").
package assembly

import (
	"fmt"
	"io"
	"strings"

	"llhd/internal/ir"
)

// Print writes the module in LLHD assembly syntax to w.
func Print(w io.Writer, m *ir.Module) error {
	p := &printer{w: w}
	for i, u := range m.Units {
		if i > 0 {
			p.printf("\n")
		}
		p.unit(u)
	}
	return p.err
}

// String renders the module to a string.
func String(m *ir.Module) string {
	var b strings.Builder
	Print(&b, m) // strings.Builder never errors
	return b.String()
}

// StringUnit renders a single unit to a string.
func StringUnit(u *ir.Unit) string {
	var b strings.Builder
	p := &printer{w: &b}
	p.unit(u)
	return b.String()
}

type printer struct {
	w     io.Writer
	err   error
	names map[ir.Value]string
	bbs   map[*ir.Block]string
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// assignNames gives every value and block in the unit a unique local name,
// preferring the hint names and falling back to sequential numbers.
func (p *printer) assignNames(u *ir.Unit) {
	p.names = map[ir.Value]string{}
	p.bbs = map[*ir.Block]string{}
	taken := map[string]bool{}
	next := 0

	pick := func(hint string) string {
		if hint != "" && !taken[hint] {
			taken[hint] = true
			return hint
		}
		if hint != "" {
			for i := 1; ; i++ {
				cand := fmt.Sprintf("%s%d", hint, i)
				if !taken[cand] {
					taken[cand] = true
					return cand
				}
			}
		}
		for {
			cand := fmt.Sprintf("%d", next)
			next++
			if !taken[cand] {
				taken[cand] = true
				return cand
			}
		}
	}

	for _, a := range u.Inputs {
		p.names[a] = pick(a.ValueName())
	}
	for _, a := range u.Outputs {
		p.names[a] = pick(a.ValueName())
	}
	for _, b := range u.Blocks {
		p.bbs[b] = pick(b.ValueName())
	}
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if !in.Ty.IsVoid() {
			p.names[in] = pick(in.ValueName())
		}
	})
}

func (p *printer) ref(v ir.Value) string {
	if u, ok := v.(*ir.Unit); ok {
		return "@" + u.Name
	}
	if n, ok := p.names[v]; ok {
		return "%" + n
	}
	return "%?" + v.ValueName()
}

func (p *printer) bbref(b *ir.Block) string { return "%" + p.bbs[b] }

func (p *printer) unit(u *ir.Unit) {
	p.assignNames(u)
	switch u.Kind {
	case ir.UnitFunc:
		p.printf("func @%s (", u.Name)
		p.args(u.Inputs)
		p.printf(") %s {\n", u.RetType)
	default:
		p.printf("%s @%s (", u.Kind, u.Name)
		p.args(u.Inputs)
		p.printf(") -> (")
		p.args(u.Outputs)
		p.printf(") {\n")
	}
	if u.Kind == ir.UnitEntity {
		for _, in := range u.Body().Insts {
			p.printf("  ")
			p.inst(in)
			p.printf("\n")
		}
	} else {
		for _, b := range u.Blocks {
			p.printf(" %s:\n", p.bbs[b])
			for _, in := range b.Insts {
				p.printf("  ")
				p.inst(in)
				p.printf("\n")
			}
		}
	}
	p.printf("}\n")
}

func (p *printer) args(args []*ir.Arg) {
	for i, a := range args {
		if i > 0 {
			p.printf(", ")
		}
		p.printf("%s %s", a.Type(), p.ref(a))
	}
}

func (p *printer) inst(in *ir.Inst) {
	if !in.Ty.IsVoid() {
		p.printf("%s = ", p.ref(in))
	}
	switch in.Op {
	case ir.OpConstInt:
		p.printf("const %s %d", in.Ty, in.IVal)
	case ir.OpConstTime:
		p.printf("const time %s", in.TVal)
	case ir.OpConstLogic:
		p.printf("const %s %q", in.Ty, in.LVal.String())
	case ir.OpArray:
		p.printf("[%s", in.Ty.Elem)
		for i, a := range in.Args {
			if i > 0 {
				p.printf(",")
			}
			p.printf(" %s", p.ref(a))
		}
		p.printf("]")
	case ir.OpStruct:
		p.printf("{")
		for i, a := range in.Args {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("%s %s", a.Type(), p.ref(a))
		}
		p.printf("}")
	case ir.OpDrv:
		p.printf("drv %s %s, %s after %s", in.Args[0].Type(), p.ref(in.Args[0]), p.ref(in.Args[1]), p.ref(in.Args[2]))
		if len(in.Args) == 4 {
			p.printf(" if %s", p.ref(in.Args[3]))
		}
	case ir.OpReg:
		p.printf("reg %s %s", in.Args[0].Type(), p.ref(in.Args[0]))
		for _, t := range in.Triggers {
			p.printf(", %s %s %s", p.ref(t.Value), t.Mode, p.ref(t.Trigger))
			if t.Gate != nil {
				p.printf(" if %s", p.ref(t.Gate))
			}
		}
		if in.Delay != nil {
			p.printf(" after %s", p.ref(in.Delay))
		}
	case ir.OpInst:
		p.printf("inst @%s (", in.Callee)
		for i, a := range in.Args[:in.NumIns] {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("%s %s", a.Type(), p.ref(a))
		}
		p.printf(") -> (")
		for i, a := range in.Args[in.NumIns:] {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("%s %s", a.Type(), p.ref(a))
		}
		p.printf(")")
	case ir.OpCall:
		p.printf("call %s @%s (", in.Ty, in.Callee)
		for i, a := range in.Args {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("%s %s", a.Type(), p.ref(a))
		}
		p.printf(")")
	case ir.OpRet:
		if len(in.Args) == 1 {
			p.printf("ret %s %s", in.Args[0].Type(), p.ref(in.Args[0]))
		} else {
			p.printf("ret")
		}
	case ir.OpBr:
		if len(in.Args) == 1 {
			p.printf("br %s, %s, %s", p.ref(in.Args[0]), p.bbref(in.Dests[0]), p.bbref(in.Dests[1]))
		} else {
			p.printf("br %s", p.bbref(in.Dests[0]))
		}
	case ir.OpPhi:
		p.printf("phi %s ", in.Ty)
		for i := range in.Args {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("[%s, %s]", p.ref(in.Args[i]), p.bbref(in.Dests[i]))
		}
	case ir.OpWait:
		p.printf("wait %s", p.bbref(in.Dests[0]))
		if in.TimeArg != nil || len(in.Args) > 0 {
			p.printf(" for ")
			first := true
			if in.TimeArg != nil {
				p.printf("%s", p.ref(in.TimeArg))
				first = false
			}
			for _, a := range in.Args {
				if !first {
					p.printf(", ")
				}
				p.printf("%s", p.ref(a))
				first = false
			}
		}
	default:
		p.regular(in)
	}
}

// regular prints the forms the instruction-set table describes:
// "name [T] %a, %b…[, imm…]", a dynamic index operand standing in for the
// first immediate.
func (p *printer) regular(in *ir.Inst) {
	info := in.Op.Info()
	p.printf("%s", in.Op)
	if info.Result == ir.ResultIrregular {
		return // no assembly form: an opcode outside the instruction set
	}
	if info.Type != ir.AsmNoType {
		p.printf(" %s", info.WrittenType(in))
	}
	for i, a := range in.Args {
		if i > 0 {
			p.printf(",")
		}
		p.printf(" %s", p.ref(a))
	}
	imms := [...]int{in.Imm0, in.Imm1}
	for i := len(in.Args) - int(info.MinArgs); i < int(info.Imms); i++ {
		p.printf(", %d", imms[i])
	}
}
