package val_test

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/blaze"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/sim"
	"llhd/internal/val"
)

// The scalar-integer rules live in this package and are called from three
// places: val.Binary/Compare/InsS, the interpreter's in-place fast path and
// blaze's dispatch loop. TestScalarOpsAgree runs every scalar op over the
// edge operands of every interesting width on all three — the engines each
// execute a one-instruction function — and requires them to agree with one
// another and with an independent arbitrary-precision oracle.

var scalarWidths = []int{1, 7, 8, 31, 32, 63, 64}

// edgeOperands returns the operand values worth trying at width w: zero,
// one, all ones, the sign bit, and the shift amounts around the width and
// around Go's own 64-bit limit, each masked to w.
func edgeOperands(w int) []uint64 {
	var out []uint64
	for _, v := range []uint64{0, 1, ^uint64(0), 1 << uint(w-1), uint64(w - 1), uint64(w), 64, 1 << 63} {
		if v = ir.MaskWidth(v, w); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// scalarCase is one instruction under test with its operand tuples.
type scalarCase struct {
	name   string
	inst   string   // the instruction, over %a (and %b)
	argTys []string // types of %a, %b
	retTy  string
	args   [][]uint64 // one tuple per call
	// want is this package's answer; an error means every engine must
	// fail too. oracle is the independent answer.
	want   func(args []uint64) (val.Value, error)
	oracle func(args []uint64) uint64
}

// source renders the case as a design: @f holds the one instruction, @p
// calls it once per operand tuple and drives each result onto its own
// signal top.o<i>.
func (c scalarCase) source() string {
	var b strings.Builder
	params := []string{c.argTys[0] + " %a"}
	if len(c.argTys) == 2 {
		params = append(params, c.argTys[1]+" %b")
	}
	fmt.Fprintf(&b, "func @f (%s) %s {\n entry:\n  %%r = %s\n  ret %s %%r\n}\n",
		strings.Join(params, ", "), c.retTy, c.inst, c.retTy)
	var outs, sigs, body []string
	for i, tuple := range c.args {
		var actuals []string
		for k, v := range tuple {
			body = append(body, fmt.Sprintf("  %%x%d_%d = const %s %d", i, k, c.argTys[k], v))
			actuals = append(actuals, fmt.Sprintf("%s %%x%d_%d", c.argTys[k], i, k))
		}
		body = append(body,
			fmt.Sprintf("  %%r%d = call %s @f (%s)", i, c.retTy, strings.Join(actuals, ", ")),
			fmt.Sprintf("  drv %s$ %%o%d, %%r%d after %%d", c.retTy, i, i))
		outs = append(outs, fmt.Sprintf("%s$ %%o%d", c.retTy, i))
		sigs = append(sigs, fmt.Sprintf("  %%o%d = sig %s %%z", i, c.retTy))
	}
	fmt.Fprintf(&b, "proc @p () -> (%s) {\n entry:\n  %%d = const time 1ns\n%s\n  halt\n}\n",
		strings.Join(outs, ", "), strings.Join(body, "\n"))
	fmt.Fprintf(&b, "entity @top () -> () {\n  %%z = const %s 0\n%s\n  inst @p () -> (%s)\n}\n",
		c.retTy, strings.Join(sigs, "\n"), strings.Join(outs, ", "))
	return b.String()
}

// engineRun is what one engine made of a design: the engine (for its
// signals) and the run error.
type engineRun struct {
	name string
	e    *engine.Engine
	err  error
}

// runEngines runs src on the interpreter and on blaze.
func runEngines(t *testing.T, src string) []engineRun {
	t.Helper()
	si, err := sim.New(assembly.MustParse("m", src), "top")
	if err != nil {
		t.Fatalf("sim.New: %v\n%s", err, src)
	}
	sb, err := blaze.New(assembly.MustParse("m", src), "top")
	if err != nil {
		t.Fatalf("blaze.New: %v\n%s", err, src)
	}
	return []engineRun{
		{"interp", si.Engine, si.Run(ir.Time{})},
		{"blaze", sb.Engine, sb.Run(ir.Time{})},
	}
}

func (c scalarCase) run(t *testing.T) {
	// Tuples this package rejects (division by zero) run one by one: the
	// engines must fail on each. The rest run as one design.
	var ok [][]uint64
	for _, tuple := range c.args {
		if _, err := c.want(tuple); err == nil {
			ok = append(ok, tuple)
			continue
		}
		bad := c
		bad.args = [][]uint64{tuple}
		for _, r := range runEngines(t, bad.source()) {
			if r.err == nil {
				t.Errorf("%s%v: val fails but %s succeeds", c.name, tuple, r.name)
			}
		}
	}
	c.args = ok
	if len(ok) == 0 {
		return
	}
	for _, tuple := range c.args {
		want, _ := c.want(tuple)
		if oracle := c.oracle(tuple); want.Kind != val.KindInt || want.Bits != oracle {
			t.Errorf("%s%v: val = %v, oracle = %d", c.name, tuple, want, oracle)
		}
	}
	for _, r := range runEngines(t, c.source()) {
		if r.err != nil {
			t.Fatalf("%s: %s: %v", c.name, r.name, r.err)
		}
		for i, tuple := range c.args {
			want, _ := c.want(tuple)
			if got := r.e.SignalByName(fmt.Sprintf("top.o%d", i)).Value(); !got.Eq(want) {
				t.Errorf("%s%v: %s = %v (width %d), val = %v (width %d)",
					c.name, tuple, r.name, got, got.Width, want, want.Width)
			}
		}
	}
}

// oracle computes a binary, compare or unary op on w-bit operands with
// arbitrary-precision arithmetic: no Go shift, no int64 reinterpretation.
// It must not be asked to divide by zero.
func oracle(op ir.Opcode, w int, a, b uint64) uint64 {
	mod := new(big.Int).Lsh(big.NewInt(1), uint(w))
	signed := func(u uint64) *big.Int {
		x := new(big.Int).SetUint64(u)
		if x.Bit(w-1) == 1 {
			x.Sub(x, mod)
		}
		return x
	}
	ua, ub := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
	sa, sb := signed(a), signed(b)
	truth := func(c bool) uint64 {
		if c {
			return 1
		}
		return 0
	}
	r := new(big.Int)
	switch op {
	case ir.OpNot:
		r.Not(ua)
	case ir.OpNeg:
		r.Neg(ua)
	case ir.OpAnd:
		r.And(ua, ub)
	case ir.OpOr:
		r.Or(ua, ub)
	case ir.OpXor:
		r.Xor(ua, ub)
	case ir.OpAdd:
		r.Add(ua, ub)
	case ir.OpSub:
		r.Sub(ua, ub)
	case ir.OpMul:
		r.Mul(ua, ub)
	case ir.OpUdiv:
		r.Quo(ua, ub)
	case ir.OpSdiv:
		r.Quo(sa, sb)
	case ir.OpUmod:
		r.Rem(ua, ub)
	case ir.OpSmod:
		r.Rem(sa, sb)
	case ir.OpShl:
		if b >= uint64(w) {
			return 0 // every bit left the word
		}
		r.Lsh(ua, uint(b))
	case ir.OpShr:
		if b >= uint64(w) {
			return 0
		}
		r.Rsh(ua, uint(b))
	case ir.OpAshr:
		r.Rsh(sa, uint(min(b, uint64(w-1)))) // past w-1 only sign bits remain
	case ir.OpEq:
		return truth(ua.Cmp(ub) == 0)
	case ir.OpNeq:
		return truth(ua.Cmp(ub) != 0)
	case ir.OpUlt:
		return truth(ua.Cmp(ub) < 0)
	case ir.OpUgt:
		return truth(ua.Cmp(ub) > 0)
	case ir.OpUle:
		return truth(ua.Cmp(ub) <= 0)
	case ir.OpUge:
		return truth(ua.Cmp(ub) >= 0)
	case ir.OpSlt:
		return truth(sa.Cmp(sb) < 0)
	case ir.OpSgt:
		return truth(sa.Cmp(sb) > 0)
	case ir.OpSle:
		return truth(sa.Cmp(sb) <= 0)
	case ir.OpSge:
		return truth(sa.Cmp(sb) >= 0)
	default:
		panic("oracle: unexpected op " + op.String())
	}
	return r.Mod(r, mod).Uint64() // Mod is Euclidean: the two's complement pattern
}

func TestScalarOpsAgree(t *testing.T) {
	binary := []ir.Opcode{
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpUdiv, ir.OpSdiv, ir.OpUmod, ir.OpSmod, ir.OpShl, ir.OpShr, ir.OpAshr,
		ir.OpEq, ir.OpNeq, ir.OpUlt, ir.OpUgt, ir.OpUle, ir.OpUge,
		ir.OpSlt, ir.OpSgt, ir.OpSle, ir.OpSge,
	}
	var cases []scalarCase
	for _, w := range scalarWidths {
		w := w // go.mod is below 1.22: closures below would share the loop variable
		ty := fmt.Sprintf("i%d", w)
		ops := edgeOperands(w)
		var singles, pairs [][]uint64
		for _, a := range ops {
			singles = append(singles, []uint64{a})
			for _, b := range ops {
				pairs = append(pairs, []uint64{a, b})
			}
		}
		for _, op := range binary {
			op := op
			retTy := ty
			if op.IsCompare() {
				retTy = "i1"
			}
			cases = append(cases, scalarCase{
				name: fmt.Sprintf("%s/%s", op, ty), inst: fmt.Sprintf("%s %s %%a, %%b", op, ty),
				argTys: []string{ty, ty}, retTy: retTy, args: pairs,
				want: func(x []uint64) (val.Value, error) {
					return val.Binary(op, val.Int(w, x[0]), val.Int(w, x[1]))
				},
				oracle: func(x []uint64) uint64 { return oracle(op, w, x[0], x[1]) },
			})
		}
		for _, op := range []ir.Opcode{ir.OpNot, ir.OpNeg} {
			op := op
			cases = append(cases, scalarCase{
				name: fmt.Sprintf("%s/%s", op, ty), inst: fmt.Sprintf("%s %s %%a", op, ty),
				argTys: []string{ty}, retTy: ty, args: singles,
				want:   func(x []uint64) (val.Value, error) { return val.Unary(op, nil, val.Int(w, x[0])) },
				oracle: func(x []uint64) uint64 { return oracle(op, w, x[0], 0) },
			})
		}
		// Bit slices at both ends, across the middle and over the whole
		// word. The oracle spells the slice out bit by bit.
		for _, sl := range [][2]int{{0, 1}, {w - 1, 1}, {w / 2, w - w/2}, {0, w}} {
			off, n := sl[0], sl[1]
			nty := fmt.Sprintf("i%d", n)
			var ins [][]uint64
			for _, a := range ops {
				for _, v := range edgeOperands(n) {
					ins = append(ins, []uint64{a, v})
				}
			}
			cases = append(cases, scalarCase{
				name: fmt.Sprintf("exts/%s[%d+%d]", ty, off, n), inst: fmt.Sprintf("exts %s %%a, %d, %d", nty, off, n),
				argTys: []string{ty}, retTy: nty, args: singles,
				want: func(x []uint64) (val.Value, error) { return val.ExtS(val.Int(w, x[0]), off, n) },
				oracle: func(x []uint64) uint64 {
					var r uint64
					for i := 0; i < n; i++ {
						r |= (x[0] >> uint(off+i) & 1) << uint(i)
					}
					return r
				},
			}, scalarCase{
				name: fmt.Sprintf("inss/%s[%d+%d]", ty, off, n), inst: fmt.Sprintf("inss %s %%a, %%b, %d, %d", ty, off, n),
				argTys: []string{ty, nty}, retTy: ty, args: ins,
				want: func(x []uint64) (val.Value, error) {
					return val.InsS(val.Int(w, x[0]), val.Int(n, x[1]), off, n)
				},
				oracle: func(x []uint64) uint64 {
					r := x[0]
					for i := 0; i < n; i++ {
						r = r&^(1<<uint(off+i)) | (x[1]>>uint(i)&1)<<uint(off+i)
					}
					return r
				},
			})
		}
	}
	for _, c := range cases {
		c.run(t)
	}
}
