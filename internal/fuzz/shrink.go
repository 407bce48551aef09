package fuzz

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"llhd/internal/assembly"
	"llhd/internal/ir"
	"llhd/internal/logic"
)

// Shrink reduces a failing design to a minimal repro: starting from the
// assembly text of a design for which the differential oracle reports a
// failure, it greedily applies structural reductions — removing units,
// instructions and branches, truncating waits, zeroing constants,
// narrowing integer widths — and keeps each reduction only if the result
// still parses, still passes ir.Verify, and still fails the oracle with
// the same failure class. The returned text is the reduced repro and the
// failure it still produces.
//
// Shrinking is deterministic: the same input text and options reduce to
// the same repro.
func Shrink(name, text string, opt Options) (string, *Failure) {
	orig := CheckText(name, text, opt)
	if orig == nil {
		return text, nil
	}
	class := orig.Class
	cur := canonical(name, text)
	if cur == "" {
		return text, orig
	}

	// accept parses cur, applies mut, and keeps the result if it shrank
	// the design and still fails in the same class.
	accept := func(mut func(m *ir.Module) bool) bool {
		m, err := assembly.Parse(name, cur)
		if err != nil {
			return false
		}
		if !mut(m) {
			return false
		}
		cand := assembly.String(m)
		return acceptText(name, &cur, cand, class, opt)
	}

	for budget := 0; budget < 10_000; budget++ {
		if !shrinkRound(name, &cur, class, opt, accept) {
			break
		}
	}
	return cur, CheckText(name, cur, opt)
}

// shrinkRound tries every reduction kind once and reports whether any
// reduction was accepted.
func shrinkRound(name string, cur *string, class string, opt Options, accept func(func(m *ir.Module) bool) bool) bool {
	// 1. Drop whole units (never the last entity: it is the default top).
	if acceptIndexed(accept, func(m *ir.Module, i int) bool {
		if i >= len(m.Units) {
			return false
		}
		u := m.Units[i]
		if u.Name == m.DefaultTop() {
			return false
		}
		m.Remove(u)
		return true
	}) {
		return true
	}
	// 2. Remove single instructions (uses replaced when possible).
	if acceptIndexed(accept, removeNthInst) {
		return true
	}
	// 3. Fold conditional branches to one arm, pruning dead blocks/phis.
	if acceptIndexed(accept, func(m *ir.Module, i int) bool { return foldNthBranch(m, i, 0) }) {
		return true
	}
	if acceptIndexed(accept, func(m *ir.Module, i int) bool { return foldNthBranch(m, i, 1) }) {
		return true
	}
	// 4. Truncate at waits: wait becomes halt, or collapses to a plain
	// branch (dropping the suspension but keeping control flow).
	if acceptIndexed(accept, waitNthToHalt) {
		return true
	}
	if acceptIndexed(accept, waitNthToBr) {
		return true
	}
	// 5. Drop drive conditions and wait sensitivities.
	if acceptIndexed(accept, simplifyNthTimed) {
		return true
	}
	// 6. Zero out constants.
	if acceptIndexed(accept, zeroNthConst) {
		return true
	}
	// 7. Narrow integer widths (textual, token-safe).
	if narrowWidths(name, cur, class, opt) {
		return true
	}
	return false
}

// acceptIndexed drives an indexed mutation: it tries indices 0,1,2,...
// until one both applies and is accepted, or none applies.
func acceptIndexed(accept func(func(m *ir.Module) bool) bool, mut func(m *ir.Module, i int) bool) bool {
	for i := 0; ; i++ {
		applied := false
		ok := accept(func(m *ir.Module) bool {
			if mut(m, i) {
				applied = true
				return true
			}
			return false
		})
		if ok {
			return true
		}
		if !applied {
			return false // index exhausted
		}
	}
}

// nthInst returns the i-th instruction (in module walk order) that match
// accepts, with its unit and block, or a nil instruction when fewer match.
// It is the index walk of every indexed mutation below.
func nthInst(m *ir.Module, i int, match func(u *ir.Unit, b *ir.Block, in *ir.Inst) bool) (*ir.Unit, *ir.Block, *ir.Inst) {
	for _, u := range m.Units {
		for _, b := range u.Blocks {
			for _, in := range b.Insts {
				if !match(u, b, in) {
					continue
				}
				if i == 0 {
					return u, b, in
				}
				i--
			}
		}
	}
	return nil, nil, nil
}

// removeNthInst removes the i-th non-terminator instruction. An
// instruction whose uses cannot be replaced is a no-op mutation: it counts
// toward the index (so the scan continues past it) but leaves the module
// unchanged, which the acceptance check rejects cheaply.
func removeNthInst(m *ir.Module, i int) bool {
	u, b, in := nthInst(m, i, func(_ *ir.Unit, _ *ir.Block, in *ir.Inst) bool {
		return !in.Op.IsTerminator()
	})
	if in == nil {
		return false
	}
	if len(u.Uses()[in]) > 0 {
		repl := replacementFor(b, in)
		if repl == nil {
			return true // eligible but stuck: no-op
		}
		u.ReplaceAllUses(in, repl)
	}
	b.Remove(in)
	return true
}

// replacementFor finds a value to stand in for in at its uses: an operand
// of identical type, or a fresh zero constant for constant-representable
// types (inserted before in, so it dominates every use in dominated
// blocks just as in did).
func replacementFor(b *ir.Block, in *ir.Inst) ir.Value {
	var repl ir.Value
	in.Operands(func(v ir.Value) {
		if repl == nil && v.Type() == in.Ty {
			repl = v
		}
	})
	if repl != nil {
		return repl
	}
	switch in.Ty.Kind {
	case ir.IntKind, ir.EnumKind:
		k := &ir.Inst{Op: ir.OpConstInt, Ty: in.Ty}
		b.InsertBefore(k, in)
		return k
	case ir.LogicKind:
		v := make(logic.Vector, in.Ty.Width)
		for i := range v {
			v[i] = logic.L0
		}
		k := &ir.Inst{Op: ir.OpConstLogic, Ty: in.Ty, LVal: v}
		b.InsertBefore(k, in)
		return k
	case ir.TimeKind:
		k := &ir.Inst{Op: ir.OpConstTime, Ty: ir.TimeType()}
		b.InsertBefore(k, in)
		return k
	}
	return nil
}

// foldNthBranch rewrites the i-th conditional branch to always take arm,
// then prunes unreachable blocks and stale phi edges.
func foldNthBranch(m *ir.Module, i int, arm int) bool {
	u, _, t := nthInst(m, i, func(_ *ir.Unit, b *ir.Block, in *ir.Inst) bool {
		return in == b.Terminator() && in.Op == ir.OpBr && len(in.Dests) == 2
	})
	if t == nil {
		return false
	}
	t.Args = nil
	t.Dests = []*ir.Block{t.Dests[arm]}
	cleanupCFG(u)
	return true
}

// procWait matches the wait terminating a process block.
func procWait(u *ir.Unit, b *ir.Block, in *ir.Inst) bool {
	return u.Kind == ir.UnitProc && in == b.Terminator() && in.Op == ir.OpWait
}

func waitNthToHalt(m *ir.Module, i int) bool {
	u, _, t := nthInst(m, i, procWait)
	if t == nil {
		return false
	}
	t.Op = ir.OpHalt
	t.Args, t.Dests, t.TimeArg = nil, nil, nil
	cleanupCFG(u)
	return true
}

// waitNthToBr replaces the i-th wait with an unconditional branch to its
// resume block: the process no longer suspends there. (A reduction that
// creates a zero-time livelock changes the failure class and is rejected
// by the acceptance check.)
func waitNthToBr(m *ir.Module, i int) bool {
	_, _, t := nthInst(m, i, procWait)
	if t == nil {
		return false
	}
	t.Op = ir.OpBr
	t.Args, t.TimeArg = nil, nil
	return true
}

// simplifyNthTimed drops optional payload from timed instructions: a drv
// condition, or a wait's observed-signal list.
func simplifyNthTimed(m *ir.Module, i int) bool {
	_, _, in := nthInst(m, i, func(_ *ir.Unit, _ *ir.Block, in *ir.Inst) bool {
		return (in.Op == ir.OpDrv && len(in.Args) == 4) || (in.Op == ir.OpWait && len(in.Args) > 0)
	})
	if in == nil {
		return false
	}
	if in.Op == ir.OpDrv {
		in.Args = in.Args[:3]
	} else {
		in.Args = nil
	}
	return true
}

func zeroNthConst(m *ir.Module, i int) bool {
	_, _, in := nthInst(m, i, func(_ *ir.Unit, _ *ir.Block, in *ir.Inst) bool {
		return (in.Op == ir.OpConstInt && in.IVal != 0) ||
			(in.Op == ir.OpConstTime && (in.TVal.Delta != 0 || in.TVal.Eps != 0))
	})
	if in == nil {
		return false
	}
	if in.Op == ir.OpConstInt {
		in.IVal = 0
	} else {
		in.TVal = ir.Time{Fs: in.TVal.Fs}
	}
	return true
}

// cleanupCFG removes unreachable blocks and prunes phi edges whose
// incoming block is no longer a predecessor; single-entry phis collapse.
func cleanupCFG(u *ir.Unit) {
	if u.Kind == ir.UnitEntity || len(u.Blocks) == 0 {
		return
	}
	reach := map[*ir.Block]bool{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs() {
			walk(s)
		}
	}
	walk(u.Entry())
	kept := u.Blocks[:0]
	for _, b := range u.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	u.Blocks = append([]*ir.Block{}, kept...)

	preds := u.Preds()
	for _, b := range u.Blocks {
		for _, in := range b.Insts {
			if in.Op != ir.OpPhi {
				continue
			}
			var args []ir.Value
			var dests []*ir.Block
			for i, pb := range in.Dests {
				isPred := false
				for _, p := range preds[b] {
					if p == pb {
						isPred = true
						break
					}
				}
				if isPred {
					args = append(args, in.Args[i])
					dests = append(dests, pb)
				}
			}
			in.Args, in.Dests = args, dests
			if len(in.Args) == 1 {
				u.ReplaceAllUses(in, in.Args[0])
			}
		}
	}
	// Drop now-trivial single-entry phis (all uses rewritten above).
	for _, b := range u.Blocks {
		for _, in := range append([]*ir.Inst{}, b.Insts...) {
			if in.Op == ir.OpPhi && len(in.Args) <= 1 {
				b.Remove(in)
			}
		}
	}
}

// widthRe matches an iN type token not embedded in a %name.
var widthRe = regexp.MustCompile(`i([0-9]+)`)

// narrowWidths tries to shrink integer widths textually: every distinct
// width > 1 is a candidate to become half its size or 1 bit, applied to
// all its occurrences at once.
func narrowWidths(name string, cur *string, class string, opt Options) bool {
	widths := map[int]bool{}
	for _, m := range widthRe.FindAllStringSubmatchIndex(*cur, -1) {
		start := m[0]
		if start > 0 && (isWordByte((*cur)[start-1]) || (*cur)[start-1] == '%') {
			continue // part of a name like %i8 or xi8
		}
		w, err := strconv.Atoi((*cur)[m[2]:m[3]])
		if err == nil && w > 1 {
			widths[w] = true
		}
	}
	ordered := make([]int, 0, len(widths))
	for w := range widths {
		ordered = append(ordered, w)
	}
	// Largest widths first: the biggest single reduction.
	slices.SortFunc(ordered, func(a, b int) int { return b - a })
	for _, w := range ordered {
		for _, to := range []int{1, w / 2} {
			if to < 1 || to == w {
				continue
			}
			cand := replaceWidth(*cur, w, to)
			if acceptText(name, cur, cand, class, opt) {
				return true
			}
		}
	}
	return false
}

func isWordByte(c byte) bool {
	return c == '_' || c == '.' || (c >= '0' && c <= '9') ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// replaceWidth rewrites every standalone iFROM type token to iTO.
func replaceWidth(text string, from, to int) string {
	needle := "i" + strconv.Itoa(from)
	var b strings.Builder
	for i := 0; i < len(text); {
		j := strings.Index(text[i:], needle)
		if j < 0 {
			b.WriteString(text[i:])
			break
		}
		j += i
		end := j + len(needle)
		prevOK := j == 0 || (!isWordByte(text[j-1]) && text[j-1] != '%')
		nextOK := end >= len(text) || !isWordByte(text[end])
		b.WriteString(text[i:j])
		if prevOK && nextOK {
			b.WriteString("i" + strconv.Itoa(to))
		} else {
			b.WriteString(needle)
		}
		i = end
	}
	return b.String()
}

// acceptText validates a candidate text and commits it when it shrank and
// still fails in the same class.
func acceptText(name string, cur *string, cand, class string, opt Options) bool {
	if cand == *cur || len(cand) >= len(*cur)+64 {
		return false
	}
	m, err := assembly.Parse(name, cand)
	if err != nil {
		return false
	}
	if ir.Verify(m, ir.Behavioural) != nil {
		return false
	}
	f := CheckText(name, cand, opt)
	if f == nil || f.Class != class {
		return false
	}
	*cur = assembly.String(m)
	return true
}

// canonical parses and reprints text so later byte comparisons are
// against printer output.
func canonical(name, text string) string {
	m, err := assembly.Parse(name, text)
	if err != nil {
		return ""
	}
	return assembly.String(m)
}

// NumInstsOf reports the instruction count of assembly text, for
// reporting repro sizes.
func NumInstsOf(name, text string) int {
	m, err := assembly.Parse(name, text)
	if err != nil {
		return -1
	}
	n := 0
	for _, u := range m.Units {
		n += u.NumInsts()
	}
	return n
}

// ReproHeader renders the standard corpus-file comment header.
func ReproHeader(reason string) string {
	lines := strings.Split(reason, "\n")
	var b strings.Builder
	b.WriteString("; llhd-fuzz repro\n")
	for _, l := range lines {
		fmt.Fprintf(&b, "; %s\n", l)
	}
	return b.String()
}
