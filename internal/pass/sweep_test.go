package pass

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"llhd/internal/assembly"
	"llhd/internal/ir"
)

// countOps tallies the instructions of a unit by mnemonic.
func countOps(u *ir.Unit) map[string]int {
	n := map[string]int{}
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) { n[in.Op.String()]++ })
	return n
}

// TestECMHoistsEverythingInOneRun: ECM used to stop after 1000 moves and
// leave the rest to the pipeline's fixpoint. One run must now hoist a
// 5000-instruction chain out from behind a branch, and a second run must
// find nothing left.
func TestECMHoistsEverythingInOneRun(t *testing.T) {
	const n = 5000
	var src strings.Builder
	src.WriteString("func @f (i32 %a, i1 %c) i32 {\n entry:\n  br %c, %skip, %work\n work:\n")
	src.WriteString("  %x0 = add i32 %a, %a\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, "  %%x%d = add i32 %%x%d, %%a\n", i, i-1)
	}
	fmt.Fprintf(&src, "  br %%join\n skip:\n  br %%join\n join:\n  %%r = phi i32 [%%x%d, %%work], [%%a, %%skip]\n  ret i32 %%r\n}\n", n-1)
	m := assembly.MustParse("m", src.String())
	f := m.Unit("f")

	if !mustRun(t, ECM(), m) {
		t.Fatal("first run reported no change")
	}
	if got := len(f.Entry().Insts); got != n+1 {
		t.Errorf("entry holds %d instructions after one run, want the %d adds and the branch", got, n)
	}
	for _, b := range f.Blocks[1:] {
		for _, in := range b.Insts {
			if in.Op == ir.OpAdd {
				t.Fatalf("%s left behind in %s", in, b)
			}
		}
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatalf("hoisted unit does not verify: %v", err)
	}
	if mustRun(t, ECM(), m) {
		t.Error("second run reported a change")
	}
}

// TestECMKeepsProbeInItsTemporalRegion: a prb may rise to the top of its
// temporal region but not across the wait that opens it.
func TestECMKeepsProbeInItsTemporalRegion(t *testing.T) {
	m := assembly.MustParse("m", `
proc @p (i8$ %a) -> (i8$ %q) {
 entry:
  %t = const time 1ns
  wait %woke for %a
 woke:
  %c = const i1 1
  br %c, %skip, %work
 work:
  %v = prb i8$ %a
  %n = not i8 %v
  drv i8$ %q, %n after %t
  br %skip
 skip:
  br %entry
}
`)
	mustRun(t, ECM(), m)
	p := m.Unit("p")
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			if (in.Op == ir.OpPrb || in.Op == ir.OpNot) && b.ValueName() != "woke" {
				t.Errorf("%s ended up in %s, want woke (the top of its temporal region)", in.Op, b)
			}
		}
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatal(err)
	}
}

// TestCSEKeyIdentity pins what the comparable key tells apart and what it
// merges; each case is a function body and the instruction counts CSE must
// leave.
func TestCSEKeyIdentity(t *testing.T) {
	cases := []struct {
		name string
		body string
		want map[string]int
	}{
		{"const time differing in delta or epsilon", `
  %t0 = const time 1ns
  %t1 = const time 1ns 1d
  %t2 = const time 1ns 0d 1e
  %t3 = const time 1ns 1d
  %t4 = const time 1ns
`, map[string]int{"const": 3}},
		{"const lN differing in X/Z", `
  %l0 = const l4 "01XZ"
  %l1 = const l4 "01ZX"
  %l2 = const l4 "01XZ"
  %l3 = const l4 "0100"
`, map[string]int{"const": 3}},
		{"const int differing in type or value", `
  %k0 = const i8 1
  %k1 = const i16 1
  %k2 = const i8 2
  %k3 = const i8 1
`, map[string]int{"const": 3}},
		{"insf differing in index", `
  %arr = [i32 %a, %b]
  %i0 = insf [2 x i32] %arr, %a, 0
  %i1 = insf [2 x i32] %arr, %a, 1
  %i2 = insf [2 x i32] %arr, %a, 0
`, map[string]int{"array": 1, "insf": 2}},
		{"inss differing in offset or length", `
  %s0 = inss i32 %a, %b, 0, 8
  %s1 = inss i32 %a, %b, 8, 8
  %s2 = inss i32 %a, %b, 0, 16
  %s3 = inss i32 %a, %b, 0, 8
`, map[string]int{"inss": 3}},
		{"commuted operands of commutative ops", `
  %p0 = add i32 %a, %b
  %p1 = add i32 %b, %a
  %q0 = and i32 %a, %b
  %q1 = and i32 %b, %a
  %r0 = sub i32 %a, %b
  %r1 = sub i32 %b, %a
  %e0 = eq i32 %a, %b
  %e1 = eq i32 %b, %a
  %u0 = ult i32 %a, %b
  %u1 = ult i32 %b, %a
`, map[string]int{"add": 1, "and": 1, "sub": 2, "eq": 1, "ult": 2}},
		{"aggregate literals longer than the inline key", `
  %w0 = [i32 %a, %b, %a, %b, %a]
  %w1 = [i32 %a, %b, %a, %b, %a]
  %w2 = [i32 %a, %b, %a, %a, %b]
  %w3 = [i32 %a, %b, %a, %b]
  %w4 = {i32 %a, i32 %b, i32 %a, i32 %b}
`, map[string]int{"array": 3, "struct": 1}},
		{"a chain of duplicates collapses in one run", `
  %x0 = add i32 %a, %b
  %x1 = add i32 %a, %b
  %y0 = not i32 %x0
  %y1 = not i32 %x1
  %z0 = xor i32 %y0, %x0
  %z1 = xor i32 %x1, %y1
`, map[string]int{"add": 1, "not": 1, "xor": 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := assembly.MustParse("m", "func @f (i32 %a, i32 %b) void {\n entry:\n"+c.body+"  ret\n}\n")
			mustRun(t, CSE(), m)
			got := countOps(m.Unit("f"))
			delete(got, "ret")
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("after cse: %v, want %v", got, c.want)
			}
			if mustRun(t, CSE(), m) {
				t.Error("second run reported a change")
			}
		})
	}
}

// TestCSEIsDominatorScoped: a duplicate merges into a holder that
// dominates it, also when an earlier block that does not dominate holds
// the same expression; siblings stay apart.
func TestCSEIsDominatorScoped(t *testing.T) {
	m := assembly.MustParse("m", `
func @f (i32 %a, i1 %c) i32 {
 entry:
  br %c, %right, %left
 left:
  %l = add i32 %a, %a
  br %join
 right:
  %r = add i32 %a, %a
  %r2 = add i32 %a, %a
  br %join
 join:
  %p = phi i32 [%l, %left], [%r2, %right]
  %j = add i32 %a, %a
  %s = xor i32 %p, %j
  ret i32 %s
}
`)
	mustRun(t, CSE(), m)
	if got := countOps(m.Unit("f"))["add"]; got != 3 {
		t.Errorf("%d adds left, want 3: one per sibling and one in the join", got)
	}
	if err := ir.Verify(m, ir.Behavioural); err != nil {
		t.Fatal(err)
	}
}

// TestSimplifySettlesLoopCarriedPhi: the phi reads %n along the back edge
// before %n is replaced; the round that rewrites that operand must be
// followed by one that sees the phi has become trivial.
func TestSimplifySettlesLoopCarriedPhi(t *testing.T) {
	m := assembly.MustParse("m", `
func @f (i32 %a, i1 %c) i32 {
 entry:
  %zero = const i32 0
  br %head
 head:
  %p = phi i32 [%a, %entry], [%n, %head]
  %n = add i32 %p, %zero
  br %c, %exit, %head
 exit:
  ret i32 %n
}
`)
	mustRun(t, InstSimplify(), m)
	got := countOps(m.Unit("f"))
	if got["phi"] != 0 || got["add"] != 0 {
		t.Errorf("after inst-simplify: %v, want the add and the phi gone", got)
	}
	if mustRun(t, InstSimplify(), m) {
		t.Error("second run reported a change")
	}
}

// TestLoweringScalesLinearly is the guard against a find-one-rewrite-and-
// rescan loop creeping back into a pass: each case is one large process
// that must lower to fixpoint well inside a budget that a pass restarting
// per rewrite overruns by an order of magnitude.
func TestLoweringScalesLinearly(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		check func(t *testing.T, before int, u *ir.Unit)
	}{
		{"pure", scaleChainProc(5000), checkChainLowered(5000)},
		{"memory", scaleMemoryProc(8, 3000), checkMemoryPromoted},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := assembly.MustParse("m", c.src)
			before := m.Unit("big").NumInsts()
			start := time.Now()
			if err := LoweringPipeline().RunFixpoint(m); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			if err := ir.Verify(m, ir.Behavioural); err != nil {
				t.Fatalf("lowered module does not verify: %v", err)
			}
			t.Logf("%d -> %d instructions in %v", before, m.Unit("big").NumInsts(), took)
			c.check(t, before, m.Unit("big"))
			if limit := 5 * time.Second; took > limit {
				t.Errorf("lowering took %v, budget %v: some pass is no longer linear in the unit", took, limit)
			}
		})
	}
}

// scaleChainProc is a process of some 5n instructions — a hoistable chain,
// thousands of duplicated expressions, x & ~0 and x + 0 identities, a
// trivial phi — for the CSE, InstSimplify and ECM sweeps (the restart
// loops they replaced needed minutes on n = 5000).
func scaleChainProc(n int) string {
	var src strings.Builder
	src.WriteString(`proc @big (i32$ %a, i1$ %s) -> (i32$ %q) {
 entry:
  br %loop
 loop:
  %av = prb i32$ %a
  %sv = prb i1$ %s
  %zero = const i32 0
  %ones = const i32 4294967295
  %t = const time 1ns
  br %sv, %else, %then
 then:
  %c0 = add i32 %av, %av
  %g0 = xor i32 %av, %c0
`)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, "  %%c%d = add i32 %%c%d, %%av\n", i, i-1)     // hoistable chain
		fmt.Fprintf(&src, "  %%d%d = xor i32 %%av, %%c%d\n", i, i%16)    // 16 distinct values
		fmt.Fprintf(&src, "  %%e%d = and i32 %%d%d, %%ones\n", i, i)     // x & ~0
		fmt.Fprintf(&src, "  %%f%d = add i32 %%e%d, %%zero\n", i, i)     // x + 0
		fmt.Fprintf(&src, "  %%g%d = xor i32 %%g%d, %%f%d\n", i, i-1, i) // keeps it all live
	}
	fmt.Fprintf(&src, `  %%last = xor i32 %%g%d, %%c%d
  br %%join
 else:
  br %%join
 join:
  %%r = phi i32 [%%last, %%then], [%%av, %%else]
  %%same = phi i32 [%%av, %%then], [%%av, %%else]
  %%sum = add i32 %%r, %%same
  drv i32$ %%q, %%sum after %%t
  wait %%loop for %%a, %%s
}
`, n-1, n-1)
	return src.String()
}

func checkChainLowered(n int) func(t *testing.T, before int, u *ir.Unit) {
	return func(t *testing.T, before int, u *ir.Unit) {
		// What must survive: the chain, one xor per g, 16 distinct d.
		if after := u.NumInsts(); after > 2*n+100 {
			t.Errorf("%d instructions left of %d, want about %d: duplicates or identities survived", after, before, 2*n)
		}
	}
}

// scaleMemoryProc is a process in memory form, for mem2reg: nv vars and a
// run of joins diamonds, each of which loads and stores a few of the vars
// on both arms, so some 7 loads and stores per diamond and one phi per
// (join, var) under maximal SSA. Per-load rewriting made this quadratic.
// An assert in each arm keeps it from becoming an empty forwarder, so
// TCFE's one-merge-per-scan block merging stays out of the measurement.
func scaleMemoryProc(nv, joins int) string {
	const keep = "  call void @llhd.assert (i1 %sv)\n"
	var src strings.Builder
	src.WriteString("proc @big (i32$ %a, i1$ %s) -> (i32$ %q) {\n entry:\n  %a0 = prb i32$ %a\n")
	for v := 0; v < nv; v++ {
		fmt.Fprintf(&src, "  %%m%d = var i32 %%a0\n", v)
	}
	src.WriteString("  br %loop\n loop:\n  %av = prb i32$ %a\n  %sv = prb i1$ %s\n  %t = const time 1ns\n  br %j0\n")
	for i := 0; i < joins; i++ {
		m := func(k int) int { return (i + k) % nv }
		fmt.Fprintf(&src, " j%d:\n  %%x%d = ld i32* %%m%d\n  %%y%d = add i32 %%x%d, %%av\n  br %%sv, %%e%d, %%t%d\n", i, i, m(0), i, i, i, i)
		fmt.Fprintf(&src, " t%d:\n  st i32* %%m%d, %%y%d\n  %%z%d = ld i32* %%m%d\n  %%w%d = xor i32 %%z%d, %%y%d\n  st i32* %%m%d, %%w%d\n%s  br %%j%d\n",
			i, m(0), i, i, m(1), i, i, i, m(1), i, keep, i+1)
		fmt.Fprintf(&src, " e%d:\n  %%u%d = ld i32* %%m%d\n  st i32* %%m%d, %%u%d\n%s  br %%j%d\n", i, i, m(2), m(3), i, keep, i+1)
	}
	fmt.Fprintf(&src, " j%d:\n  %%r0 = ld i32* %%m0\n", joins)
	for v := 1; v < nv; v++ {
		fmt.Fprintf(&src, "  %%l%d = ld i32* %%m%d\n  %%r%d = xor i32 %%r%d, %%l%d\n", v, v, v, v-1, v)
	}
	fmt.Fprintf(&src, "  drv i32$ %%q, %%r%d after %%t\n  wait %%loop for %%a, %%s\n}\n", nv-1)
	return src.String()
}

func checkMemoryPromoted(t *testing.T, _ int, u *ir.Unit) {
	for op, n := range countOps(u) {
		if op == "var" || op == "ld" || op == "st" {
			t.Errorf("%d %s left: every var should have been promoted", n, op)
		}
	}
}

// TestPipelineStats: with CollectStats a pipeline records one row per pass
// application, whose counts chain; without it, nothing.
func TestPipelineStats(t *testing.T) {
	const src = `
func @f (i32 %a) i32 {
 entry:
  %zero = const i32 0
  %x = add i32 %a, %zero
  %y = add i32 %a, %zero
  %z = xor i32 %x, %y
  ret i32 %z
}
`
	quiet := BasicPipeline()
	if _, err := quiet.Run(assembly.MustParse("m", src)); err != nil {
		t.Fatal(err)
	}
	if quiet.Stats != nil {
		t.Errorf("statistics recorded without CollectStats: %v", quiet.Stats)
	}

	pl := BasicPipeline()
	pl.CollectStats = true
	m := assembly.MustParse("m", src)
	if err := pl.RunFixpoint(m); err != nil {
		t.Fatal(err)
	}
	if len(pl.Stats) == 0 || len(pl.Stats)%len(pl.Passes) != 0 {
		t.Fatalf("%d rows for a pipeline of %d passes", len(pl.Stats), len(pl.Passes))
	}
	anyChange := false
	for i, s := range pl.Stats {
		if want := pl.Passes[i%len(pl.Passes)].Name(); s.Pass != want {
			t.Errorf("row %d is %q, want %q", i, s.Pass, want)
		}
		if i > 0 && s.InstsBefore != pl.Stats[i-1].InstsAfter {
			t.Errorf("row %d starts at %d instructions, the row before ended at %d", i, s.InstsBefore, pl.Stats[i-1].InstsAfter)
		}
		if !s.Changed && (s.InstsBefore != s.InstsAfter || s.BlocksBefore != s.BlocksAfter) {
			t.Errorf("row %d (%s) moved the counts (%s) but reported no change", i, s.Pass, s.Delta())
		}
		anyChange = anyChange || s.Changed
	}
	if last := pl.Stats[len(pl.Stats)-1]; !anyChange || last.InstsAfter != m.Unit("f").NumInsts() {
		t.Errorf("last row ends at %d instructions, the unit has %d (any change: %v)", last.InstsAfter, m.Unit("f").NumInsts(), anyChange)
	}
	var table strings.Builder
	pl.WriteStats(&table)
	if got := strings.Count(table.String(), "\n"); got != len(pl.Stats)+1 {
		t.Errorf("table has %d lines for %d rows", got, len(pl.Stats))
	}
}
