package designcache_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"llhd/internal/assembly"
	"llhd/internal/bitcode"
	"llhd/internal/blaze"
	"llhd/internal/designcache"
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/simtest"
)

// counterSrc builds a small self-driving counter design whose content
// varies with inc, so tests can mint distinct cache keys on demand.
func counterSrc(inc int) string {
	return fmt.Sprintf(`
entity @top () -> () {
  %%z1 = const i1 0
  %%z32 = const i32 0
  %%clk = sig i1 %%z1
  %%q = sig i32 %%z32
  inst @clkgen (i1$ %%clk) -> ()
  inst @ff (i1$ %%clk) -> (i32$ %%q)
}
proc @clkgen (i1$ %%clk) -> () {
 entry:
  %%period = const time 1ns
  %%lo = const i1 0
  %%hi = const i1 1
  %%zero = const i32 0
  br %%loop
 loop:
  %%i = phi i32 [%%zero, %%entry], [%%inext, %%t2]
  drv i1$ %%clk, %%hi after %%period
  wait %%t1 for %%period
 t1:
  drv i1$ %%clk, %%lo after %%period
  wait %%t2 for %%period
 t2:
  %%one = const i32 1
  %%inext = add i32 %%i, %%one
  %%n = const i32 20
  %%more = ult i32 %%inext, %%n
  br %%more, %%halted, %%loop
 halted:
  halt
}
entity @ff (i1$ %%clk) -> (i32$ %%q) {
  %%delay = const time 1ns
  %%one = const i32 %d
  %%clkp = prb i1$ %%clk
  %%qp = prb i32$ %%q
  %%qn = add i32 %%qp, %%one
  reg i32$ %%q, %%qn rise %%clkp after %%delay
}
`, inc)
}

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := assembly.Parse("design", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func newCache(t *testing.T, cfg designcache.Config) *designcache.Cache {
	t.Helper()
	c, err := designcache.New(cfg)
	if err != nil {
		t.Fatalf("designcache.New: %v", err)
	}
	return c
}

// runCompiled runs one session over a compiled design and returns the
// rendered trace.
func runCompiled(t *testing.T, cd *blaze.CompiledDesign) []string {
	t.Helper()
	s, err := cd.NewSimulator()
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	o := simtest.Capture(s.Engine)
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return simtest.Strings(o)
}

func TestKeyOfStability(t *testing.T) {
	m1 := parse(t, counterSrc(1))
	m2 := parse(t, counterSrc(1))
	k1, data1, err := designcache.KeyOf(m1, "top", blaze.TierBytecode)
	if err != nil {
		t.Fatalf("KeyOf: %v", err)
	}
	k2, data2, err := designcache.KeyOf(m2, "top", blaze.TierBytecode)
	if err != nil {
		t.Fatalf("KeyOf: %v", err)
	}
	if k1 != k2 {
		t.Fatalf("same content hashed to different keys: %s vs %s", k1, k2)
	}
	if string(data1) != string(data2) {
		t.Fatal("same content encoded to different bitcode")
	}
	if k1.Top != "top" || k1.Tier != blaze.TierBytecode {
		t.Fatalf("key metadata wrong: %+v", k1)
	}

	k3, _, err := designcache.KeyOf(parse(t, counterSrc(2)), "top", blaze.TierBytecode)
	if err != nil {
		t.Fatalf("KeyOf: %v", err)
	}
	if k3 == k1 {
		t.Fatal("different content hashed to the same key")
	}

	// Empty top resolves to the last entity.
	k5, _, err := designcache.KeyOf(m1, "", blaze.TierBytecode)
	if err != nil {
		t.Fatalf("KeyOf empty top: %v", err)
	}
	if k5.Top != "ff" {
		t.Fatalf("empty top resolved to %q, want the last entity %q", k5.Top, "ff")
	}
}

func TestLoadContentAddressed(t *testing.T) {
	c := newCache(t, designcache.Config{})
	m1 := parse(t, counterSrc(1))
	cd1, hit, err := c.Load(m1, "top", blaze.TierBytecode)
	if err != nil {
		t.Fatalf("cold Load: %v", err)
	}
	if hit {
		t.Fatal("cold Load reported a hit")
	}
	if !m1.Frozen() {
		t.Fatal("compiling must freeze the module")
	}

	// A different *ir.Module with identical content is a warm hit: the
	// submitted module is neither frozen nor compiled.
	m2 := parse(t, counterSrc(1))
	cd2, hit, err := c.Load(m2, "top", blaze.TierBytecode)
	if err != nil {
		t.Fatalf("warm Load: %v", err)
	}
	if !hit {
		t.Fatal("identical content was not a warm hit")
	}
	if cd2 != cd1 {
		t.Fatal("warm hit returned a different design")
	}
	if m2.Frozen() {
		t.Fatal("a warm hit must not freeze the submitted module")
	}

	st := c.Stats()
	if st.Compiles != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 compile, 1 hit, 1 miss", st)
	}

	// Warm-hit sessions trace identically to cold-compile sessions.
	if cold, warm := runCompiled(t, cd1), runCompiled(t, cd2); strings.Join(cold, "\n") != strings.Join(warm, "\n") {
		t.Fatal("warm-hit trace diverges from cold-compile trace")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(t, designcache.Config{Capacity: 2})
	for i := 1; i <= 3; i++ {
		if _, _, err := c.Load(parse(t, counterSrc(i)), "top", blaze.TierBytecode); err != nil {
			t.Fatalf("Load %d: %v", i, err)
		}
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("resident designs = %d, want 2", got)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Compiles != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, 3 compiles", st)
	}

	// Design 1 was evicted (LRU), so it compiles again; design 3 is warm.
	if _, hit, err := c.Load(parse(t, counterSrc(3)), "top", blaze.TierBytecode); err != nil || !hit {
		t.Fatalf("design 3 should be warm: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Load(parse(t, counterSrc(1)), "top", blaze.TierBytecode); err != nil || hit {
		t.Fatalf("design 1 should have been evicted: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.Compiles != 4 {
		t.Fatalf("compiles = %d, want 4 after evicted reload", st.Compiles)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	c := newCache(t, designcache.Config{})
	// The hook stalls the leader so every other goroutine piles onto the
	// in-flight compile instead of finding a resident entry.
	c.SetOnCompile(func(designcache.Key) { time.Sleep(50 * time.Millisecond) })

	const n = 8
	var wg sync.WaitGroup
	designs := make([]*blaze.CompiledDesign, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine parses its own module copy, as concurrent
			// server submissions would.
			m, err := assembly.Parse("design", counterSrc(1))
			if err != nil {
				errs[i] = err
				return
			}
			designs[i], _, errs[i] = c.Load(m, "top", blaze.TierBytecode)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if designs[i] != designs[0] {
			t.Fatalf("goroutine %d got a different design", i)
		}
	}
	st := c.Stats()
	if st.Compiles != 1 {
		t.Fatalf("%d concurrent submissions compiled %d times, want exactly 1", n, st.Compiles)
	}
	if st.Hits != n-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d hits and 1 miss", st, n-1)
	}
}

func TestLoadSourceMemo(t *testing.T) {
	c := newCache(t, designcache.Config{})
	src := []byte(counterSrc(1))
	parses := 0
	parseFn := func() (*ir.Module, error) {
		parses++
		return assembly.Parse("design", counterSrc(1))
	}

	if _, hit, err := c.LoadSource("llhd", src, "top", blaze.TierBytecode, parseFn); err != nil || hit {
		t.Fatalf("cold LoadSource: hit=%v err=%v", hit, err)
	}
	if parses != 1 {
		t.Fatalf("cold LoadSource parsed %d times, want 1", parses)
	}
	cd, hit, err := c.LoadSource("llhd", src, "top", blaze.TierBytecode, parseFn)
	if err != nil || !hit {
		t.Fatalf("warm LoadSource: hit=%v err=%v", hit, err)
	}
	if parses != 1 {
		t.Fatalf("warm LoadSource re-parsed (%d parses): the source memo must skip the frontend", parses)
	}
	if cd == nil {
		t.Fatal("warm LoadSource returned nil design")
	}
	if st := c.Stats(); st.SourceHits != 1 || st.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 source hit, 1 compile", st)
	}
}

func TestDiskLayerPersistsAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	src := []byte(counterSrc(1))

	c1 := newCache(t, designcache.Config{Dir: dir})
	cd1, _, err := c1.LoadSource("llhd", src, "top", blaze.TierBytecode, func() (*ir.Module, error) {
		return assembly.Parse("design", counterSrc(1))
	})
	if err != nil {
		t.Fatalf("cold LoadSource: %v", err)
	}

	// Artifact and source memo must be on disk now.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var haveArtifact, haveMemo bool
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "d-") && strings.HasSuffix(e.Name(), ".bc") {
			haveArtifact = true
		}
		if strings.HasPrefix(e.Name(), "s-") {
			haveMemo = true
		}
	}
	if !haveArtifact || !haveMemo {
		t.Fatalf("disk layer incomplete: artifact=%v memo=%v (%v)", haveArtifact, haveMemo, ents)
	}

	// A fresh cache over the same directory — a new process, in effect —
	// must resolve the source without ever invoking the frontend.
	c2 := newCache(t, designcache.Config{Dir: dir})
	cd2, hit, err := c2.LoadSource("llhd", src, "top", blaze.TierBytecode, func() (*ir.Module, error) {
		t.Fatal("parse invoked despite a persisted artifact")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("disk LoadSource: %v", err)
	}
	if hit {
		t.Fatal("a disk reload still compiles; it must not report a warm hit")
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Compiles != 1 || st.SourceHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit, 1 compile, 1 source hit", st)
	}

	// The reloaded design simulates identically to the original.
	if a, b := runCompiled(t, cd1), runCompiled(t, cd2); strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("disk-reloaded design traces differently")
	}
}

// TestKeyStability pins the cache-key derivation and the on-disk layout
// to what the last version with two blaze tiers produced for its lowered
// rr_arbiter bitcode: the design key, the source-memo file name, and a
// cache directory in that version's format — tier line "0" in the memo —
// which must be served as a disk hit. The bitcode is a frozen copy under
// testdata/ (it was the bitcode package's golden until PR 14 changed the
// instruction order lowering produces): what is pinned here is how bytes
// become keys and files, not what the passes emit. Dropping the residual tier byte from the hashes or the memo is a
// format bump that orphans every persisted artifact; it must show up
// here as a deliberate edit of these constants.
func TestKeyStability(t *testing.T) {
	const (
		top     = "rr_arbiter_tb"
		keyHex  = "6b444816e0d90a746dce92fa8c7b17942588d1f24e2a08df52ab1d9aec9e76fa"
		memoHex = "8fc4f79e8e74ac014e4825efea311a31831e7300416f1008bff67a7852f42fd4"
	)
	golden, err := os.ReadFile(filepath.Join("testdata", "rr_arbiter_pr13.bc"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := bitcode.Decode(golden)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	k, _, err := designcache.KeyOf(m, top, blaze.TierBytecode)
	if err != nil {
		t.Fatalf("KeyOf: %v", err)
	}
	if k.String() != keyHex {
		t.Fatalf("design key drifted: %s, recorded %s", k, keyHex)
	}

	dir := t.TempDir()
	files := map[string][]byte{
		"d-" + keyHex + ".bc": golden,
		"s-" + memoHex:        []byte(keyHex + "\n" + top + "\n0\n"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := newCache(t, designcache.Config{Dir: dir})
	_, hit, err := c.LoadSource("bitcode", golden, top, blaze.TierBytecode, func() (*ir.Module, error) {
		t.Error("parse invoked: the recorded cache directory was not a disk hit")
		return bitcode.Decode(golden)
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	if st := c.Stats(); hit || st.SourceHits != 1 || st.DiskHits != 1 || st.Compiles != 1 {
		t.Fatalf("hit=%v stats=%+v, want a disk reload: 1 source hit, 1 disk hit, 1 compile", hit, st)
	}
}

// TestDiskLayerSelfHealsCorruptArtifact damages the persisted artifact —
// wholesale, then one byte at a time at every offset — and requires each
// reload to fall back to the frontend or decode to the same design: never
// a panic, which would leave the single-flight entry open and block every
// later request for the design.
func TestDiskLayerSelfHealsCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	src := []byte(counterSrc(1))
	parseFn := func() (*ir.Module, error) { return assembly.Parse("design", counterSrc(1)) }

	c1 := newCache(t, designcache.Config{Dir: dir})
	if _, _, err := c1.LoadSource("llhd", src, "top", blaze.TierBytecode, parseFn); err != nil {
		t.Fatalf("cold LoadSource: %v", err)
	}
	artifacts, _ := filepath.Glob(filepath.Join(dir, "d-*"))
	if len(artifacts) != 1 {
		t.Fatalf("want one artifact on disk, have %v", artifacts)
	}
	good, err := os.ReadFile(artifacts[0])
	if err != nil {
		t.Fatal(err)
	}

	reload := func(what string, damaged []byte) (parsed bool, st designcache.Stats) {
		t.Helper()
		if err := os.WriteFile(artifacts[0], damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		c := newCache(t, designcache.Config{Dir: dir})
		for i := 0; i < 2; i++ { // the second request must not find a flight left open
			cd, _, err := c.LoadSource("llhd", src, "top", blaze.TierBytecode, func() (*ir.Module, error) {
				parsed = true
				return parseFn()
			})
			if err != nil || cd == nil {
				t.Fatalf("%s: LoadSource over corrupt artifact: design %v, error %v", what, cd != nil, err)
			}
		}
		return parsed, c.Stats()
	}

	if parsed, st := reload("garbage", []byte("garbage")); !parsed || st.DiskHits != 0 {
		t.Fatalf("garbage artifact: parsed=%v stats=%+v, want a frontend fallback and no disk hit", parsed, st)
	}
	for off := range good {
		damaged := append([]byte(nil), good...)
		damaged[off] = 0xff
		what := fmt.Sprintf("byte %d of %d set to 0xff", off, len(good))
		if parsed, st := reload(what, damaged); parsed == (st.DiskHits != 0) {
			t.Fatalf("%s: parsed=%v stats=%+v, want exactly one of frontend fallback and disk hit", what, parsed, st)
		}
	}
}

func TestCompileErrorNotCached(t *testing.T) {
	c := newCache(t, designcache.Config{})
	m := parse(t, counterSrc(1))
	if _, _, err := c.Load(m, "nosuch", blaze.TierBytecode); err == nil {
		t.Fatal("Load with an unknown top must fail")
	}
	if c.Len() != 0 {
		t.Fatal("a failed compile must not be cached")
	}
	// The same content still loads fine under its real top, and the
	// failed attempt must not have frozen or poisoned the module.
	if _, _, err := c.Load(m, "top", blaze.TierBytecode); err != nil {
		t.Fatalf("Load after failed attempt: %v", err)
	}
}

// TestNoHotPathCost documents the structural invariant: the cache is
// consulted only at session-construction time. A compiled design's
// engine never sees the cache, so a cached run's engine is
// indistinguishable from a cold one.
func TestNoHotPathCost(t *testing.T) {
	c := newCache(t, designcache.Config{})
	m := parse(t, counterSrc(1))
	cd, _, err := c.Load(m, "top", blaze.TierBytecode)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cd.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	var _ *engine.Engine = s.Engine // the session engine is a plain kernel engine
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatal(err)
	}
}
