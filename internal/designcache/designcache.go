// Package designcache is the content-addressed compiled-design cache
// behind simulation-as-a-service: a blaze design compiles once per
// content, ever, no matter how many sessions, farm jobs, or server
// submissions reference it.
//
// The cache key is a stable hash of the bitcode-v2 encoding of the
// module (the canonical content address — pinned byte-stable by the
// bitcode golden test) plus the top unit name. Identity of the
// *ir.Module pointer is irrelevant: two independently parsed copies of
// the same design share one compiled artifact.
//
// Every tier parameter, the Key.Tier field, the tier byte in both hashes
// and the tier line of the disk memo are residue of the retired closure
// tier, always blaze.TierBytecode (0). They stay so that keys and disk
// artifacts are byte-identical to earlier versions and because
// benchmark/layers.go passes the argument; a benchmark-only PR removes
// them (a deliberate format bump, pinned by TestKeyStability).
//
// Three layers, from hot to cold:
//
//   - An in-process LRU of warm *blaze.CompiledDesign values, bounding
//     resident compiled designs. A hit skips freeze and compile
//     entirely and is safe to hand to any number of concurrent
//     sessions (the design is immutable).
//   - A source memo mapping raw source bytes (SystemVerilog or LLHD
//     assembly, plus the frontend/lowering configuration) to the
//     content key, so a repeat submission of the same source skips the
//     frontend and the lowering pipeline too — the parse callback is
//     never invoked on a warm hit.
//   - An optional on-disk layer persisting the bitcode artifact (and
//     the source memo) across runs: a later process resolves the same
//     source to the same key, decodes the lowered bitcode, and
//     recompiles without ever re-running the frontend or the passes.
//     Bytecode streams are process-local, so compilation itself is the
//     one step a fresh process must repeat.
//
// Concurrent lookups of one key are single-flighted: the first caller
// compiles, everyone else blocks on the result, and the compile hook
// (metrics, tests) observes exactly one compilation. The cache operates
// entirely at session-construction time — it adds zero cost to
// simulation hot paths, which is why the pinned alloc-free wake-path
// budgets are untouched by it.
package designcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"llhd/internal/bitcode"
	"llhd/internal/blaze"
	"llhd/internal/ir"
)

// keyDomain separates the design-key hash from any other use of the
// underlying bitcode bytes; bump it if the key derivation ever changes
// incompatibly (the bitcode format itself is versioned by its magic).
const keyDomain = "llhd-designcache-v1\x00"

// srcDomain separates the source-memo hash from the design-key hash.
const srcDomain = "llhd-designcache-src-v1\x00"

// maxSrcMemo bounds the in-memory source memo; beyond it the memo is
// reset wholesale (each entry is a few dozen bytes, so the bound is
// generous, and a reset only costs re-deriving keys from modules).
const maxSrcMemo = 1 << 16

// Key is the content address of one compiled design: the digest of the
// module's bitcode-v2 encoding (domain-separated with the top name and
// tier) plus the resolved top and tier for introspection. Keys are
// comparable and stable across processes and machines.
type Key struct {
	Digest [sha256.Size]byte
	Top    string
	Tier   blaze.Tier // residue (package comment): always TierBytecode
}

// String returns the hex content address, the spelling used for on-disk
// artifact names and diagnostics.
func (k Key) String() string { return hex.EncodeToString(k.Digest[:]) }

// KeyOf computes the content address of (module, top, tier) and returns
// it together with the bitcode encoding it hashed, so callers that go
// on to persist the artifact do not encode twice. An empty top resolves
// to the module's last entity (the Session default); a module with no
// entity is an error.
func KeyOf(m *ir.Module, top string, tier blaze.Tier) (Key, []byte, error) {
	if top == "" {
		top = m.DefaultTop()
		if top == "" {
			return Key{}, nil, fmt.Errorf("designcache: module has no entity; pass a top name")
		}
	}
	data, err := bitcode.Encode(m)
	if err != nil {
		return Key{}, nil, fmt.Errorf("designcache: encoding module for hashing: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(keyDomain))
	h.Write([]byte(top))
	h.Write([]byte{0, byte(tier), 0}) // tier byte: residue (package comment)
	h.Write(data)
	k := Key{Top: top, Tier: tier}
	h.Sum(k.Digest[:0])
	return k, data, nil
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts lookups satisfied by a warm resident design (including
	// callers coalesced onto another caller's in-flight compile).
	Hits int64
	// Misses counts lookups that had to produce the design.
	Misses int64
	// Compiles counts actual blaze compilations — the number the
	// single-flight layer and the farm dedup tests pin. Compiles <=
	// Misses; the difference is compile failures are counted too, but
	// coalesced waiters never are.
	Compiles int64
	// Evictions counts designs dropped by the LRU capacity bound.
	Evictions int64
	// SourceHits counts source-memo hits (the frontend and lowering were
	// skipped); a subset of Hits plus the disk-artifact reloads.
	SourceHits int64
	// DiskHits counts artifact reloads from the on-disk layer: the
	// frontend and lowering were skipped by decoding persisted bitcode,
	// but the design was recompiled in this process.
	DiskHits int64
}

// Config configures New.
type Config struct {
	// Capacity bounds the resident compiled designs (LRU). Zero or
	// negative means unbounded.
	Capacity int
	// Dir enables the on-disk layer: bitcode artifacts and source memos
	// persist under this directory across runs. Empty disables it.
	Dir string
	// OnCompile, when non-nil, is invoked (outside the cache lock) right
	// before each actual blaze compilation — the compile-count hook the
	// dedup tests and metrics use.
	OnCompile func(Key)
}

// Cache is the content-addressed compiled-design cache. It is safe for
// concurrent use; the zero value is not ready — use New.
type Cache struct {
	capacity int
	dir      string

	mu        sync.Mutex
	onCompile func(Key)
	entries   map[Key]*list.Element
	lru       *list.List // front = most recently used
	inflight  map[Key]*flight
	srcMemo   map[[sha256.Size]byte]Key
	stats     Stats
}

// entry is one resident design; it is the list element value.
type entry struct {
	key Key
	cd  *blaze.CompiledDesign
}

// flight is one in-progress compilation; waiters block on done.
type flight struct {
	done chan struct{}
	cd   *blaze.CompiledDesign
	err  error
}

// New builds a cache. With cfg.Dir set the directory is created eagerly
// so artifact writes cannot race its creation later.
func New(cfg Config) (*Cache, error) {
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("designcache: creating cache dir: %w", err)
		}
	}
	return &Cache{
		capacity:  cfg.Capacity,
		dir:       cfg.Dir,
		onCompile: cfg.OnCompile,
		entries:   map[Key]*list.Element{},
		lru:       list.New(),
		inflight:  map[Key]*flight{},
		srcMemo:   map[[sha256.Size]byte]Key{},
	}, nil
}

// SetOnCompile replaces the compile hook. Install hooks before handing
// the cache to concurrent users.
func (c *Cache) SetOnCompile(f func(Key)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onCompile = f
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of resident compiled designs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Load returns the compiled design for (m, top, tier), compiling it at
// most once per content. The hit result reports a warm hit: the
// returned design was already resident (or another caller's in-flight
// compile produced it) and m itself was neither frozen nor compiled —
// on a miss m is frozen by the compile and retained by the design.
// An empty top resolves to the module's last entity.
func (c *Cache) Load(m *ir.Module, top string, tier blaze.Tier) (*blaze.CompiledDesign, bool, error) {
	key, data, err := KeyOf(m, top, tier)
	if err != nil {
		return nil, false, err
	}
	return c.loadKey(key, data, func() (*ir.Module, error) { return m, nil })
}

// LoadSource is Load for raw design source: meta names the frontend
// configuration (language, module name, lowering — anything that
// changes what parse produces), src is the source bytes, and parse
// produces the module on a memo miss. A source-memo hit skips parse
// entirely; with the disk layer it even survives process restarts by
// decoding the persisted bitcode artifact instead of re-parsing. The
// requested top may be empty (resolved after parse, or carried by the
// memoized key).
func (c *Cache) LoadSource(meta string, src []byte, top string, tier blaze.Tier, parse func() (*ir.Module, error)) (*blaze.CompiledDesign, bool, error) {
	sk := srcKey(meta, src, top, tier)

	c.mu.Lock()
	key, known := c.srcMemo[sk]
	c.mu.Unlock()
	if !known && c.dir != "" {
		if k, ok := c.readSrcMemo(sk); ok {
			key, known = k, true
			c.memoize(sk, k)
		}
	}
	if known {
		c.mu.Lock()
		c.stats.SourceHits++
		c.mu.Unlock()
		// The key is known, so even if the design was evicted (or this
		// is a fresh process) the artifact reload path can skip the
		// frontend: decode the persisted bitcode if present, fall back
		// to parse only when the disk layer cannot serve.
		return c.loadKey(key, nil, func() (*ir.Module, error) {
			if m, ok := c.readArtifact(key); ok {
				return m, nil
			}
			return parse()
		})
	}

	m, err := parse()
	if err != nil {
		return nil, false, err
	}
	cd, hit, err := c.Load(m, top, tier)
	if err != nil {
		return nil, false, err
	}
	dk, _, kerr := KeyOf(m, top, tier)
	if kerr == nil {
		c.memoize(sk, dk)
		if c.dir != "" {
			c.writeSrcMemo(sk, dk)
		}
	}
	return cd, hit, nil
}

// loadKey is the shared lookup core: LRU hit, single-flight coalesce,
// or leader compile. data, when non-nil, is the already-encoded bitcode
// to persist on a successful leader compile; module produces the module
// to compile (only invoked by the leader).
func (c *Cache) loadKey(key Key, data []byte, module func() (*ir.Module, error)) (*blaze.CompiledDesign, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		cd := el.Value.(*entry).cd
		c.mu.Unlock()
		return cd, true, nil
	}
	fl, ok := c.inflight[key]
	if !ok {
		fl = &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.stats.Misses++
		c.mu.Unlock()
		return c.lead(key, data, module, fl)
	}
	c.mu.Unlock()
	<-fl.done
	if fl.err != nil {
		return nil, false, fl.err
	}
	c.mu.Lock()
	c.stats.Hits++ // coalesced: this caller compiled nothing
	c.mu.Unlock()
	return fl.cd, true, nil
}

// lead runs the leader side of a single-flight compile.
func (c *Cache) lead(key Key, data []byte, module func() (*ir.Module, error), fl *flight) (*blaze.CompiledDesign, bool, error) {
	cd, err := c.compile(key, module)
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.insertLocked(key, cd)
	}
	fl.cd, fl.err = cd, err
	c.mu.Unlock()
	close(fl.done)
	if err == nil && c.dir != "" {
		if data == nil {
			// Artifact reload path: re-encode from the compiled (frozen)
			// module so the on-disk layer self-heals after a corrupt or
			// deleted artifact.
			if _, d, kerr := KeyOf(cd.Module(), key.Top, key.Tier); kerr == nil {
				data = d
			}
		}
		if data != nil {
			c.writeArtifact(key, data)
		}
	}
	if err != nil {
		return nil, false, err
	}
	return cd, false, nil
}

// compile invokes the hook and the blaze compiler for key.
func (c *Cache) compile(key Key, module func() (*ir.Module, error)) (*blaze.CompiledDesign, error) {
	m, err := module()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Compiles++
	hook := c.onCompile
	c.mu.Unlock()
	if hook != nil {
		hook(key)
	}
	return blaze.Compile(m, key.Top)
}

// insertLocked adds a resident design and enforces the LRU capacity.
// Evicted designs stay valid for sessions already holding them — they
// are immutable; the cache merely stops retaining them.
func (c *Cache) insertLocked(key Key, cd *blaze.CompiledDesign) {
	if el, ok := c.entries[key]; ok { // lost a benign race: keep the resident one
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, cd: cd})
	if c.capacity <= 0 {
		return
	}
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// memoize records a source-to-key mapping, resetting the memo wholesale
// at the (generous) size bound.
func (c *Cache) memoize(sk [sha256.Size]byte, key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.srcMemo) >= maxSrcMemo {
		c.srcMemo = map[[sha256.Size]byte]Key{}
	}
	c.srcMemo[sk] = key
}

// srcKey hashes a source submission: the frontend configuration, the
// source bytes, and the requested top and tier.
func srcKey(meta string, src []byte, top string, tier blaze.Tier) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(srcDomain))
	h.Write([]byte(meta))
	h.Write([]byte{0})
	h.Write([]byte(top))
	h.Write([]byte{0, byte(tier), 0}) // tier byte: residue (package comment)
	h.Write(src)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Artifact and memo file layout: d-<hex>.bc holds the bitcode of the
// design with content address <hex>; s-<hex> holds the design key a
// source hash resolved to (digest hex, top, tier on three lines; the
// tier line is residue, see the package comment).

func (c *Cache) artifactPath(key Key) string {
	return filepath.Join(c.dir, "d-"+key.String()+".bc")
}

func (c *Cache) srcMemoPath(sk [sha256.Size]byte) string {
	return filepath.Join(c.dir, "s-"+hex.EncodeToString(sk[:]))
}

// readArtifact decodes a persisted bitcode artifact. Any failure —
// missing file, corrupt bytes, content that no longer matches the key —
// reports a miss so the caller falls back to parsing.
func (c *Cache) readArtifact(key Key) (*ir.Module, bool) {
	data, err := os.ReadFile(c.artifactPath(key))
	if err != nil {
		return nil, false
	}
	m, err := bitcode.Decode(data)
	if err != nil {
		return nil, false
	}
	got, _, err := KeyOf(m, key.Top, key.Tier)
	if err != nil || got != key {
		return nil, false // corrupt or tampered artifact: self-heal by re-parsing
	}
	c.mu.Lock()
	c.stats.DiskHits++
	c.mu.Unlock()
	return m, true
}

// writeArtifact persists the bitcode artifact atomically; failures are
// silently dropped (the disk layer is an accelerator, never a
// correctness dependency).
func (c *Cache) writeArtifact(key Key, data []byte) {
	writeAtomic(c.artifactPath(key), data)
}

// readSrcMemo resolves a persisted source hash to its design key.
func (c *Cache) readSrcMemo(sk [sha256.Size]byte) (Key, bool) {
	data, err := os.ReadFile(c.srcMemoPath(sk))
	if err != nil {
		return Key{}, false
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		return Key{}, false
	}
	digest, err := hex.DecodeString(lines[0])
	if err != nil || len(digest) != sha256.Size {
		return Key{}, false
	}
	tier, err := strconv.Atoi(lines[2])
	if err != nil {
		return Key{}, false
	}
	k := Key{Top: lines[1], Tier: blaze.Tier(tier)}
	copy(k.Digest[:], digest)
	return k, true
}

// writeSrcMemo persists a source-to-key mapping; best-effort like
// writeArtifact.
func (c *Cache) writeSrcMemo(sk [sha256.Size]byte, key Key) {
	content := fmt.Sprintf("%s\n%s\n%d\n", key.String(), key.Top, int(key.Tier))
	writeAtomic(c.srcMemoPath(sk), []byte(content))
}

// writeAtomic writes via a temp file + rename so concurrent processes
// sharing one cache directory never observe torn artifacts.
func writeAtomic(path string, data []byte) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
	}
}
