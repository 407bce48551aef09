package llhd

import (
	"fmt"

	"llhd/internal/designcache"
	"llhd/internal/ir"
)

// DesignCache is the content-addressed compiled-design cache: a blaze
// design compiles once per content, ever, no matter how many sessions,
// farm jobs, or server submissions reference it. The cache key is a
// stable hash of the module's bitcode encoding plus the top name, so two
// independently parsed copies of the same design share one
// CompiledDesign. (The tier argument of the Load methods is residue of
// the retired closure tier, always TierBytecode; see BlazeTier.)
//
// Three layers, hot to cold: an in-process LRU of warm compiled designs
// (a hit skips freeze and compile), a source memo keyed by raw source
// bytes (a hit skips the frontend and lowering too), and an optional
// on-disk layer (WithCacheDir) persisting bitcode artifacts across
// runs, so a fresh process skips the frontend by decoding the persisted
// lowered bitcode and only repeats the process-local compile step.
// Concurrent lookups of one key are single-flighted: N concurrent
// submissions of one design compile exactly once.
//
// A DesignCache is safe for concurrent use and adds zero cost to
// simulation hot paths — it is consulted only at session-construction
// time. Share one cache between NewSession (WithDesignCache), Farm
// (Farm.Cache), and the simulation server.
type DesignCache struct {
	c *designcache.Cache
}

// CacheStats is a snapshot of cache effectiveness counters: hits,
// misses, actual compiles (the single-flight dedup bound), LRU
// evictions, source-memo hits, and on-disk artifact reloads.
type CacheStats = designcache.Stats

// CacheOption configures NewDesignCache.
type CacheOption func(*designcache.Config)

// WithCacheCapacity bounds the resident compiled designs (LRU); zero or
// negative means unbounded (the default). Evicted designs stay valid
// for sessions already holding them — the cache merely stops retaining
// them.
func WithCacheCapacity(n int) CacheOption {
	return func(cfg *designcache.Config) { cfg.Capacity = n }
}

// WithCacheDir enables the persistent on-disk layer under dir (created
// if missing): bitcode artifacts and source memos survive process
// restarts, so a design submitted to a fresh process skips the frontend
// and lowering. The directory may be shared by concurrent processes;
// writes are atomic and corrupt artifacts self-heal by re-parsing.
func WithCacheDir(dir string) CacheOption {
	return func(cfg *designcache.Config) { cfg.Dir = dir }
}

// NewDesignCache builds a design cache.
func NewDesignCache(opts ...CacheOption) (*DesignCache, error) {
	var cfg designcache.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	c, err := designcache.New(cfg)
	if err != nil {
		return nil, err
	}
	return &DesignCache{c: c}, nil
}

// SetCompileHook installs f to be invoked (with the content address)
// right before each actual blaze compilation. Cache hits and coalesced
// concurrent lookups never invoke it, which is what makes it the
// compile-count probe for metrics and the dedup tests. Install hooks
// before handing the cache to concurrent users.
func (dc *DesignCache) SetCompileHook(f func(key string)) {
	if f == nil {
		dc.c.SetOnCompile(nil)
		return
	}
	dc.c.SetOnCompile(func(k designcache.Key) { f(k.String()) })
}

// Stats returns a snapshot of the effectiveness counters.
func (dc *DesignCache) Stats() CacheStats { return dc.c.Stats() }

// Load returns the compiled design for (m, top), compiling at
// most once per content. The hit result reports a warm hit: the design
// was already resident and m was neither frozen nor compiled; on a miss
// m is frozen (Module.Freeze) and retained by the design. An empty top
// resolves to the module's last entity.
func (dc *DesignCache) Load(m *Module, top string, tier BlazeTier) (*CompiledDesign, bool, error) {
	return dc.c.Load(m, top, tier)
}

// LoadAssembly is Load for LLHD assembly source: a warm source hit skips
// the parser too, and with the on-disk layer the parse survives process
// restarts. With lower set, the §4 lowering pipeline runs before
// hashing, so the artifact (and the cache key) is the lowered design.
func (dc *DesignCache) LoadAssembly(name, src, top string, tier BlazeTier, lower bool) (*CompiledDesign, bool, error) {
	return dc.loadSource(langLLHD, name, src, top, tier, lower)
}

// LoadSystemVerilog is LoadAssembly for SystemVerilog source compiled
// through the Moore frontend: a warm source hit skips the frontend, and
// with lower set also the lowering pipeline.
func (dc *DesignCache) LoadSystemVerilog(name, src, top string, tier BlazeTier, lower bool) (*CompiledDesign, bool, error) {
	return dc.loadSource(langSV, name, src, top, tier, lower)
}

// loadSource memoizes the frontend step under everything that selects
// its output: language, module name, lowering.
func (dc *DesignCache) loadSource(lang, name, src, top string, tier BlazeTier, lower bool) (*CompiledDesign, bool, error) {
	meta := fmt.Sprintf("%s\x00%s\x00%t", lang, name, lower)
	return dc.c.LoadSource(meta, []byte(src), top, tier, func() (*ir.Module, error) {
		return frontend(lang, name, src, lower)
	})
}

// WithDesignCache routes the session's blaze compilation through the
// cache: on a warm hit the session reuses the resident CompiledDesign
// and skips parse, lowering, freeze, and compile entirely. Implies
// Backend(Blaze); combining it with another explicit backend or with
// FromCompiled is an error. Module input is keyed by content hash;
// FromSystemVerilog input additionally goes through the source memo, so
// a repeat submission skips the Moore frontend too.
func WithDesignCache(dc *DesignCache) SessionOption {
	return func(c *sessionConfig) { c.cache = dc }
}
