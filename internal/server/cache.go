package server

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"tbaa"
	"tbaa/internal/artifact"
	"tbaa/internal/metrics"
)

// errNotResident reports that the module a request named was evicted
// (or never uploaded). handleEdit maps it to the same 404 resolve
// answers for an unknown hash.
var errNotResident = errors.New("module not resident")

// generation is one immutable compiled lifetime of an uploaded module:
// the Module itself plus the Analyzers lazily built from it, one per
// requested configuration. A re-upload of the same hash installs a
// fresh generation; requests that resolved the old one keep answering
// on it until they finish, so a batch never mixes state from two
// generations.
type generation struct {
	seq  uint64
	mod  *tbaa.Module
	file string

	// Artifact-cache plumbing, shared by every generation of an entry:
	// the disk tier's directory ("" disables it), the server counters,
	// and the entry's dirty latch — set once the module has been edited
	// in place, after which its on-disk key no longer describes its
	// semantics and the disk tier must be bypassed.
	cacheDir string
	reg      *metrics.Registry
	dirty    *atomic.Bool

	mu        sync.Mutex
	analyzers map[analyzerKey]*tbaa.Analyzer
}

// analyzerKey identifies one analyzer configuration within a
// generation. Every distinct (level, open-world) pair gets its own
// lazily built Analyzer.
type analyzerKey struct {
	level tbaa.Level
	open  bool
}

// analyzer returns the generation's Analyzer for the key, building and
// memoizing it on first use.
//
// With a cache directory configured the build goes through the disk
// tier — a warm restart decodes the persisted snapshot instead of
// re-analyzing — unless the entry is dirty (edited since install):
// then the on-disk key names semantics the module no longer has, so
// the build is forced from scratch and nothing is written back.
func (g *generation) analyzer(key analyzerKey) (*tbaa.Analyzer, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a, ok := g.analyzers[key]; ok {
		return a, nil
	}
	opts := []tbaa.Option{
		tbaa.WithLevel(key.level),
		tbaa.WithOpenWorld(key.open),
	}
	if g.cacheDir != "" && !g.dirty.Load() {
		opts = append(opts, tbaa.WithArtifactCache(g.cacheDir))
	}
	a, err := g.mod.NewAnalyzer(opts...)
	if err != nil {
		return nil, err
	}
	switch a.ArtifactStatus() {
	case tbaa.ArtifactHit:
		g.reg.ArtifactHits.Add(1)
	case tbaa.ArtifactMiss:
		g.reg.ArtifactMisses.Add(1)
	case tbaa.ArtifactInvalid:
		g.reg.ArtifactInvalid.Add(1)
	}
	g.analyzers[key] = a
	return a, nil
}

// entry is one resident module: its content hash, the current
// generation behind an atomic pointer (readers load it once and stay
// on it), and the module's session counts, which span generations.
type entry struct {
	hash string
	gen  atomic.Pointer[generation]

	// queries, aliased and batches are the session counts Server.count
	// keeps: answered verdicts, the may-alias ones among them, and
	// answered batches.
	queries, aliased, batches atomic.Uint64

	// quar tracks recovered panics per analyzer configuration and
	// refuses quarantined ones; a force re-upload (install's swap path)
	// clears it along with the dirty latch.
	quar quarantine

	// dirty latches when an edit lands: the entry's semantics have
	// diverged from the source its hash names, so persisted artifacts
	// under that key must be neither served nor written. A re-upload
	// (install's swap path) replaces the module with a pristine compile
	// of the hash's source and clears the latch.
	dirty atomic.Bool

	// editMu serializes edits to this module: racing edits (to the
	// same or different procedures) apply one at a time, each
	// advancing the generation, so every analyzer sees the same edit
	// order and the module converges to the last write.
	editMu sync.Mutex
}

// edit applies a one-procedure replacement to the entry's current
// generation: the edit is checked once against the shared module, every
// analyzer configuration built so far is incrementally re-analyzed, and
// a successor generation is published. Configurations not yet built
// need no replay — they lower from the shared module, which already
// carries the edit. In-flight requests hold the generation pointer (and
// each analyzer's published snapshot) they resolved and are undisturbed.
//
// Before anything mutates, the entry is marked dirty and its persisted
// artifacts are invalidated on disk: from this point the hash's key
// names semantics the module no longer has, and a daemon restart must
// rebuild from source rather than decode a stale snapshot.
//
// The successor generation is published only if the entry is still
// resident — an LRU eviction racing the edit must not resurrect a
// module the cache already dropped. A lost race reports errNotResident
// (mapped to 404), exactly as if the eviction had won before the edit
// arrived.
func (c *moduleCache) edit(e *entry, src string) (gen uint64, proc string, reanalyzed int, err error) {
	e.editMu.Lock()
	defer e.editMu.Unlock()
	old := e.gen.Load()
	pe, err := old.mod.EditProc(src)
	if err != nil {
		return 0, "", 0, err
	}
	e.dirty.Store(true)
	if c.cacheDir != "" {
		// Best-effort: a leftover artifact is caught by the in-memory
		// dirty latch while this process lives, and a restart recompiles
		// the pristine source the artifact correctly describes.
		_ = artifact.Remove(c.cacheDir, e.hash)
	}
	old.mu.Lock()
	built := make(map[analyzerKey]*tbaa.Analyzer, len(old.analyzers))
	for k, a := range old.analyzers {
		built[k] = a
	}
	old.mu.Unlock()
	for _, a := range built {
		if err := a.ApplyEdit(pe); err != nil {
			return 0, "", 0, err
		}
	}
	next := &generation{
		seq: old.seq + 1, mod: old.mod, file: old.file,
		cacheDir: old.cacheDir, reg: old.reg, dirty: old.dirty,
		analyzers: built,
	}
	if !c.publish(e, next) {
		return 0, "", 0, errNotResident
	}
	return next.seq, pe.Proc(), len(built), nil
}

// publish stores next as e's current generation iff e is still the
// resident entry for its hash. The check and the store happen under
// the cache lock, so an eviction (or a swap-in of a different entry
// object under the same hash) can never interleave with a publish it
// should have suppressed.
func (c *moduleCache) publish(e *entry, next *generation) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[e.hash]
	if !ok || el.Value.(*entry) != e {
		return false
	}
	e.gen.Store(next)
	return true
}

// moduleCache is the LRU-bounded set of resident modules, keyed by
// content hash. The mutex guards only the map and recency list —
// compilation happens outside it, and query traffic touches it only
// for the O(1) lookup.
type moduleCache struct {
	reg *metrics.Registry

	// cacheDir is the disk-backed artifact tier shared by every entry;
	// "" keeps the cache purely in-memory.
	cacheDir string

	// quarAfter is the panic threshold each entry's quarantine inherits.
	quarAfter int

	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // of *entry
	order   *list.List               // front = most recently used
}

func newModuleCache(max int, cacheDir string, quarAfter int, reg *metrics.Registry) *moduleCache {
	return &moduleCache{
		reg:       reg,
		cacheDir:  cacheDir,
		quarAfter: quarAfter,
		max:       max,
		entries:   make(map[string]*list.Element),
		order:     list.New(),
	}
}

// lookup returns the resident entry for hash, refreshing its recency,
// or nil.
func (c *moduleCache) lookup(hash string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry)
}

// install makes the compiled module resident under its hash. If the
// hash is already resident the new compilation is swapped in as the
// next generation (in-flight requests finish on the one they hold) and
// install reports swapped=true; otherwise a new entry is created,
// evicting the least-recently-used module when the cache is full.
func (c *moduleCache) install(mod *tbaa.Module, file string) (e *entry, gen uint64, swapped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hash := mod.Hash()
	if el, ok := c.entries[hash]; ok {
		e = el.Value.(*entry)
		old := e.gen.Load()
		next := &generation{
			seq:       old.seq + 1,
			mod:       mod,
			file:      file,
			cacheDir:  c.cacheDir,
			reg:       c.reg,
			dirty:     &e.dirty,
			analyzers: make(map[analyzerKey]*tbaa.Analyzer),
		}
		e.gen.Store(next)
		// The swap installed a pristine compile of exactly the source the
		// hash names, so the artifact key describes the module again —
		// and whatever was panicking deserves a retry against the fresh
		// state, so the quarantine ledger resets too.
		e.dirty.Store(false)
		e.quar.clear()
		c.order.MoveToFront(el)
		return e, next.seq, true
	}
	for c.max > 0 && c.order.Len() >= c.max {
		if !c.evictLRULocked() {
			break
		}
		c.reg.Evictions.Add(1)
	}
	e = &entry{hash: hash, quar: quarantine{threshold: c.quarAfter}}
	first := &generation{
		seq: 1, mod: mod, file: file,
		cacheDir: c.cacheDir, reg: c.reg, dirty: &e.dirty,
		analyzers: make(map[analyzerKey]*tbaa.Analyzer),
	}
	e.gen.Store(first)
	c.entries[hash] = c.order.PushFront(e)
	c.reg.Resident.Add(1)
	return e, first.seq, false
}

// evictLRULocked drops the least-recently-used module, reporting false
// when nothing is resident. It decrements the resident gauge but not an
// eviction counter: the capacity path (install) and the memory
// watermark (CheckMemory) account their evictions separately —
// tbaad_evictions_total versus tbaad_memory_evictions_total.
func (c *moduleCache) evictLRULocked() bool {
	lru := c.order.Back()
	if lru == nil {
		return false
	}
	victim := lru.Value.(*entry)
	c.order.Remove(lru)
	delete(c.entries, victim.hash)
	c.reg.Resident.Add(-1)
	return true
}

// evictLRU is evictLRULocked under the cache lock, for callers outside
// the cache (the memory watermark).
func (c *moduleCache) evictLRU() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictLRULocked()
}

// list returns the resident modules, most recently used first.
func (c *moduleCache) list() []ModuleInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ModuleInfo, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		g := e.gen.Load()
		out = append(out, ModuleInfo{
			Hash:       e.hash,
			File:       g.file,
			Generation: g.seq,
			Queries:    e.queries.Load(),
			Batches:    e.batches.Load(),
		})
	}
	return out
}
