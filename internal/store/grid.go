package store

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/obs"
)

// Backend is a persistence plug for the grid, at field granularity so the
// J-NVM backends never marshal whole records (the decisive property the
// evaluation measures).
//
// Ownership: field values handed to Insert and Update are borrowed for the
// call — the wire server passes sub-slices of a connection buffer it
// reuses for the next window — so an implementation copies every value it
// keeps. The key and field names of an Insert are owned strings: the
// volatile mirrors retain them as they are, so callers never modify them
// afterwards. The keys of the other operations are only looked at.
type Backend interface {
	Name() string
	// Insert stores a new record.
	Insert(key string, rec *Record) error
	// Read streams every field of the record to consume. The name and
	// value arguments are only valid for the duration of the call (the
	// J-NVM backends stream views straight out of NVMM); consumers that
	// retain a field must copy both.
	Read(key string, consume func(name string, value []byte)) (bool, error)
	// Update overwrites a subset of fields of an existing record.
	Update(key string, fields []Field) (bool, error)
	// Delete removes the record.
	Delete(key string) (bool, error)
	// Count returns the number of stored records.
	Count() int
	Close() error
	// Caps describes the optional operations the backend supports.
	Caps() Caps
}

// Grid is the embedded data grid standing in for Infinispan: per-key lock
// striping for concurrency control (§5.3.2: "accesses to the persistent
// state are protected by the locks of Infinispan") and an optional
// volatile record cache in front of the backend (the cache-ratio knob of
// §2.2.1/§5.3.1), maintained write-through as Infinispan does for
// durability.
type Grid struct {
	backend Backend
	caps    Caps

	// vr is non-nil when the backend supports zero-copy view reads and
	// caching is off: Read then tries a seqlock-validated unlocked fast
	// path before falling back to the stripe lock (DESIGN.md §14).
	vr ViewReader

	stripes [gridStripes]sync.Mutex

	// gens are the per-stripe seqlock generations (only maintained when
	// vr is set): writers make them odd on entry and even on exit, and an
	// unlocked reader is valid only if its stripe generation is even and
	// unchanged across the read.
	gens [gridStripes]genSlot

	// cache is the volatile record cache, sharded per stripe so cached
	// reads on different keys never serialize on one mutex; nil when
	// caching is disabled. The stripe index of a key's cache shard is the
	// same FNV index as its lock stripe.
	cache []cacheShard

	stats obs.GridStats
}

// genSlot pads each stripe generation to its own cache line so reader
// validation loads never false-share with neighboring stripes' writers.
type genSlot struct {
	v atomic.Uint64
	_ [56]byte
}

const gridStripes = 128

// cacheShard is one stripe's slice of the record cache: a private mutex
// plus a private LRU. Capacity is bounded per shard, so the total bound
// is ceil(CacheEntries/gridStripes)*gridStripes — never below the
// requested size, at most a stripe-rounding above it.
type cacheShard struct {
	mu  sync.Mutex
	lru *container.LRU[*Record]
}

// Options configures a Grid.
type Options struct {
	// CacheEntries bounds the volatile record cache; 0 disables caching
	// (the right setting for the J-NVM backends, §5.3.1). The bound is
	// spread over the lock stripes and rounded up to a multiple of the
	// stripe count.
	CacheEntries int
}

// NewGrid wraps a backend.
func NewGrid(b Backend, opts Options) *Grid {
	g := &Grid{backend: b, caps: b.Caps()}
	if opts.CacheEntries > 0 {
		per := (opts.CacheEntries + gridStripes - 1) / gridStripes
		g.cache = make([]cacheShard, gridStripes)
		for i := range g.cache {
			g.cache[i].lru = container.NewLRU[*Record](per)
		}
	} else if vr := g.caps.View; vr != nil {
		// Cache off + capable backend: adopt the zero-copy read fast
		// path. (With a record cache the cache itself is the fast path,
		// and cached reads already avoid the backend entirely.)
		vr.EnableViewReads(&g.stats.ReadPath)
		g.vr = vr
	}
	return g
}

// ReadPath names the read path NewGrid adopted from the backend's
// descriptor: "view" (seqlock-validated zero-copy reads) or "locked"
// (stripe lock, cache in front when enabled).
func (g *Grid) ReadPath() string {
	if g.vr != nil {
		return "view"
	}
	return "locked"
}

// Backend returns the underlying persistence plug.
func (g *Grid) Backend() Backend { return g.backend }

// CacheStats reports cache hits and misses since creation.
func (g *Grid) CacheStats() (hits, misses uint64) {
	return g.stats.CacheHits.Load(), g.stats.CacheMisses.Load()
}

// Obs returns the grid's live per-operation histograms and cache counters.
func (g *Grid) Obs() *obs.GridStats { return &g.stats }

// ObsSnapshot captures the current grid metrics.
func (g *Grid) ObsSnapshot() obs.GridSnapshot { return g.stats.Snapshot() }

// fnv32 is an inlined FNV-1a: hash.Hash32 would cost two heap allocations
// (digest + []byte(key)) per operation. The one hash selects both the
// key's lock stripe and its cache shard.
func fnv32(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// stripe maps a hashed key to its lock.
func (g *Grid) stripe(h uint32) *sync.Mutex {
	return &g.stripes[h%gridStripes]
}

// lockWrite takes the key's stripe lock as a writer and, when the
// zero-copy read path is active, makes the stripe's seqlock generation
// odd so unlocked readers back off.
func (g *Grid) lockWrite(h uint32) *sync.Mutex {
	mu := g.stripe(h)
	mu.Lock()
	if g.vr != nil {
		g.gens[h%gridStripes].v.Add(1)
	}
	return mu
}

// unlockWrite makes the generation even again (readers that overlapped
// the write see a changed generation and retry) and releases the stripe.
func (g *Grid) unlockWrite(h uint32, mu *sync.Mutex) {
	if g.vr != nil {
		g.gens[h%gridStripes].v.Add(1)
	}
	mu.Unlock()
}

func (g *Grid) cacheGet(h uint32, key string) (*Record, bool) {
	if g.cache == nil {
		return nil, false
	}
	s := &g.cache[h%gridStripes]
	s.mu.Lock()
	rec, ok := s.lru.Get(key)
	s.mu.Unlock()
	if ok {
		g.stats.CacheHits.Inc()
	} else {
		g.stats.CacheMisses.Inc()
	}
	return rec, ok
}

func (g *Grid) cachePut(h uint32, key string, rec *Record) {
	if g.cache == nil {
		return
	}
	s := &g.cache[h%gridStripes]
	s.mu.Lock()
	// Clone: the key may be a transient buffer the caller reuses (the
	// benchmark drivers do), and the LRU retains it.
	s.lru.Put(strings.Clone(key), rec)
	s.mu.Unlock()
}

func (g *Grid) cacheDrop(h uint32, key string) {
	if g.cache == nil {
		return
	}
	s := &g.cache[h%gridStripes]
	s.mu.Lock()
	s.lru.Remove(key)
	s.mu.Unlock()
}

// cachePatch applies a successful backend field update to the cached
// record, if present. Both Update and ReadModifyWrite go through here —
// the two used to hand-roll this block and drifted once already — so the
// write-through patch semantics (deep-copied values over the cached
// record) live in exactly one place.
func (g *Grid) cachePatch(h uint32, key string, fields []Field) {
	if g.cache == nil {
		return
	}
	s := &g.cache[h%gridStripes]
	s.mu.Lock()
	if rec, ok := s.lru.Get(key); ok {
		for _, f := range fields {
			rec.Set(f.Name, append([]byte(nil), f.Value...))
		}
	}
	s.mu.Unlock()
}

// ErrNotFound is returned for operations on absent keys.
var ErrNotFound = fmt.Errorf("store: key not found")

// Insert stores a new record (write-through: backend first, then cache).
func (g *Grid) Insert(key string, rec *Record) error {
	start := time.Now()
	defer func() { g.stats.Insert.Observe(time.Since(start)) }()
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	if err := g.backend.Insert(key, rec); err != nil {
		return err
	}
	if g.cache != nil {
		// Clone: the caller keeps rec and may mutate it after Insert
		// returns; Clone also copies field values into fresh slices.
		g.cachePut(h, key, rec.Clone())
	}
	return nil
}

// Read streams the record's fields to consume, from the cache when
// possible. With a capable backend and no cache it first tries the
// unlocked zero-copy path: field views straight out of NVMM, validated
// against the stripe's seqlock generation so the consumer never sees a
// snapshot a writer overlapped. A generation race retries once; a second
// race or an unsupported record shape falls back to the stripe lock.
func (g *Grid) Read(key string, consume func(name string, value []byte)) error {
	start := time.Now()
	defer func() { g.stats.Read.Observe(time.Since(start)) }()
	h := fnv32(key)
	if g.vr != nil {
		gen := &g.gens[h%gridStripes].v
		for try := 0; try < 2; try++ {
			g1 := gen.Load()
			if g1&1 != 0 {
				break // writer mid-flight on this stripe
			}
			found, valid, ok := g.vr.ReadView(key, h, gen, g1, consume)
			if !ok {
				break
			}
			if !valid {
				g.stats.ReadPath.SeqlockRetries.Inc()
				continue
			}
			g.stats.ReadPath.ZeroCopyHits.Inc()
			if !found {
				return ErrNotFound
			}
			return nil
		}
		g.stats.ReadPath.CopyFallbacks.Inc()
	}
	mu := g.stripe(h)
	mu.Lock()
	defer mu.Unlock()
	if rec, ok := g.cacheGet(h, key); ok {
		for _, f := range rec.Fields {
			consume(f.Name, f.Value)
		}
		return nil
	}
	var filled *Record
	if g.cache != nil {
		filled = &Record{}
	}
	ok, err := g.backend.Read(key, func(name string, value []byte) {
		consume(name, value)
		if filled != nil {
			// Deep-copy before caching. J-NVM backends stream zero-copy
			// views into NVMM (pRecord.read) — for the value bytes and
			// the name string alike — and caching a view aliases memory
			// that a later Update/Delete frees and the allocator
			// recycles, silently corrupting the cached record. The
			// copies are confined to the caching path, so non-caching
			// grids keep the zero-copy read.
			filled.Fields = append(filled.Fields,
				Field{Name: strings.Clone(name), Value: append([]byte(nil), value...)})
		}
	})
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotFound
	}
	if filled != nil {
		g.cachePut(h, key, filled)
	}
	return nil
}

// Update overwrites fields write-through (backend in the critical path,
// which is why larger caches do not help updates in Figure 9a).
func (g *Grid) Update(key string, fields []Field) error {
	start := time.Now()
	defer func() { g.stats.Update.Observe(time.Since(start)) }()
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	ok, err := g.backend.Update(key, fields)
	if err != nil {
		// The backend may have applied part of the update; drop the
		// cached record rather than serve a stale mix.
		g.cacheDrop(h, key)
		return err
	}
	if !ok {
		return ErrNotFound
	}
	g.cachePatch(h, key, fields)
	return nil
}

// ReadModifyWrite runs YCSB's rmw: read all fields, then write back the
// fields produced by mutate, under the key's lock.
func (g *Grid) ReadModifyWrite(key string, mutate func(rec *Record) []Field) error {
	start := time.Now()
	defer func() { g.stats.RMW.Observe(time.Since(start)) }()
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	var rec *Record
	if cached, ok := g.cacheGet(h, key); ok {
		rec = cached.Clone()
	} else {
		rec = &Record{}
		ok, err := g.backend.Read(key, func(name string, value []byte) {
			// Deep-copy: rec outlives the backend call (mutate sees it and
			// a clone goes into the cache), so it must not alias NVMM views
			// — neither the value bytes nor the name string.
			rec.Fields = append(rec.Fields,
				Field{Name: strings.Clone(name), Value: append([]byte(nil), value...)})
		})
		if err != nil {
			return err
		}
		if !ok {
			return ErrNotFound
		}
		if g.cache != nil {
			g.cachePut(h, key, rec.Clone())
		}
	}
	fields := mutate(rec)
	if len(fields) == 0 {
		return nil
	}
	ok, err := g.backend.Update(key, fields)
	if err != nil {
		g.cacheDrop(h, key)
		return err
	}
	if !ok {
		return ErrNotFound
	}
	g.cachePatch(h, key, fields)
	return nil
}

// Delete removes the record everywhere.
func (g *Grid) Delete(key string) error {
	start := time.Now()
	defer func() { g.stats.Delete.Observe(time.Since(start)) }()
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	ok, err := g.backend.Delete(key)
	if err != nil {
		return err
	}
	g.cacheDrop(h, key)
	if !ok {
		return ErrNotFound
	}
	return nil
}

// Count returns the number of stored records.
func (g *Grid) Count() int { return g.backend.Count() }

// Close releases backend resources.
func (g *Grid) Close() error { return g.backend.Close() }
