// Package jnvm is a Go implementation of J-NVM (Lefort et al., SOSP '21):
// off-heap persistent objects over emulated or file-backed NVMM.
//
// A persistent object is decoupled into a data structure that lives in the
// NVMM pool, outside the reach of Go's garbage collector, and a volatile
// proxy — an ordinary Go value — that mediates every access. Objects are
// live by reachability from a named root map, collected only at recovery
// time; deletion is explicit. Durability is attached to types (the
// class-centric model): only registered persistent classes can be stored.
//
// Three programming levels are offered, mirroring the paper:
//
//   - High level: failure-atomic blocks via DB.RunFA — everything inside
//     the block happens entirely or not at all across crashes.
//   - J-PDT: ready-made persistent data types (strings, arrays, maps,
//     sets) that are crash-consistent without failure-atomic blocks.
//   - Low level: explicit PWB/PFence/Validate for hand-tuned persistence
//     (see Object's methods and the examples).
//
// Quick start:
//
//	db, _ := jnvm.Open(jnvm.Options{Path: "/tmp/heap.pmem", Size: 64 << 20})
//	defer db.Close()
//	m, _ := jnvm.NewMap(db, jnvm.MirrorHash)
//	db.Root().Put("table", m)
package jnvm

import (
	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/stack"
	"repro/internal/store"
)

// Re-exported core types: the programming model of §2/§3.
type (
	// Ref is a persistent reference (0 is the persistent null).
	Ref = core.Ref
	// PObject marks persistent proxies (class-centric durability).
	PObject = core.PObject
	// Object is the proxy core with the field accessors of Figure 4.
	Object = core.Object
	// Class describes a persistent type to the runtime.
	Class = core.Class
	// RootMap is the persistent map of named roots (JNVM.root).
	RootMap = core.RootMap
	// Tx is a failure-atomic block (§4.2).
	Tx = fa.Tx
	// Pool is the underlying emulated NVMM region.
	Pool = nvm.Pool

	// PString is the persistent immutable string of J-PDT.
	PString = pdt.PString
	// PBytes is the persistent immutable byte array of J-PDT.
	PBytes = pdt.PBytes
	// PLongArray is a fixed persistent int64 array.
	PLongArray = pdt.PLongArray
	// PRefArray is a fixed persistent reference array.
	PRefArray = pdt.PRefArray
	// PExtArray is the extensible persistent array (§4.3.1).
	PExtArray = pdt.PExtArray
	// Map is the persistent map of §4.3.2.
	Map = pdt.Map
	// Set is the persistent set (a map binding keys to themselves).
	Set = pdt.Set
	// MirrorKind selects a map's volatile mirror structure.
	MirrorKind = pdt.MirrorKind
	// CacheMode selects a map's proxy-caching variant.
	CacheMode = pdt.CacheMode

	// Grid is the embedded data-grid substrate of the evaluation.
	Grid = store.Grid
	// Record is the grid's volatile record representation.
	Record = store.Record
	// Field is one named record field.
	Field = store.Field
)

// Mirror kinds for NewMap.
const (
	MirrorHash = pdt.MirrorHash
	MirrorTree = pdt.MirrorTree
	MirrorSkip = pdt.MirrorSkip
)

// Proxy cache modes (§4.3.2 base / cached / eager).
const (
	CacheNone     = pdt.CacheNone
	CacheOnDemand = pdt.CacheOnDemand
	CacheEager    = pdt.CacheEager
)

// Options configures Open.
type Options struct {
	// Path backs the pool with a file (mmap), the analogue of the
	// paper's /mnt/pmem region. Empty means an in-memory pool.
	Path string
	// Size is the pool size in bytes (defaults to 64 MiB).
	Size int
	// Tracked enables the crash-injectable cache-line model (in-memory
	// pools only); see nvm.Pool.
	Tracked bool
	// FenceLatencyNs is the NVMM latency model: the busy-wait cost of
	// each fence (a PWB is free).
	FenceLatencyNs int
	// Classes are the application's persistent classes (J-PDT, the store
	// record class and the root classes register automatically).
	Classes []*Class
	// SkipGraphGC selects header-scan recovery (J-PFA-nogc, Figure 11).
	SkipGraphGC bool
	// LogSlots / LogSlotSize size the failure-atomic redo-log area.
	LogSlots    int
	LogSlotSize int
}

// DB is an opened J-NVM heap plus its failure-atomic block manager.
type DB struct {
	*core.Heap
	fam  *fa.Manager
	pool *nvm.Pool
}

// Open creates or reopens a J-NVM heap. Reopening runs the recovery
// procedure of §4.1.3 (redo-log replay, reachability GC).
func Open(opts Options) (*DB, error) {
	if opts.Size == 0 {
		opts.Size = 64 << 20
	}
	nvmOpts := nvm.Options{
		Tracked:      opts.Tracked,
		FenceLatency: opts.FenceLatencyNs,
	}
	var pool *nvm.Pool
	var err error
	if opts.Path != "" {
		pool, err = nvm.OpenFile(opts.Path, opts.Size, nvmOpts)
		if err != nil {
			return nil, err
		}
	} else {
		pool = nvm.New(opts.Size, nvmOpts)
	}
	return OpenPool(pool, opts)
}

// OpenPool opens a heap over an existing pool (crash images, tests). The
// DB owns the pool; a failed OpenPool has closed it.
func OpenPool(pool *nvm.Pool, opts Options) (*DB, error) {
	st, err := stack.Open(pool, stack.Config{
		Classes:     opts.Classes,
		LogSlots:    opts.LogSlots,
		LogSlotSize: opts.LogSlotSize,
		SkipGraphGC: opts.SkipGraphGC,
	})
	if err != nil {
		return nil, err
	}
	return &DB{Heap: st.Heap, fam: st.Mgr, pool: pool}, nil
}

// Close retires the committed failure-atomic blocks, so the next Open has
// no log to replay, and releases the pool (durable data stays in the
// backing file, if any). The heap must not be used afterwards.
func (db *DB) Close() error {
	db.fam.Retire()
	db.PSync()
	return db.pool.Close()
}

// RunFA executes fn as a failure-atomic block: it takes effect entirely
// or not at all, across errors, panics and power failures (§4.2).
func (db *DB) RunFA(fn func(*Tx) error) error { return db.fam.Run(fn) }

// FAManager exposes the failure-atomic block manager.
func (db *DB) FAManager() *fa.Manager { return db.fam }

// NVMPool exposes the underlying pool (crash testing, statistics).
func (db *DB) NVMPool() *Pool { return db.pool }

// ---- J-PDT constructors over the DB ----

// NewString allocates a persistent string (see pdt.NewString for the
// publication discipline).
func NewString(db *DB, s string) (*PString, error) { return pdt.NewString(db.Heap, s) }

// NewStringTx allocates a persistent string inside a failure-atomic block.
func NewStringTx(tx *Tx, s string) (*PString, error) { return pdt.NewStringTx(tx, s) }

// NewBytes allocates a persistent byte array.
func NewBytes(db *DB, b []byte) (*PBytes, error) { return pdt.NewBytes(db.Heap, b) }

// NewBytesTx allocates a persistent byte array inside a block.
func NewBytesTx(tx *Tx, b []byte) (*PBytes, error) { return pdt.NewBytesTx(tx, b) }

// NewLongArray allocates a fixed persistent int64 array.
func NewLongArray(db *DB, n int) (*PLongArray, error) { return pdt.NewLongArray(db.Heap, n) }

// NewRefArray allocates a fixed persistent reference array.
func NewRefArray(db *DB, n int) (*PRefArray, error) { return pdt.NewRefArray(db.Heap, n) }

// NewExtArray allocates an extensible persistent array.
func NewExtArray(db *DB) (*PExtArray, error) { return pdt.NewExtArray(db.Heap) }

// NewMap allocates a persistent map with the chosen volatile mirror.
func NewMap(db *DB, kind MirrorKind) (*Map, error) { return pdt.NewMap(db.Heap, kind) }

// NewSet allocates a persistent set.
func NewSet(db *DB, kind MirrorKind) (*Set, error) { return pdt.NewSet(db.Heap, kind) }

// AsSet views a resurrected persistent map as a set.
func AsSet(m *Map) *Set { return pdt.AsSet(m) }

// NewTrackedPool creates an in-memory pool with the crash-injectable
// cache-line model, for use with OpenPool in crash tests.
func NewTrackedPool(size int) *Pool {
	return nvm.New(size, nvm.Options{Tracked: true})
}

// CrashImageStrict materializes what survives a power failure right now
// under the strict policy (only explicitly flushed-and-fenced data).
func CrashImageStrict(p *Pool) *Pool {
	return p.CrashImage(nvm.CrashStrict, nil)
}
