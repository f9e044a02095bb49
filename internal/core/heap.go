package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
)

// LogHandler is implemented by the failure-atomic machinery (package fa).
// RecoverLogs runs before the recovery traversal: committed redo logs are
// replayed, uncommitted ones discarded (§4.2). The handler receives the
// resolved RecoverOptions so log replay scales with the same worker fleet
// as the rest of the pipeline.
type LogHandler interface {
	RecoverLogs(h *Heap, opts RecoverOptions) error
}

// RecoverOptions tunes the recovery pipeline that runs inside Open.
type RecoverOptions struct {
	// Parallelism is the worker count shared by every recovery phase:
	// redo-log replay, the reachability traversal, the sweep and the
	// J-PDT mirror rebuilds. 0 means GOMAXPROCS. 1 selects the paper's
	// serial §4.1.3 procedure, kept byte-for-byte as the oracle the
	// equivalence tests compare the parallel pipeline against.
	Parallelism int
}

// Workers resolves the effective worker count.
func (o RecoverOptions) Workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// Config parameterizes Open.
type Config struct {
	// HeapOptions is used when the pool needs formatting.
	HeapOptions heap.Options
	// Classes to register before recovery. Every class whose instances
	// may be found in the heap must be listed (like the explicit class
	// list fed to the paper's code generator). The built-in root-map
	// classes are always registered.
	Classes []*Class
	// LogHandler recovers failure-atomic logs before the traversal.
	LogHandler LogHandler
	// SkipGraphGC skips the reachability traversal at recovery and only
	// rebuilds allocator state by scanning block headers: the
	// J-PFA-nogc mode of Figure 11. Safe only if the application can
	// never crash with invalid-but-reachable objects.
	SkipGraphGC bool
	// Recover tunes the recovery pipeline (worker parallelism).
	Recover RecoverOptions
}

// Heap is the object-level view over a block heap: the entry point of the
// framework (the JNVM class of Figure 3).
type Heap struct {
	mem     *heap.Heap
	pool    *nvm.Pool
	byID    map[uint16]*Class
	byName  map[string]*Class
	root    *RootMap
	resurrs atomic.Uint64

	recoverPar int               // resolved recovery worker count (>= 1)
	recObs     obs.RecoveryStats // phase timings and counters

	// RecoveryStats of the last Open.
	RecoveryStats RecoveryStats
}

// RecoverParallelism returns the resolved recovery worker count this heap
// was opened with (>= 1). J-PDT mirror rebuilds consult it so OnResurrect
// scales with the same knob as the rest of the pipeline.
func (h *Heap) RecoverParallelism() int {
	if h.recoverPar < 1 {
		return 1
	}
	return h.recoverPar
}

// RecoveryObs returns the live recovery-phase counters.
func (h *Heap) RecoveryObs() *obs.RecoveryStats { return &h.recObs }

// RecoveryStats summarizes what the recovery procedure did.
type RecoveryStats struct {
	Formatted      bool // the pool was freshly formatted
	LiveObjects    uint64
	LiveBlocks     uint64
	NullifiedRefs  uint64
	ReclaimedRoots int // root entries dropped because their value died
	GraphTraversed bool
}

// Open attaches to a pool, formatting it if it does not contain a heap,
// registers the classes, recovers failure-atomic logs, and runs the
// recovery procedure of §4.1.3.
func Open(pool *nvm.Pool, cfg Config) (*Heap, error) {
	mem, err := heap.Open(pool)
	formatted := false
	if errors.Is(err, heap.ErrNotFormatted) {
		mem, err = heap.Format(pool, cfg.HeapOptions)
		formatted = true
	}
	if err != nil {
		// A pool that holds a heap Open refuses (another format version, a
		// corrupt superblock) is never reformatted behind the caller's back.
		return nil, err
	}
	// A pool in a format this build no longer reads is refused before
	// anything — a class registration included — writes to it.
	for _, c := range cfg.Classes {
		for _, old := range c.Supersedes {
			if _, ok := mem.ClassID(old); ok {
				return nil, fmt.Errorf("core: pool is in format %q, which this build no longer reads (it writes %q)", old, c.Name)
			}
		}
	}
	h := &Heap{
		mem:    mem,
		pool:   pool,
		byID:   make(map[uint16]*Class),
		byName: make(map[string]*Class),
	}
	h.RecoveryStats.Formatted = formatted
	for _, c := range builtinClasses() {
		if err := h.register(c); err != nil {
			return nil, err
		}
	}
	for _, c := range cfg.Classes {
		if err := h.register(c); err != nil {
			return nil, err
		}
	}
	rec := RecoverOptions{Parallelism: cfg.Recover.Workers()}
	h.recoverPar = rec.Parallelism
	h.recObs.Workers.Store(uint64(rec.Parallelism))
	if cfg.LogHandler != nil {
		start := time.Now()
		if err := cfg.LogHandler.RecoverLogs(h, rec); err != nil {
			return nil, fmt.Errorf("core: log recovery: %w", err)
		}
		h.recObs.ReplayNs.Add(uint64(time.Since(start)))
	}
	if err := h.recoverHeap(cfg.SkipGraphGC); err != nil {
		return nil, err
	}
	if err := h.openRoot(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *Heap) register(c *Class) error {
	if existing, ok := h.byName[c.Name]; ok {
		if existing != c {
			return fmt.Errorf("core: class %q registered twice", c.Name)
		}
		return nil
	}
	id, err := h.mem.RegisterClass(c.Name)
	if err != nil {
		return err
	}
	c.id = id
	h.byID[id] = c
	h.byName[c.Name] = c
	return nil
}

// Class resolves a registered class by name.
func (h *Heap) Class(name string) (*Class, bool) {
	c, ok := h.byName[name]
	return c, ok
}

// MustClass resolves a registered class by name, panicking if it was not
// passed to Open — a configuration bug, not a runtime condition.
func (h *Heap) MustClass(name string) *Class {
	c, ok := h.byName[name]
	if !ok {
		panic(fmt.Sprintf("core: class %q not registered with this heap", name))
	}
	return c
}

// Root returns the heap's persistent root map (JNVM.root in Figure 3).
func (h *Heap) Root() *RootMap { return h.root }

// Resurrections reports how many proxies were materialized from refs, a
// cost the cached/eager J-PDT variants exist to avoid (§4.3.2).
func (h *Heap) Resurrections() uint64 { return h.resurrs.Load() }

// wrap builds the proxy core for an existing data structure. Single-block
// objects (the common case: small records) avoid the block-list
// allocation entirely.
func (h *Heap) wrap(ref Ref) *Object {
	o := &Object{h: h, ref: ref}
	if h.mem.IsBlockRef(ref) {
		if _, _, next := heap.UnpackHeader(h.mem.Header(ref)); next == 0 {
			o.inline[0] = ref
			o.blocks = o.inline[:1]
			o.size = heap.Payload
		} else {
			o.blocks = h.mem.Blocks(ref)
			o.size = uint64(len(o.blocks)) * heap.Payload
		}
	} else {
		o.size = h.mem.SlotPayloadLen(ref)
	}
	return o
}

// Alloc allocates the persistent data structure of a new object of the
// class: size payload bytes, zeroed, in the invalid state. The proxy is
// returned through the class factory, matching the generated constructor
// of Figure 4 (the caller then sets fields, flushes, validates).
func (h *Heap) Alloc(c *Class, size uint64) (PObject, error) {
	if c.id == 0 {
		return nil, fmt.Errorf("core: class %q not registered with this heap", c.Name)
	}
	ref, blocks, err := h.mem.AllocObject(c.id, size)
	if err != nil {
		return nil, err
	}
	o := &Object{h: h, ref: ref, blocks: blocks, size: uint64(len(blocks)) * heap.Payload}
	return c.Factory(o), nil
}

// AllocSmall allocates a pooled slot for a small immutable object (§4.4).
func (h *Heap) AllocSmall(c *Class, payload uint64) (PObject, error) {
	if c.id == 0 {
		return nil, fmt.Errorf("core: class %q not registered with this heap", c.Name)
	}
	ref, err := h.mem.AllocSmall(c.id, payload)
	if err != nil {
		return nil, err
	}
	o := &Object{h: h, ref: ref, size: payload}
	return c.Factory(o), nil
}

// Inspect returns an untyped proxy core for the object at ref, without
// dispatching through the class factory. It is meant for infrastructure
// code (J-PDT internals) that already knows the layout; application code
// should use Resurrect.
func (h *Heap) Inspect(ref Ref) *Object { return h.wrap(ref) }

// Resurrect materializes a proxy for the persistent object at ref: it
// reads the class id from the header, finds the registered class, and
// invokes the resurrect constructor (§3.1).
func (h *Heap) Resurrect(ref Ref) (PObject, error) {
	if ref == 0 {
		return nil, nil
	}
	id := h.mem.ClassOf(ref)
	c, ok := h.byID[id]
	if !ok {
		name, _ := h.mem.ClassName(id)
		return nil, fmt.Errorf("core: no registered class for id %d (%q) at ref %#x", id, name, ref)
	}
	h.resurrs.Add(1)
	po := c.Factory(h.wrap(ref))
	if r, ok := po.(Resurrector); ok {
		r.OnResurrect()
	}
	return po, nil
}

// Free atomically deletes a persistent object (§4.1.5): the master block
// is invalidated (flushed, unfenced) and the blocks return to the volatile
// free queue. The proxy becomes unusable, as in the paper where accessing
// a freed proxy throws.
func (h *Heap) Free(po PObject) {
	if ref := h.Detach(po); ref != 0 {
		h.mem.FreeObject(ref)
	}
}

// Detach neutralizes the proxy of an object that is being deleted and
// returns the object's ref (0 for a nil or already neutral proxy). The
// proxy stops resolving at once; the caller frees the data structure with
// heap.FreeObject when its protocol allows — package fa does so once the
// deleting commit is retired.
func (h *Heap) Detach(po PObject) Ref {
	if po == nil {
		return 0
	}
	o := po.Core()
	ref := o.ref
	o.ref = 0
	o.blocks = nil
	o.size = 0
	return ref
}

// PFence exposes the fence at heap level for low-level batching patterns
// (Figure 5).
func (h *Heap) PFence() { h.pool.PFence() }

// PSync exposes psync at heap level.
func (h *Heap) PSync() { h.pool.PSync() }
