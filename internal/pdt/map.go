package pdt

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/obs"
)

// MirrorKind selects the volatile logic of a persistent map (§4.3.2: "for
// a hash table, we use a Java HashMap, and for a persistent binary tree, a
// Java TreeMap"). The kind is persisted in the map header so resurrection
// rebuilds the right mirror.
type MirrorKind uint64

const (
	// MirrorHash mirrors with a Go map (unordered, O(1)).
	MirrorHash MirrorKind = 1
	// MirrorTree mirrors with a red-black tree (ordered).
	MirrorTree MirrorKind = 2
	// MirrorSkip mirrors with a skip list (ordered).
	MirrorSkip MirrorKind = 3
)

// CacheMode selects the proxy-caching variant (§4.3.2 "base, cached and
// eager maps and sets").
type CacheMode int

const (
	// CacheNone is the base implementation: a fresh value proxy per Get.
	CacheNone CacheMode = iota
	// CacheOnDemand keeps every resurrected value proxy (cached variant).
	CacheOnDemand
	// CacheEager populates the proxy cache during resurrection.
	CacheEager
	// CacheHot keeps only the hottest proxies in a bounded LRU — the
	// extension §4.3.2 sketches ("it would be possible to extend this
	// code to include only the hottest proxies"). Configure the bound
	// with SetCacheHot.
	CacheHot
)

// proxyCache abstracts the volatile proxy store of the cached variants.
type proxyCache interface {
	get(key string) (core.PObject, bool)
	put(key string, po core.PObject)
	del(key string)
}

// unboundedCache is the paper's default: "the cache contains all proxies".
type unboundedCache struct{ m sync.Map }

func (c *unboundedCache) get(k string) (core.PObject, bool) {
	v, ok := c.m.Load(k)
	if !ok {
		return nil, false
	}
	return v.(core.PObject), true
}
func (c *unboundedCache) put(k string, po core.PObject) { c.m.Store(k, po) }
func (c *unboundedCache) del(k string)                  { c.m.Delete(k) }

// hotCache bounds the proxy set with an LRU.
type hotCache struct {
	mu  sync.Mutex
	lru *container.LRU[core.PObject]
}

func (c *hotCache) get(k string) (core.PObject, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(k)
}
func (c *hotCache) put(k string, po core.PObject) {
	c.mu.Lock()
	c.lru.Put(k, po)
	c.mu.Unlock()
}
func (c *hotCache) del(k string) {
	c.mu.Lock()
	c.lru.Remove(k)
	c.mu.Unlock()
}

// Map is the persistent map of §4.3.2. The durable state is a PRefArray
// that holds the bindings themselves: binding i is two adjacent reference
// words, the key string and the value, and is live iff both are non-zero.
// Adding a binding stores its two words, removing it clears them, and
// replacing a value stores one; none needs a failure-atomic block, since
// a crash can at worst leave one word of the two — a half binding, which
// resurrection retires (OnResurrect). All lookup logic lives in the
// volatile mirror, rebuilt at resurrection.
//
// Header layout: arrRef (8) | kind (8).
//
// Array layout: every block of the array holds bindingsPerBlock bindings
// behind one unused word, so a binding is 16-byte aligned in the pool. It
// therefore never straddles a block (a failure-atomic insert copies one
// in-flight block) nor a cache line (a publication is one write-back).
//
// Concurrency (DESIGN.md §14): readers never take a map-global lock.
// A lookup holds only its key's mirror shard in read mode (which, by the
// mirror's locking protocol, also keeps the binding's words and the
// objects they reference stable), and loads the value word atomically.
// Writers — Put, Delete, Remove, array growth, the transactional paths —
// serialize on wmu and additionally take the key's shard write lock for
// the window that publishes a binding or retires a key or a value: a
// replaced value is freed like a deleted one, so Put over an existing
// binding excludes the key's readers too, and being under wmu it cannot
// store into an array that growth is copying. A per-Tx transactional
// writer's commit apply outlives its wmu window, so the transactional
// paths additionally gate on the predecessor's apply (gateWait/gateArm).
type Map struct {
	*core.Object

	wmu   sync.Mutex                // serializes writers
	arrp  atomic.Pointer[PRefArray] // current backing array, atomically swapped by growth
	kind  MirrorKind
	mir   mirror
	gate  chan struct{} // closed when the last per-Tx structural commit's apply landed (guarded by wmu)
	slots []int         // free binding indices (guarded by wmu)
	mode  CacheMode
	cache proxyCache // nil in base mode
}

// mapSuperseded names the parent format, in which an array slot
// referenced a 16-byte key/value object of its own class: core.Open
// refuses a pool whose class table knows either name, instead of reading
// such a slot as a key word.
var mapSuperseded = []string{"pdt.map", "pdt.pair"}

const (
	mapArrRef = 0
	mapKind   = 8

	bindingsPerBlock = (heap.Payload - 8) / 16
	mapInitialBlocks = 1
)

// keyOff and valOff are the array offsets of binding i's two words.
func keyOff(i int) uint64 {
	return uint64(i/bindingsPerBlock)*heap.Payload + 8 + uint64(i%bindingsPerBlock)*16
}
func valOff(i int) uint64 { return keyOff(i) + 8 }

// bindingCap is the number of bindings arr has room for.
func bindingCap(arr *PRefArray) int { return int(arr.Size()/heap.Payload) * bindingsPerBlock }

// newBindingArray allocates an invalid, all-null array of the given
// number of blocks.
func newBindingArray(h *core.Heap, blocks int) (*PRefArray, error) {
	return NewRefArray(h, blocks*heap.Payload/8)
}

// ScanBindings counts the full and the half bindings of the map at ref
// straight off its array; isMap is false when ref is not a map. Unlike
// resurrecting the map it writes nothing, so fsck and the crash oracles
// see the half bindings OnResurrect would retire.
func ScanBindings(h *core.Heap, ref core.Ref) (full, half int, isMap bool) {
	if ref == 0 || h.Mem().ClassOf(ref) != mustClass(h, ClassMap).ID() {
		return 0, 0, false
	}
	arr := &PRefArray{Object: h.Inspect(h.Inspect(ref).ReadRef(mapArrRef))}
	for i, n := 0, bindingCap(arr); i < n; i++ {
		kref, vref := words(arr, i)
		if kref != 0 && vref != 0 {
			full++
		} else if kref != 0 || vref != 0 {
			half++
		}
	}
	return full, half, true
}

// words loads binding i's two words.
func words(arr *PRefArray, i int) (kref, vref core.Ref) {
	off := keyOff(i)
	return arr.ReadRef(off), arr.ReadRef(off + 8)
}

// bind stores binding i's two words and writes their line back. The
// stores are atomic so a reader pinned to the shard sees each word whole.
func bind(arr *PRefArray, i int, kref, vref core.Ref) {
	off := keyOff(i)
	arr.WriteRefAtomic(off, kref)
	arr.WriteRefAtomic(off+8, vref)
	arr.PWBField(off, 16)
}

// NewMap creates an empty persistent map with the given mirror kind. The
// map object is validated; the caller publishes it (root map, field
// write).
func NewMap(h *core.Heap, kind MirrorKind) (*Map, error) {
	arr, err := newBindingArray(h, mapInitialBlocks)
	if err != nil {
		return nil, err
	}
	po, err := h.Alloc(mustClass(h, ClassMap), 16)
	if err != nil {
		return nil, err
	}
	m := po.(*Map)
	m.WriteRef(mapArrRef, arr.Ref())
	m.WriteUint64(mapKind, uint64(kind))
	m.PWB()
	arr.Validate()
	m.Validate()
	m.arrp.Store(arr)
	m.kind = kind
	m.mir = newMirror(kind)
	for i := bindingCap(arr) - 1; i >= 0; i-- {
		m.slots = append(m.slots, i)
	}
	return m, nil
}

// SetReadObs wires the read-path counters (mirror shard-lock waits) into
// the given stats block. Call before serving traffic.
func (m *Map) SetReadObs(rs *obs.ReadStats) {
	if rs != nil {
		m.mir.setWaits(&rs.ShardLockWaits)
	}
}

// rebuildParallelMin is the binding capacity below which OnResurrect
// stays serial: spawning the worker fleet costs more than scanning a few
// thousand bindings.
const rebuildParallelMin = 4096

// OnResurrect rebuilds the volatile mirror and the free-slot list by
// scanning the persistent array (§4.3.2 resurrection), and retires the
// half bindings it finds: one word of the two reached NVMM without the
// other (the crash tore an insert or a delete, whose two stores share no
// fence), or the recovery GC nullified one. Either way the key is
// unbound; the surviving word is cleared and its object freed.
//
// Large arrays are scanned by the heap's recovery worker fleet
// (core.RecoverOptions): workers read their segments — binding words, key
// bytes — and the mirror inserts, free-slot appends and retirement writes
// happen in a serial merge in segment order, since the mirror table ops
// are unsynchronized. The merged mirror, free-slot order and persistent
// state are identical to the serial scan's.
func (m *Map) OnResurrect() {
	h := m.Heap()
	arr := &PRefArray{Object: h.Inspect(m.ReadRef(mapArrRef))}
	m.arrp.Store(arr)
	m.kind = MirrorKind(m.ReadUint64(mapKind))
	m.mir = newMirror(m.kind)
	m.slots = m.slots[:0]
	start := time.Now()
	n := bindingCap(arr)
	cleaned := false
	if workers := h.RecoverParallelism(); workers > 1 && n >= rebuildParallelMin {
		cleaned = m.rebuildParallel(h, arr, n, workers)
	} else {
		cleaned = m.rebuildSerial(h, arr, n)
	}
	if cleaned {
		h.PFence()
	}
	ro := h.RecoveryObs()
	ro.RebuildNs.Add(uint64(time.Since(start)))
	ro.RebuildEntries.Add(uint64(m.mir.len()))
}

// retireHalf clears half binding i and frees the object its surviving
// word references (flushed, unfenced: the caller fences once).
func retireHalf(h *core.Heap, arr *PRefArray, i int) {
	kref, vref := words(arr, i)
	bind(arr, i, 0, 0)
	h.Mem().FreeObject(kref | vref) // one of the two is zero
}

func (m *Map) rebuildSerial(h *core.Heap, arr *PRefArray, n int) (cleaned bool) {
	for i := 0; i < n; i++ {
		kref, vref := words(arr, i)
		if kref != 0 && vref != 0 {
			m.mir.put(readStringAt(h, kref), i)
			continue
		}
		if kref != 0 || vref != 0 {
			retireHalf(h, arr, i)
			cleaned = true
		}
		m.slots = append(m.slots, i)
	}
	return cleaned
}

func (m *Map) rebuildParallel(h *core.Heap, arr *PRefArray, n, workers int) (cleaned bool) {
	type binding struct {
		idx int
		key string
	}
	type segment struct {
		entries []binding
		slots   []int // free-slot contribution, in scan order
		retire  []int // half bindings
	}
	// Oversplit so a skewed segment cannot straggle the whole rebuild.
	nseg := workers * 4
	if nseg > n {
		nseg = n
	}
	per := (n + nseg - 1) / nseg
	results := make([]segment, nseg)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= nseg {
					return
				}
				seg := &results[s]
				lo := s * per
				hi := lo + per
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					kref, vref := words(arr, i)
					if kref != 0 && vref != 0 {
						seg.entries = append(seg.entries, binding{i, readStringAt(h, kref)})
						continue
					}
					if kref != 0 || vref != 0 {
						seg.retire = append(seg.retire, i)
					}
					seg.slots = append(seg.slots, i)
				}
			}
		}()
	}
	wg.Wait()
	for s := range results {
		seg := &results[s]
		for _, i := range seg.retire {
			retireHalf(h, arr, i)
			cleaned = true
		}
		m.slots = append(m.slots, seg.slots...)
		for _, b := range seg.entries {
			m.mir.put(b.key, b.idx)
		}
	}
	return cleaned
}

// SetCacheMode switches the proxy-caching variant. CacheEager resurrects
// every value immediately (§4.3.2: "the eager implementation populates the
// cache during resurrection").
func (m *Map) SetCacheMode(mode CacheMode) error {
	if mode == CacheHot {
		return fmt.Errorf("pdt: use SetCacheHot for the bounded variant")
	}
	m.wmu.Lock()
	m.mode = mode
	if mode == CacheNone {
		m.cache = nil
	} else {
		m.cache = &unboundedCache{}
	}
	m.wmu.Unlock()
	if mode != CacheEager {
		return nil
	}
	var err error
	m.mir.rlockAll()
	defer m.mir.runlockAll()
	h := m.Heap()
	arr := m.arrp.Load()
	m.mir.forEach(func(key string, idx int) bool {
		po, e := h.Resurrect(arr.ReadRef(valOff(idx)))
		if e != nil {
			err = e
			return false
		}
		m.cache.put(key, po)
		return true
	})
	return err
}

// SetCacheHot switches to the bounded hottest-proxies variant with the
// given capacity.
func (m *Map) SetCacheHot(capacity int) {
	m.wmu.Lock()
	m.mode = CacheHot
	m.cache = &hotCache{lru: container.NewLRU[core.PObject](capacity, nil)}
	m.wmu.Unlock()
}

// Kind returns the persisted mirror kind.
func (m *Map) Kind() MirrorKind { return MirrorKind(m.ReadUint64(mapKind)) }

// Len returns the number of bindings.
func (m *Map) Len() int { return m.mir.len() }

// Contains reports whether key is bound.
func (m *Map) Contains(key string) bool {
	m.mir.rlock(key)
	_, ok := m.mir.get(key)
	m.mir.runlock(key)
	return ok
}

// GetRef returns the value reference bound to key (0 if unbound), without
// building a proxy. Allocation-free: the mirror lookup runs under the
// key's shard read lock (which also pins the binding against Delete,
// replacement and growth) and the binding's value word is one atomic load
// from the array.
func (m *Map) GetRef(key string) core.Ref {
	m.mir.rlock(key)
	defer m.mir.runlock(key)
	idx, ok := m.mir.get(key)
	if !ok {
		return 0
	}
	return m.arrp.Load().ReadRefAtomic(valOff(idx))
}

// Get resurrects the value bound to key (nil if unbound). In the cached
// and eager variants the proxy comes from the cache when possible,
// avoiding the resurrection cost §4.3.2 describes.
func (m *Map) Get(key string) (core.PObject, error) {
	if c := m.cache; c != nil {
		if po, ok := c.get(key); ok {
			return po, nil
		}
	}
	m.mir.rlock(key)
	defer m.mir.runlock(key)
	idx, ok := m.mir.get(key)
	if !ok {
		return nil, nil
	}
	// A zero value word under a mirror entry is a PutTx whose block has
	// not applied yet: unbound until it does.
	po, err := m.Heap().Resurrect(m.arrp.Load().ReadRefAtomic(valOff(idx)))
	if err != nil || po == nil {
		return nil, err
	}
	// The cache insert must stay under the shard read lock: Delete and a
	// replacing Put hold the exclusive shard lock around their free and
	// their cache update, so a racing one is ordered after this put. A
	// put after runlock could overtake it and park a proxy to freed NVMM
	// in the bounded LRU.
	if c := m.cache; c != nil {
		c.put(strings.Clone(key), po)
	}
	return po, nil
}

// Put binds key to the persistent object val. A new binding allocates a
// key string, publishes key and value under a single fence and stores the
// binding's two words; an existing binding atomically replaces (and
// frees) the previous value (§4.1.6). The map owns keys; values passed in
// become owned by the map. The key may be transient (reused by the
// caller): the map clones it before retaining it.
func (m *Map) Put(key string, val core.PObject) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	// Under wmu no writer can race this unsynchronized mirror read.
	idx, ok := m.mir.get(key)
	if !ok {
		return m.insertLocked(key, val)
	}
	// The previous value is retired exactly as Delete retires one: the
	// shard write lock keeps a reader from resurrecting it while it is
	// freed and from caching its proxy after the new one.
	m.mir.lock(key)
	m.arrp.Load().AtomicReplaceRef(valOff(idx), val)
	if m.cache != nil {
		m.cache.put(strings.Clone(key), val)
	}
	m.mir.unlock(key)
	return nil
}

// insertLocked binds the unbound key to val, or to its own key string
// when val is nil (a set member). Callers hold wmu.
func (m *Map) insertLocked(key string, val core.PObject) error {
	h := m.Heap()
	idx, err := m.takeSlotLocked(nil)
	if err != nil {
		return err
	}
	ks, err := NewString(h, key)
	if err != nil {
		m.slots = append(m.slots, idx)
		return err
	}
	// Key and value are valid and fenced before either word can name
	// them, so the recovery GC never nullifies a word of a binding; the
	// words' own write-back rides the next fence, like any J-PDT update.
	ks.Validate()
	vref := ks.Ref()
	if val != nil {
		val.Core().Validate()
		vref = val.Core().Ref()
	}
	h.PFence()
	key = strings.Clone(key)
	m.mir.lock(key)
	bind(m.arrp.Load(), idx, ks.Ref(), vref)
	m.mir.put(key, idx)
	m.mir.unlock(key)
	if val != nil && m.cache != nil {
		m.cache.put(key, val)
	}
	return nil
}

// unbind clears key's binding and frees the key string; it returns the
// value reference, which the caller frees or hands out, or 0 when key was
// not bound (or bound to itself, a set member). Callers hold wmu.
func (m *Map) unbind(key string) (vref core.Ref, ok bool) {
	h := m.Heap()
	m.mir.lock(key)
	defer m.mir.unlock(key)
	idx, ok := m.mir.get(key)
	if !ok {
		return 0, false
	}
	arr := m.arrp.Load()
	kref, vref := words(arr, idx)
	// Clearing the two words unbinds; the fence orders it before the
	// frees' invalidations (§4.1.5: a single fence covers a graph of
	// frees).
	bind(arr, idx, 0, 0)
	h.PFence()
	h.Mem().FreeObject(kref)
	if vref == kref {
		vref = 0
	}
	m.mir.del(key)
	// Cache eviction stays inside the exclusive shard section so a
	// concurrent Get cannot reinsert the dying proxy after this del.
	if m.cache != nil {
		m.cache.del(key)
	}
	m.slots = append(m.slots, idx)
	return vref, true
}

// Delete unbinds key and frees the key string and the value. It reports
// whether the key was bound.
func (m *Map) Delete(key string) bool {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	vref, ok := m.unbind(key)
	if vref != 0 {
		m.Heap().Mem().FreeObject(vref)
	}
	return ok
}

// Remove unbinds key like Delete but hands the value back to the caller
// instead of freeing it.
func (m *Map) Remove(key string) (core.PObject, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	vref, _ := m.unbind(key)
	return m.Heap().Resurrect(vref)
}

// Keys returns all keys; sorted for ordered mirrors, unspecified order
// otherwise.
func (m *Map) Keys() []string {
	m.mir.rlockAll()
	out := make([]string, 0, m.mir.len())
	m.mir.forEach(func(k string, _ int) bool {
		out = append(out, k)
		return true
	})
	m.mir.runlockAll()
	if !m.mir.ordered() {
		sort.Strings(out)
	}
	return out
}

// mirEntry is one mirror entry of an iteration snapshot.
type mirEntry struct {
	key string
	idx int
}

// ForEach calls fn for each binding until it returns false. The value
// proxy is resurrected per call (base-variant cost model).
func (m *Map) ForEach(fn func(key string, val core.PObject) bool) error {
	m.mir.rlockAll()
	snapshot := make([]mirEntry, 0, m.mir.len())
	m.mir.forEach(func(k string, idx int) bool {
		snapshot = append(snapshot, mirEntry{k, idx})
		return true
	})
	m.mir.runlockAll()
	return m.visit(snapshot, fn)
}

// Ascend iterates bindings with key >= from in key order; it requires an
// ordered mirror (tree or skip list).
func (m *Map) Ascend(from string, fn func(key string, val core.PObject) bool) error {
	if !m.mir.ordered() {
		return fmt.Errorf("pdt: Ascend requires an ordered mirror (kind %d is hash)", m.kind)
	}
	m.mir.rlockAll()
	var snapshot []mirEntry
	m.mir.ascend(from, func(k string, idx int) bool {
		snapshot = append(snapshot, mirEntry{k, idx})
		return true
	})
	m.mir.runlockAll()
	return m.visit(snapshot, fn)
}

// visit resurrects the value of every snapshot entry that is still bound
// and hands it to fn until fn returns false.
func (m *Map) visit(snapshot []mirEntry, fn func(key string, val core.PObject) bool) error {
	h := m.Heap()
	for _, e := range snapshot {
		// Re-read the binding under its shard lock: it may have been
		// deleted (and its slot reused) or replaced since the snapshot.
		vref := core.Ref(0)
		m.mir.rlock(e.key)
		if idx, ok := m.mir.get(e.key); ok && idx == e.idx {
			vref = m.arrp.Load().ReadRefAtomic(valOff(idx))
		}
		m.mir.runlock(e.key)
		if vref == 0 {
			continue
		}
		po, err := h.Resurrect(vref)
		if err != nil {
			return err
		}
		if !fn(e.key, po) {
			return nil
		}
	}
	return nil
}

// takeSlotLocked pops a free slot, growing the persistent array when none
// remain (atomic swing, §4.1.6). Callers hold wmu, which keeps every
// store into the old array out of the copy. Growth takes every mirror
// shard lock for the swap window so no reader holds the old array while
// it is freed; with EBR active the old array's blocks additionally wait
// out the readers' grace period.
// tx, when non-nil, makes the growth copy read the old array through the
// transaction: with async group commit a queued epoch may still hold a
// binding's write in its redo log, and a direct copy would take the stale
// word and orphan the binding once the swing retargets readers to the new
// array. The transactional read settles the queued epoch first (the fa
// waitClear guard) — reads are not logged, so the copy stays cheap.
func (m *Map) takeSlotLocked(tx *fa.Tx) (int, error) {
	if n := len(m.slots); n > 0 {
		idx := m.slots[n-1]
		m.slots = m.slots[:n-1]
		return idx, nil
	}
	h := m.Heap()
	arr := m.arrp.Load()
	oldCap := bindingCap(arr)
	bigger, err := newBindingArray(h, 2*oldCap/bindingsPerBlock)
	if err != nil {
		return 0, err
	}
	// Doubling keeps every binding at its offset.
	for off := uint64(0); off < arr.Size(); off += 8 {
		ref := arr.ReadRef(off)
		if tx != nil {
			if ref, err = tx.ReadRef(arr.Object, off); err != nil {
				return 0, err
			}
		}
		bigger.WriteRef(off, ref)
	}
	bigger.PWB()
	m.mir.lockAll()
	m.AtomicReplaceRef(mapArrRef, bigger)
	m.arrp.Store(bigger)
	m.mir.unlockAll()
	for i := bindingCap(bigger) - 1; i > oldCap; i-- {
		m.slots = append(m.slots, i)
	}
	return oldCap, nil
}

// ---- Transactional operations (the J-PFA backend path) ----

// gateWait orders this structural transaction's shared-block access after
// the previous structural transaction's commit apply. wmu serializes the
// bodies, but a per-Tx commit applies its redo entries after the body
// returned and wmu was released; without the wait the next writer could
// snapshot the backing array mid-apply and commit the pre-apply image
// back over it — a lost update of the predecessor's slot swing (and a
// plain-read race against the apply's atomic line stores). Called with
// wmu held, before the first tx read or write of a shared map block.
func (m *Map) gateWait() {
	if ch := m.gate; ch != nil {
		<-ch
	}
}

// gateArm registers tx as the structural predecessor the next writer must
// wait out. The channel closes once the apply has landed (Defer) or the
// block aborted (OnAbort) — exactly one of the two fires. Async commits
// do not arm: their Defer only runs at epoch drain, and the transactional
// read path already waits out pending epoch applies per block (waitClear),
// so gating on them would stall every writer until the next drain. Called
// with wmu held, after every OnAbort of the op, so the LIFO rollback
// order runs the gate release before any rollback that re-takes wmu.
func (m *Map) gateArm(tx *fa.Tx) {
	if tx.AsyncCommit() {
		return
	}
	ch := make(chan struct{})
	done := func() { close(ch) }
	tx.Defer(done)
	tx.OnAbort(done)
	m.gate = ch
}

// PutTx binds key to val inside a failure-atomic block. val must have been
// allocated in the same block (it is validated by the commit). The caller
// must serialize access to the map across the whole block, as the store's
// lock striping does.
func (m *Map) PutTx(tx *fa.Tx, key string, val core.PObject) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.gateWait()
	idx, ok := m.mir.get(key)
	if !ok {
		return m.insertTxLocked(tx, key, val)
	}
	// Transactional read: a queued async epoch may still hold the insert
	// that created this binding.
	arr := m.arrp.Load()
	oldRef, err := tx.ReadRef(arr.Object, valOff(idx))
	if err != nil {
		return err
	}
	if err := tx.WriteRef(arr.Object, valOff(idx), val.Core().Ref()); err != nil {
		return err
	}
	if oldRef != 0 {
		old, err := m.Heap().Resurrect(oldRef)
		if err != nil {
			return err
		}
		if err := tx.Free(old); err != nil {
			return err
		}
	}
	m.cachePutTx(tx, key, val)
	m.gateArm(tx)
	return nil
}

// cachePutTx caches val's proxy once the block's apply has landed. The
// shard write lock orders the put after every Get that loaded the
// previous value word: such a Get caches the old proxy under the shard
// read lock, and unordered it could land after this put and stay.
func (m *Map) cachePutTx(tx *fa.Tx, key string, val core.PObject) {
	if m.cache == nil {
		return
	}
	key = strings.Clone(key)
	tx.Defer(func() {
		m.mir.lock(key)
		m.cache.put(key, val)
		m.mir.unlock(key)
	})
}

// insertTxLocked binds the unbound key to val inside tx, or to its own
// key string when val is nil (a set member): the binding's two words go
// through the array block's in-flight copy and land with the commit.
// Callers hold wmu.
func (m *Map) insertTxLocked(tx *fa.Tx, key string, val core.PObject) error {
	idx, err := m.takeSlotLocked(tx)
	if err != nil {
		return err
	}
	ks, err := NewStringTx(tx, key)
	if err != nil {
		m.slots = append(m.slots, idx)
		return err
	}
	vref := ks.Ref()
	if val != nil {
		vref = val.Core().Ref()
	}
	arr := m.arrp.Load()
	if err := tx.WriteRef(arr.Object, keyOff(idx), ks.Ref()); err != nil {
		return err
	}
	if err := tx.WriteRef(arr.Object, valOff(idx), vref); err != nil {
		return err
	}
	key = strings.Clone(key)
	m.mir.lock(key)
	m.mir.put(key, idx)
	m.mir.unlock(key)
	tx.OnAbort(func() {
		m.wmu.Lock()
		m.mir.lock(key)
		m.mir.del(key)
		m.mir.unlock(key)
		m.slots = append(m.slots, idx)
		m.wmu.Unlock()
	})
	if val != nil {
		m.cachePutTx(tx, key, val)
	}
	m.gateArm(tx)
	return nil
}

// DeleteTx unbinds key inside a failure-atomic block, freeing key and
// value at commit.
func (m *Map) DeleteTx(tx *fa.Tx, key string) (bool, error) {
	h := m.Heap()
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.gateWait()
	idx, ok := m.mir.get(key)
	if !ok {
		return false, nil
	}
	arr := m.arrp.Load()
	// Transactional reads: a queued async epoch may still hold the insert
	// that created this binding.
	kref, err := tx.ReadRef(arr.Object, keyOff(idx))
	if err != nil {
		return false, err
	}
	vref, err := tx.ReadRef(arr.Object, valOff(idx))
	if err != nil {
		return false, err
	}
	if err := tx.WriteRef(arr.Object, keyOff(idx), 0); err != nil {
		return false, err
	}
	if err := tx.WriteRef(arr.Object, valOff(idx), 0); err != nil {
		return false, err
	}
	frees := []core.Ref{kref}
	if vref != 0 && vref != kref { // sets bind keys to themselves
		frees = append(frees, vref)
	}
	for _, ref := range frees {
		po, err := h.Resurrect(ref)
		if err != nil {
			return false, err
		}
		if err := tx.Free(po); err != nil {
			return false, err
		}
	}
	key = strings.Clone(key)
	m.mir.lock(key)
	m.mir.del(key)
	m.mir.unlock(key)
	m.slots = append(m.slots, idx)
	tx.OnAbort(func() {
		m.wmu.Lock()
		m.mir.lock(key)
		m.mir.put(key, idx)
		m.mir.unlock(key)
		for i, s := range m.slots {
			if s == idx {
				m.slots = append(m.slots[:i], m.slots[i+1:]...)
				break
			}
		}
		m.wmu.Unlock()
	})
	tx.Defer(func() {
		if m.cache != nil {
			m.cache.del(key)
		}
	})
	m.gateArm(tx)
	return true, nil
}
