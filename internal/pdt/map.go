package pdt

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
)

// proxyCache is the volatile proxy store of the cached and eager
// variants; as in the paper, "the cache contains all proxies".
type proxyCache struct{ m sync.Map }

func (c *proxyCache) get(k string) (core.PObject, bool) {
	v, ok := c.m.Load(k)
	if !ok {
		return nil, false
	}
	return v.(core.PObject), true
}
func (c *proxyCache) put(k string, po core.PObject) { c.m.Store(k, po) }
func (c *proxyCache) del(k string)                  { c.m.Delete(k) }

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
// therefore never straddles a block (a failure-atomic insert logs two
// words of one block) nor a cache line (a publication is one write-back).
//
// Concurrency (DESIGN.md §14): one RWMutex, mu, guards the mirror. A
// lookup read-locks it, which also keeps the binding's words and the
// objects they reference stable, and loads the value word atomically.
// Writers — Put, Delete, Remove, array growth, the transactional paths —
// serialize on wmu and additionally write-lock mu for the window that
// publishes a binding, retires a key or a value, or swaps the array: a
// replaced value is freed like a deleted one, so Put over an existing
// binding excludes readers too, and being under wmu it cannot store into
// an array that growth is copying. A transactional writer's commit
// outlives its wmu window, so the transactional paths additionally gate
// on the predecessor's commit (gateWait/gateArm). No path takes the read
// lock while it holds it: a waiting writer would deadlock the second
// RLock.
type Map struct {
	*core.Object

	wmu   sync.Mutex                // serializes writers
	mu    sync.RWMutex              // guards mir, and pins bindings for readers
	waits *obs.Counter              // read locks that had to wait (nil: uncounted)
	arrp  atomic.Pointer[PRefArray] // current backing array, atomically swapped by growth
	kind  MirrorKind
	mir   *mirror
	gate  chan struct{} // closed when the last structural commit is ordered (guarded by wmu)
	slots []int         // free binding indices (guarded by wmu)
	cache *proxyCache   // nil in base mode
}

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

// SetReadObs wires the read-path counters (mirror lock waits) into the
// given stats block. Call before serving traffic.
func (m *Map) SetReadObs(rs *obs.ReadStats) {
	if rs != nil {
		m.waits = &rs.ShardLockWaits
	}
}

// rlock read-locks the mirror, counting an acquisition that has to wait
// for a writer.
func (m *Map) rlock() {
	if !m.mu.TryRLock() {
		if m.waits != nil {
			m.waits.Inc()
		}
		m.mu.RLock()
	}
}

// OnResurrect rebuilds the volatile mirror and the free-slot list by
// scanning the persistent array (§4.3.2 resurrection), and retires the
// half bindings it finds: one word of the two reached NVMM without the
// other (the crash tore an insert or a delete, whose two stores share no
// fence), or the recovery GC nullified one. Either way the key is
// unbound; the surviving word is cleared and its object freed.
func (m *Map) OnResurrect() {
	h := m.Heap()
	arr := &PRefArray{Object: h.Inspect(m.ReadRef(mapArrRef))}
	m.arrp.Store(arr)
	m.kind = MirrorKind(m.ReadUint64(mapKind))
	m.mir = newMirror(m.kind)
	m.slots = m.slots[:0]
	start := time.Now()
	if m.rebuild(h, arr) {
		h.PFence()
	}
	ro := h.RecoveryObs()
	ro.RebuildNs.Add(uint64(time.Since(start)))
	ro.RebuildEntries.Add(uint64(m.mir.len()))
}

// rebuild scans the array: a full binding goes into the mirror, every
// other index onto the free-slot list, and a half binding is cleared and
// its surviving word's object freed (flushed, unfenced: it reports
// whether it wrote, and the caller fences once).
func (m *Map) rebuild(h *core.Heap, arr *PRefArray) (cleaned bool) {
	for i, n := 0, bindingCap(arr); i < n; i++ {
		kref, vref := words(arr, i)
		if kref != 0 && vref != 0 {
			m.mir.put(readStringAt(h, kref), i)
			continue
		}
		if kref != 0 || vref != 0 {
			bind(arr, i, 0, 0)
			h.Mem().FreeObject(kref | vref) // one of the two is zero
			cleaned = true
		}
		m.slots = append(m.slots, i)
	}
	return cleaned
}

// SetCacheMode switches the proxy-caching variant. CacheEager resurrects
// every value immediately (§4.3.2: "the eager implementation populates the
// cache during resurrection").
func (m *Map) SetCacheMode(mode CacheMode) error {
	m.wmu.Lock()
	if mode == CacheNone {
		m.cache = nil
	} else {
		m.cache = &proxyCache{}
	}
	m.wmu.Unlock()
	if mode != CacheEager {
		return nil
	}
	var err error
	m.rlock()
	defer m.mu.RUnlock()
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

// Len returns the number of bindings.
func (m *Map) Len() int { return m.mir.len() }

// Contains reports whether key is bound.
func (m *Map) Contains(key string) bool {
	m.rlock()
	_, ok := m.mir.get(key)
	m.mu.RUnlock()
	return ok
}

// GetRef returns the value reference bound to key (0 if unbound), without
// building a proxy. Allocation-free: the mirror lookup runs under the
// read lock (which also pins the binding against Delete, replacement and
// growth) and the binding's value word is one atomic load from the array.
func (m *Map) GetRef(key string) core.Ref {
	m.rlock()
	defer m.mu.RUnlock()
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
	m.rlock()
	defer m.mu.RUnlock()
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
	// The cache insert must stay under the read lock: Delete and a
	// replacing Put hold the write lock around their free and their cache
	// update, so a racing one is ordered after this put. A put after
	// RUnlock could overtake it and park a proxy to freed NVMM in the
	// cache.
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
	// write lock keeps a reader from resurrecting it while it is freed and
	// from caching its proxy after the new one.
	m.mu.Lock()
	m.arrp.Load().AtomicReplaceRef(valOff(idx), val)
	if m.cache != nil {
		m.cache.put(strings.Clone(key), val)
	}
	m.mu.Unlock()
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
	m.mu.Lock()
	bind(m.arrp.Load(), idx, ks.Ref(), vref)
	m.mir.put(key, idx)
	m.mu.Unlock()
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
	m.mu.Lock()
	defer m.mu.Unlock()
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
	// Cache eviction stays inside the write lock so a concurrent Get
	// cannot reinsert the dying proxy after this del.
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

// Remove unbinds key like Delete but hands the value's reference back to
// the caller (0 when key was not bound) instead of freeing it.
func (m *Map) Remove(key string) core.Ref {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	vref, _ := m.unbind(key)
	return vref
}

// Keys returns all keys; sorted for ordered mirrors, unspecified order
// otherwise.
func (m *Map) Keys() []string {
	m.rlock()
	out := make([]string, 0, m.mir.len())
	m.mir.forEach(func(k string, _ int) bool {
		out = append(out, k)
		return true
	})
	m.mu.RUnlock()
	if m.mir.tree == nil {
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
	m.rlock()
	snapshot := make([]mirEntry, 0, m.mir.len())
	m.mir.forEach(func(k string, idx int) bool {
		snapshot = append(snapshot, mirEntry{k, idx})
		return true
	})
	m.mu.RUnlock()
	return m.visit(snapshot, fn)
}

// Ascend iterates bindings with key >= from in key order; it requires an
// ordered mirror (tree or skip list).
func (m *Map) Ascend(from string, fn func(key string, val core.PObject) bool) error {
	if m.mir.tree == nil {
		return fmt.Errorf("pdt: Ascend requires an ordered mirror (kind %d is hash)", m.kind)
	}
	m.rlock()
	var snapshot []mirEntry
	m.mir.tree.Ascend(from, func(k string, idx int) bool {
		snapshot = append(snapshot, mirEntry{k, idx})
		return true
	})
	m.mu.RUnlock()
	return m.visit(snapshot, fn)
}

// visit resurrects the value of every snapshot entry that is still bound
// and hands it to fn until fn returns false.
func (m *Map) visit(snapshot []mirEntry, fn func(key string, val core.PObject) bool) error {
	h := m.Heap()
	for _, e := range snapshot {
		// Re-read the binding under the read lock: it may have been
		// deleted (and its slot reused) or replaced since the snapshot.
		vref := core.Ref(0)
		m.rlock()
		if idx, ok := m.mir.get(e.key); ok && idx == e.idx {
			vref = m.arrp.Load().ReadRefAtomic(valOff(idx))
		}
		m.mu.RUnlock()
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
// store into the old array out of the copy. Growth write-locks the
// mirror for the swap window so no reader holds the old array while it
// is freed; with EBR active the old array's blocks additionally wait out
// the readers' grace period.
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
	m.mu.Lock()
	m.AtomicReplaceRef(mapArrRef, bigger)
	m.arrp.Store(bigger)
	m.mu.Unlock()
	for i := bindingCap(bigger) - 1; i > oldCap; i-- {
		m.slots = append(m.slots, i)
	}
	return oldCap, nil
}

// ---- Transactional operations (the J-PFA backend path) ----

// gateWait orders this structural transaction's shared-block access after
// the previous structural transaction's commit. wmu serializes the bodies,
// but the commit comes after the body returned and wmu was released;
// without the wait the next writer could copy the backing array before
// the predecessor's writes reach it (a per-Tx apply) or are queued under
// waitClear (an async enqueue), and commit the older image back over them
// — a lost update of the predecessor's slot swing (and a plain-read race
// against the apply's atomic line stores). Called with wmu held, before
// the first tx read or write of a shared map block.
func (m *Map) gateWait() {
	if ch := m.gate; ch != nil {
		<-ch
	}
}

// gateArm registers tx as the structural predecessor the next writer must
// wait out. The channel closes once the commit is ordered (OnOrdered) or
// the block aborted (OnAbort) — exactly one of the two fires. Called with
// wmu held, after every OnAbort of the op, so the LIFO rollback order runs
// the gate release before any rollback that re-takes wmu.
func (m *Map) gateArm(tx *fa.Tx) {
	ch := make(chan struct{})
	done := func() { close(ch) }
	tx.OnOrdered(done)
	tx.OnAbort(done)
	m.gate = ch
}

// PutTx binds key to val inside a failure-atomic block. val must have been
// allocated in the same block (it is validated by the commit). Blocks on
// different goroutines may call PutTx and DeleteTx concurrently, on any
// keys: wmu and the commit gate order each after its predecessor's commit.
// A block makes at most one such call per map and takes no other writer
// path of the map until it ends: the next one would wait, holding wmu, for
// this block's own commit.
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
	if err := tx.FreeRef(oldRef); err != nil {
		return err
	}
	m.cachePutTx(tx, key, val)
	m.gateArm(tx)
	return nil
}

// cachePutTx caches val's proxy once the block's apply has landed. The
// write lock orders the put after every Get that loaded the previous
// value word: such a Get caches the old proxy under the read lock, and
// unordered it could land after this put and stay.
func (m *Map) cachePutTx(tx *fa.Tx, key string, val core.PObject) {
	if m.cache == nil {
		return
	}
	key = strings.Clone(key)
	tx.Defer(func() {
		m.mu.Lock()
		m.cache.put(key, val)
		m.mu.Unlock()
	})
}

// insertTxLocked binds the unbound key to val inside tx, or to its own
// key string when val is nil (a set member): the binding's two words go
// to the redo log as two word entries and land with the commit.
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
	m.mu.Lock()
	m.mir.put(key, idx)
	m.mu.Unlock()
	tx.OnAbort(func() {
		m.wmu.Lock()
		m.mu.Lock()
		m.mir.del(key)
		m.mu.Unlock()
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
		if err := tx.FreeRef(ref); err != nil {
			return false, err
		}
	}
	key = strings.Clone(key)
	m.mu.Lock()
	m.mir.del(key)
	m.mu.Unlock()
	m.slots = append(m.slots, idx)
	tx.OnAbort(func() {
		m.wmu.Lock()
		m.mu.Lock()
		m.mir.put(key, idx)
		m.mu.Unlock()
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
