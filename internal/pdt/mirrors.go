package pdt

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/container"
	"repro/internal/obs"
)

// Volatile mirrors with reader striping (DESIGN.md §14).
//
// The mirror is the key -> slot-index lookup table of §4.3.2. It used to
// hide behind the Map's single RWMutex, which serialized every Get on the
// lock's cache line. The locking now lives here, in two layers:
//
//   - Mirror integrity: the hash mirror shards its Go map 64 ways by key
//     hash, so concurrent Gets on different keys touch different locks.
//     The ordered mirrors (tree, skip list) share one structure, so they
//     use a big-reader lock: readers take one of 16 striped read locks
//     (picked by key hash, so readers don't bounce a shared line), and
//     writers take all 16 in order.
//
//   - Binding stability: by protocol, a holder of rlock(key) can also read
//     the persistent binding (its two array words) without racing
//     Delete, value replacement or array growth, because the first two
//     run under lock(key) and growth under lockAll. This gives the old Get-vs-Delete exclusion
//     without any map-global lock.
//
// The table ops (get/put/del/forEach/ascend) are NOT internally
// synchronized: callers hold the matching lock (get under rlock, put/del
// under lock, iteration under rlockAll), or are single-threaded
// (resurrection rebuild). len is an atomic counter and needs no lock.
type mirror interface {
	get(key string) (int, bool)
	put(key string, idx int)
	del(key string) bool
	len() int
	forEach(fn func(key string, idx int) bool)
	ascend(from string, fn func(key string, idx int) bool)
	ordered() bool

	rlock(key string)
	runlock(key string)
	lock(key string)
	unlock(key string)
	rlockAll()
	runlockAll()
	lockAll()
	unlockAll()

	// setWaits installs the contended-acquisition counter (obs wiring).
	setWaits(c *obs.Counter)
}

func newMirror(kind MirrorKind) mirror {
	switch kind {
	case MirrorTree:
		return &orderedMirror{inner: &treeCore{t: container.NewRBTree[int]()}}
	case MirrorSkip:
		return &orderedMirror{inner: &skipCore{s: container.NewSkipList[int](0x5eed)}}
	default:
		h := &hashMirror{}
		for i := range h.shards {
			h.shards[i].m = make(map[string]int)
		}
		return h
	}
}

// keyHash is FNV-1a, the same cheap hash the store's lock striping uses.
func keyHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// ---- hash mirror: per-shard Go maps ----

const hashShards = 64

type hashMirror struct {
	shards [hashShards]struct {
		mu sync.RWMutex
		m  map[string]int
		_  [32]byte // keep shard locks on distinct cache lines
	}
	count atomic.Int64
	waits *obs.Counter
}

func (h *hashMirror) shard(key string) *sync.RWMutex {
	return &h.shards[keyHash(key)%hashShards].mu
}

func (h *hashMirror) table(key string) map[string]int {
	return h.shards[keyHash(key)%hashShards].m
}

func (h *hashMirror) get(k string) (int, bool) { v, ok := h.table(k)[k]; return v, ok }

func (h *hashMirror) put(k string, v int) {
	t := h.table(k)
	if _, ok := t[k]; !ok {
		h.count.Add(1)
	}
	t[k] = v
}

func (h *hashMirror) del(k string) bool {
	t := h.table(k)
	if _, ok := t[k]; !ok {
		return false
	}
	delete(t, k)
	h.count.Add(-1)
	return true
}

func (h *hashMirror) len() int      { return int(h.count.Load()) }
func (h *hashMirror) ordered() bool { return false }

func (h *hashMirror) forEach(fn func(string, int) bool) {
	for i := range h.shards {
		for k, v := range h.shards[i].m {
			if !fn(k, v) {
				return
			}
		}
	}
}

func (h *hashMirror) ascend(from string, fn func(string, int) bool) {
	keys := make([]string, 0, h.len())
	h.forEach(func(k string, _ int) bool {
		if k >= from {
			keys = append(keys, k)
		}
		return true
	})
	sort.Strings(keys)
	for _, k := range keys {
		if v, ok := h.get(k); ok {
			if !fn(k, v) {
				return
			}
		}
	}
}

func (h *hashMirror) rlock(key string) {
	mu := h.shard(key)
	if !mu.TryRLock() {
		if h.waits != nil {
			h.waits.Inc()
		}
		mu.RLock()
	}
}
func (h *hashMirror) runlock(key string) { h.shard(key).RUnlock() }
func (h *hashMirror) lock(key string)    { h.shard(key).Lock() }
func (h *hashMirror) unlock(key string)  { h.shard(key).Unlock() }

func (h *hashMirror) rlockAll() {
	for i := range h.shards {
		h.shards[i].mu.RLock()
	}
}
func (h *hashMirror) runlockAll() {
	for i := len(h.shards) - 1; i >= 0; i-- {
		h.shards[i].mu.RUnlock()
	}
}
func (h *hashMirror) lockAll() {
	for i := range h.shards {
		h.shards[i].mu.Lock()
	}
}
func (h *hashMirror) unlockAll() {
	for i := len(h.shards) - 1; i >= 0; i-- {
		h.shards[i].mu.Unlock()
	}
}

func (h *hashMirror) setWaits(c *obs.Counter) { h.waits = c }

// ---- ordered mirrors: shared structure behind a big-reader lock ----

// orderedCore is the unsynchronized ordered lookup structure.
type orderedCore interface {
	get(k string) (int, bool)
	put(k string, v int)
	del(k string) bool
	ascend(from string, fn func(string, int) bool)
}

const orderedStripes = 16

// orderedMirror wraps a tree or skip list. Readers take one striped read
// lock (by key hash); writers take all stripes in index order, so any
// single read lock excludes every writer.
type orderedMirror struct {
	stripes [orderedStripes]struct {
		mu sync.RWMutex
		_  [40]byte
	}
	inner orderedCore
	count atomic.Int64
	waits *obs.Counter
}

func (o *orderedMirror) get(k string) (int, bool) { return o.inner.get(k) }

func (o *orderedMirror) put(k string, v int) {
	if _, ok := o.inner.get(k); !ok {
		o.count.Add(1)
	}
	o.inner.put(k, v)
}

func (o *orderedMirror) del(k string) bool {
	if o.inner.del(k) {
		o.count.Add(-1)
		return true
	}
	return false
}

func (o *orderedMirror) len() int      { return int(o.count.Load()) }
func (o *orderedMirror) ordered() bool { return true }

func (o *orderedMirror) forEach(fn func(string, int) bool) { o.inner.ascend("", fn) }
func (o *orderedMirror) ascend(from string, fn func(string, int) bool) {
	o.inner.ascend(from, fn)
}

func (o *orderedMirror) rlock(key string) {
	mu := &o.stripes[keyHash(key)%orderedStripes].mu
	if !mu.TryRLock() {
		if o.waits != nil {
			o.waits.Inc()
		}
		mu.RLock()
	}
}
func (o *orderedMirror) runlock(key string) {
	o.stripes[keyHash(key)%orderedStripes].mu.RUnlock()
}

// Writers must exclude every reader: any reader may traverse the whole
// shared structure, so per-key write locks degenerate to "all stripes".
func (o *orderedMirror) lock(string)   { o.lockAll() }
func (o *orderedMirror) unlock(string) { o.unlockAll() }

// One read stripe suffices to exclude writers (they take all stripes).
func (o *orderedMirror) rlockAll()   { o.stripes[0].mu.RLock() }
func (o *orderedMirror) runlockAll() { o.stripes[0].mu.RUnlock() }

func (o *orderedMirror) lockAll() {
	for i := range o.stripes {
		o.stripes[i].mu.Lock()
	}
}
func (o *orderedMirror) unlockAll() {
	for i := len(o.stripes) - 1; i >= 0; i-- {
		o.stripes[i].mu.Unlock()
	}
}

func (o *orderedMirror) setWaits(c *obs.Counter) { o.waits = c }

type treeCore struct{ t *container.RBTree[int] }

func (t *treeCore) get(k string) (int, bool) { return t.t.Get(k) }
func (t *treeCore) put(k string, v int)      { t.t.Put(k, v) }
func (t *treeCore) del(k string) bool        { return t.t.Delete(k) }
func (t *treeCore) ascend(from string, fn func(string, int) bool) {
	t.t.Ascend(from, fn)
}

type skipCore struct{ s *container.SkipList[int] }

func (s *skipCore) get(k string) (int, bool) { return s.s.Get(k) }
func (s *skipCore) put(k string, v int)      { s.s.Put(k, v) }
func (s *skipCore) del(k string) bool        { return s.s.Delete(k) }
func (s *skipCore) ascend(from string, fn func(string, int) bool) {
	s.s.Ascend(from, fn)
}
