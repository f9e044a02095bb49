package heap

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// freeList is the volatile free queue of §4.1.2. It is sharded to scale
// with the number of threads: pushes round-robin across shards, pops try
// the local shard then steal.
type freeList struct {
	shards [freeShards]struct {
		mu   sync.Mutex
		idxs []uint64
		_pad [40]byte // keep shards on distinct cache lines
	}
	rr atomic.Uint64
}

const freeShards = 16

func (f *freeList) init() {}

func (f *freeList) push(idx uint64) {
	s := &f.shards[f.rr.Add(1)%freeShards]
	s.mu.Lock()
	s.idxs = append(s.idxs, idx)
	s.mu.Unlock()
}

// pushAll returns a batch of block indices to the queue. Elements are
// striped round-robin across shards like push, but the shard lock is taken
// once per shard rather than once per element.
func (f *freeList) pushAll(idxs []uint64) {
	if len(idxs) == 0 {
		return
	}
	base := f.rr.Add(uint64(len(idxs)))
	for s := 0; s < freeShards && s < len(idxs); s++ {
		shard := &f.shards[(base+uint64(s))%freeShards]
		shard.mu.Lock()
		for i := s; i < len(idxs); i += freeShards {
			shard.idxs = append(shard.idxs, idxs[i])
		}
		shard.mu.Unlock()
	}
}

func (f *freeList) pop() (uint64, bool) {
	start := f.rr.Add(1)
	for i := uint64(0); i < freeShards; i++ {
		s := &f.shards[(start+i)%freeShards]
		s.mu.Lock()
		if n := len(s.idxs); n > 0 {
			idx := s.idxs[n-1]
			s.idxs = s.idxs[:n-1]
			s.mu.Unlock()
			return idx, true
		}
		s.mu.Unlock()
	}
	return 0, false
}

func (f *freeList) len() int {
	n := 0
	for i := range f.shards {
		f.shards[i].mu.Lock()
		n += len(f.shards[i].idxs)
		f.shards[i].mu.Unlock()
	}
	return n
}

// FreeBlocks returns the number of blocks currently in the volatile free
// queue (not counting never-allocated arena space).
func (h *Heap) FreeBlocks() int { return h.free.len() }

// ErrOutOfMemory is returned (wrapped) when the arena is exhausted.
var ErrOutOfMemory = fmt.Errorf("heap: out of NVMM")

// allocBlock grabs one free block index, preferring the free queue and
// falling back to the bump pointer. Per §4.1.2 this touches only volatile
// memory except for the persistent bump mirror, which needs no flush: the
// recovery procedure recomputes it from reachability.
func (h *Heap) allocBlock() (uint64, error) {
	if idx, ok := h.free.pop(); ok {
		h.stats.ReuseAllocs.Inc()
		return idx, nil
	}
	for {
		cur := h.bump.Load()
		if cur >= h.nBlocks {
			return 0, fmt.Errorf("%w: arena of %d blocks exhausted", ErrOutOfMemory, h.nBlocks)
		}
		if h.bump.CompareAndSwap(cur, cur+1) {
			// The persistent mirror is advisory (recovery recomputes the
			// bump from reachability), but the store itself must be
			// synchronized and monotonic: CAS winners can reach this
			// line out of order.
			h.bumpMu.Lock()
			if cur+1 > h.bumpMirror {
				h.bumpMirror = cur + 1
				h.pool.WriteUint64(sbBump, cur+1)
			}
			h.bumpMu.Unlock()
			h.stats.BumpAllocs.Inc()
			return cur, nil
		}
	}
}

// BlocksFor returns how many blocks an object of size data bytes occupies.
func BlocksFor(size uint64) int {
	if size == 0 {
		return 1
	}
	return int((size + Payload - 1) / Payload)
}

// AllocObject allocates the persistent data structure of an object: a
// chain of blocks able to hold size payload bytes, with the master block
// carrying classID in the *invalid* state (§4.1.4 — no fence is needed
// because an invalid master is dead at recovery). Payloads are zeroed so a
// later Validate publishes deterministic field values. Returns the master
// Ref and the full block list.
func (h *Heap) AllocObject(classID uint16, size uint64) (Ref, []Ref, error) {
	if classID == 0 {
		return 0, nil, fmt.Errorf("heap: class id 0 is reserved")
	}
	n := BlocksFor(size)
	idxs := make([]uint64, n)
	for i := range idxs {
		idx, err := h.allocBlock()
		if err != nil {
			// Return what we took; nothing persistent changed yet.
			h.free.pushAll(idxs[:i])
			return 0, nil, err
		}
		idxs[i] = idx
	}
	refs := make([]Ref, n)
	for i, idx := range idxs {
		refs[i] = h.BlockRef(idx)
	}
	for i := n - 1; i >= 0; i-- {
		next := uint64(0)
		if i+1 < n {
			next = idxs[i+1] + 1
		}
		id := uint16(0)
		if i == 0 {
			id = classID
		}
		h.WriteHeader(refs[i], PackHeader(id, false, next))
		h.pool.Zero(refs[i]+HeaderSize, Payload)
	}
	h.stats.ObjAllocs.Inc()
	return refs[0], refs, nil
}

// AllocRaw allocates a single raw block; FreeRaw gives it back. The
// benchmark's allocator probe times the pair. Its header is zeroed: id 0,
// invalid — a slave or free block in the Table 2 taxonomy, so recovery
// reclaims it.
func (h *Heap) AllocRaw() (Ref, error) {
	idx, err := h.allocBlock()
	if err != nil {
		return 0, err
	}
	r := h.BlockRef(idx)
	h.WriteHeader(r, 0)
	return r, nil
}

// FreeRaw returns a raw block to the volatile free queue.
func (h *Heap) FreeRaw(r Ref) {
	h.free.push(h.BlockIndex(r))
}

// FreeObject atomically deletes the object at master Ref r: the master is
// invalidated (flushed, not fenced — §4.1.5 lets the caller batch one
// fence over a whole graph of frees) and all blocks go back to the
// volatile free queue. Pooled slots are routed to the slot allocator.
// With EBR enabled the free is deferred past the readers' grace period
// (see ebr.go); until then the object stays valid-but-unreachable, which
// recovery reclaims after a crash.
func (h *Heap) FreeObject(r Ref) {
	if r == 0 {
		return
	}
	if h.ebr.enabled.Load() {
		h.retire(r)
		return
	}
	h.reclaim(r)
}

// Stats reports occupancy: blocks handed out from the arena top, blocks in
// the free queue, and total arena blocks.
func (h *Heap) Stats() (bumped, free, total uint64) {
	return h.bump.Load(), uint64(h.free.len()), h.nBlocks
}
