package heap

import (
	"fmt"
	"sync"
)

// freeList is the volatile free queue of §4.1.2: one LIFO stack of block
// indices. Its mutex also guards every store to the bump pointer, so
// taking a block is one critical section whichever of the two serves it.
type freeList struct {
	mu   sync.Mutex
	idxs []uint64
}

func (f *freeList) push(idx uint64) {
	f.mu.Lock()
	f.idxs = append(f.idxs, idx)
	f.mu.Unlock()
}

func (f *freeList) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.idxs)
}

// FreeBlocks returns the number of blocks currently in the volatile free
// queue (not counting never-allocated arena space).
func (h *Heap) FreeBlocks() int { return h.free.len() }

// ErrOutOfMemory is returned (wrapped) when the arena is exhausted.
var ErrOutOfMemory = fmt.Errorf("heap: out of NVMM")

// allocBlock grabs one free block index, preferring the free queue and
// falling back to the bump pointer; an exhausted arena first reclaims the
// EBR backlog, whose frees would otherwise stay invisible to it. Per
// §4.1.2 this touches only volatile memory except for the persistent bump
// mirror, which needs no flush: the recovery procedure recomputes it from
// reachability.
func (h *Heap) allocBlock() (uint64, error) {
	idx, err := h.takeBlock()
	if err != nil && h.reclaimRetired() {
		idx, err = h.takeBlock()
	}
	return idx, err
}

// takeBlock is allocBlock without the reclaim: the small allocator's carve
// calls it under its size-class lock, which the reclaim's slot frees take.
// It pops the most recently freed block or bumps, and stores the bump's
// persistent mirror inside the same critical section, so the mirror's
// stores are ordered and monotonic. The unlock is deferred: that store
// may panic (a fault plane may abandon the run there), and every later
// allocation takes this lock.
func (h *Heap) takeBlock() (uint64, error) {
	f := &h.free
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.idxs); n > 0 {
		idx := f.idxs[n-1]
		f.idxs = f.idxs[:n-1]
		h.stats.ReuseAllocs.Inc()
		return idx, nil
	}
	cur := h.bump.Load()
	if cur >= h.nBlocks {
		return 0, fmt.Errorf("%w: arena of %d blocks exhausted", ErrOutOfMemory, h.nBlocks)
	}
	h.bump.Store(cur + 1)
	h.pool.WriteUint64(sbBump, cur+1)
	h.stats.BumpAllocs.Inc()
	return cur, nil
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
	refs := make([]Ref, n)
	for i := range refs {
		idx, err := h.allocBlock()
		if err != nil {
			// Return what we took; nothing persistent changed yet.
			for _, r := range refs[:i] {
				h.free.push(h.BlockIndex(r))
			}
			return 0, nil, err
		}
		refs[i] = h.BlockRef(idx)
	}
	for i := n - 1; i >= 0; i-- {
		next := uint64(0)
		if i+1 < n {
			next = h.BlockIndex(refs[i+1]) + 1
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
func (h *Heap) FreeObject(r Ref) { h.freeObject(r, true) }

// FreeInvalidated is FreeObject for an object whose invalidation is
// already durable and ordered after its unlink — package fa's frees,
// applied as kindFree log entries and covered by the retired watermark's
// fence before fa recycles them. It writes nothing: the blocks or the
// slot go back to the allocator as the invalidation left them, and with
// EBR enabled the reclaim pass pays no fence for it.
func (h *Heap) FreeInvalidated(r Ref) { h.freeObject(r, false) }

func (h *Heap) freeObject(r Ref, invalidate bool) {
	if r == 0 {
		return
	}
	if h.ebr.enabled.Load() {
		h.retire(r, invalidate)
		return
	}
	h.reclaim(r, invalidate)
}

// Stats reports occupancy: blocks handed out from the arena top, blocks in
// the free queue, and total arena blocks.
func (h *Heap) Stats() (bumped, free, total uint64) {
	return h.bump.Load(), uint64(h.free.len()), h.nBlocks
}
