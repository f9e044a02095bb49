package heap

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Epoch-based reclamation for the zero-copy read path (DESIGN.md §14).
//
// The zero-copy read path dereferences refs it loaded without holding any
// lock, so a concurrent Delete must not recycle the referenced blocks and
// slots while a reader may still be inside them. With EBR enabled, frees
// become two-phase: FreeObject retires the ref with the current epoch, and
// the actual free (header invalidation, block/slot recycling) runs only
// once every reader slot pinned at retire time has since unpinned.
//
// The safety argument (all accesses below are Go atomics, hence SC):
// a reader pins a slot *before* loading any ref; a writer nullifies the
// published ref *before* retiring it. If a reader's ref load returned the
// old ref, that load preceded the nullify in the SC order, so the pin
// preceded the reclaimer's later slot scan — the scan sees the pin, and
// the strict `epoch < minActive` reclaim condition keeps the entry (the
// retire epoch is never below an already-pinned reader's epoch, because
// epochs are monotonic and the retire happens after the reader's epoch
// load). If instead the scan saw the slot free, the reader pinned after
// the scan and its ref load can only observe the nullified word.
//
// Crash safety: a retired-but-unreclaimed object is valid-but-unreachable
// NVMM. That is exactly the state recovery's sweep reclaims (§4.1.3), so
// a crash between retire and reclaim leaks nothing. The one exception is
// the SkipGraphGC ("J-PFA-nogc") recovery mode, which skips the sweep and
// would leak (not corrupt) such objects until the next full recovery.
//
// EBR is opt-in (EnableEBR); with it off, FreeObject frees eagerly as
// before, so heaps without unlocked readers keep their immediate-reuse
// behavior and test expectations.
//
// The backlog is counted in blocks, not objects, and a retired chained
// object (a map's array after growth) starts a reclaim pass at once
// instead of waiting for ebrBatch more frees. An allocator that runs out
// of blocks reclaims the backlog before it reports ErrOutOfMemory
// (allocBlock, smallAllocator.take).

const (
	// ebrSlots bounds concurrent pinned readers. PinReader returns -1 when
	// every slot is busy; callers then fall back to their locked path, so
	// the bound only sheds zero-copy traffic, never blocks it.
	ebrSlots = 64
	// ebrBatch is how many retired blocks accumulate before a reclaim
	// pass runs (a pooled slot counts as one).
	ebrBatch = 32
	// ebrHighWater is the backlog (in blocks) beyond which retiring
	// writers yield the processor after a failed reclaim. A reader
	// descheduled while pinned blocks every later retire's grace period
	// for its whole scheduling quantum; on a saturated host the backlog
	// would otherwise grow by thousands of entries per quantum, starving
	// the allocator free lists (every update then carves fresh pool chunks
	// instead of reusing slots). One Gosched hands the pinned reader the
	// CPU it needs to unpin, bounding the backlog at a few quanta of
	// churn.
	ebrHighWater = 1024
)

type ebrRetired struct {
	ref   Ref
	epoch uint64
	// blocks is what the object occupies: its chain length, 1 for a
	// pooled slot.
	blocks int
	// invalidate is false for an object whose invalidation is already
	// durable and ordered after its unlink (FreeInvalidated): reclaiming
	// it writes nothing and needs no fence.
	invalidate bool
}

type ebrState struct {
	enabled atomic.Bool
	// epoch is even and advances by 2; a pinned slot holds epoch|1, so 0
	// always means "free".
	epoch atomic.Uint64
	slots [ebrSlots]struct {
		v atomic.Uint64
		_ [56]byte // one slot per cache line
	}

	mu      sync.Mutex
	retired []ebrRetired
	blocks  int // sum of retired[i].blocks
}

// EnableEBR switches the heap to deferred (epoch-based) reclamation.
// Called once by components that install unlocked readers; there is no
// way back because eager frees would race pins already handed out.
func (h *Heap) EnableEBR() { h.ebr.enabled.Store(true) }

// PinReader claims a reader slot at the current epoch and returns its
// index, or -1 if all slots are busy. The hint spreads unrelated readers
// across slots (pass a key hash). Callers must UnpinReader the returned
// slot after their last access to loaded refs, and must pin *before*
// loading any ref they will dereference.
func (h *Heap) PinReader(hint uint32) int {
	e := &h.ebr
	for i := uint32(0); i < ebrSlots; i++ {
		s := &e.slots[(hint+i)%ebrSlots]
		if s.v.Load() != 0 {
			continue
		}
		if s.v.CompareAndSwap(0, e.epoch.Load()|1) {
			return int((hint + i) % ebrSlots)
		}
	}
	return -1
}

// UnpinReader releases a slot returned by PinReader.
func (h *Heap) UnpinReader(slot int) {
	h.ebr.slots[slot].v.Store(0)
}

// retire queues r for reclamation after the current readers' grace period.
// invalidate says whether the reclaim must invalidate r, after a fence.
func (h *Heap) retire(r Ref, invalidate bool) {
	e := &h.ebr
	nb := h.objectBlocks(r)
	e.mu.Lock()
	e.retired = append(e.retired, ebrRetired{ref: r, epoch: e.epoch.Load(), blocks: nb, invalidate: invalidate})
	e.blocks += nb
	n := e.blocks
	e.mu.Unlock()
	if n >= ebrBatch || nb > 1 {
		h.tryReclaim()
		h.backpressure(n)
	}
}

// objectBlocks returns how many blocks the object at r occupies: its chain
// length, or 1 for a pooled slot.
func (h *Heap) objectBlocks(r Ref) int {
	if !h.IsBlockRef(r) {
		return 1
	}
	for n := 1; ; n++ {
		_, _, next := UnpackHeader(h.Header(r))
		if next == 0 {
			return n
		}
		r = h.BlockRef(next - 1)
	}
}

// backpressure yields after a reclaim attempt that left a deep backlog:
// the grace period is then being held open by a pinned reader that needs
// the processor to finish its read section and unpin (see ebrHighWater).
func (h *Heap) backpressure(n int) {
	if n >= ebrHighWater {
		runtime.Gosched()
	}
}

// tryReclaim advances the epoch and frees every retired object whose
// grace period has passed. It reports whether it freed anything.
func (h *Heap) tryReclaim() bool {
	e := &h.ebr
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch.Add(2)
	minActive := e.epoch.Load()
	for i := range e.slots {
		if v := e.slots[i].v.Load(); v != 0 {
			if pinned := v - 1; pinned < minActive {
				minActive = pinned
			}
		}
	}
	// Retire epochs are monotonic (each append loads the live epoch under
	// the same mutex that serializes epoch advances), so the reclaimable
	// entries form a prefix: stop at the first blocked entry instead of
	// re-walking the whole backlog, which kept this pass O(backlog) per
	// batch — quadratic while a descheduled pinned reader held the grace
	// period open.
	n, fence := 0, false
	for n < len(e.retired) && e.retired[n].epoch < minActive {
		fence = fence || e.retired[n].invalidate
		n++
	}
	if n == 0 {
		return false
	}
	// One fence per reclaim batch: every unlink published before the
	// retire is queued ahead of the header invalidations the reclaims are
	// about to flush, so a crash can never persist an invalidation before
	// the store that unlinked the object (§4.1.5 ordering, amortized over
	// the batch). A batch of FreeInvalidated objects alone needs none.
	if fence {
		h.pool.PFence()
	}
	for _, t := range e.retired[:n] {
		h.reclaim(t.ref, t.invalidate)
		e.blocks -= t.blocks
	}
	rest := copy(e.retired, e.retired[n:])
	clear(e.retired[rest:])
	e.retired = e.retired[:rest]
	return true
}

// reclaimRetired is the allocators' last resort before ErrOutOfMemory:
// one reclaim pass over the backlog, reporting whether it freed anything.
// It does not wait for pinned readers.
func (h *Heap) reclaimRetired() bool {
	return h.ebr.enabled.Load() && h.tryReclaim()
}

// reclaim performs the real free of a retired object (the pre-EBR
// FreeObject body). Only a FreeObject free invalidates the object here;
// a FreeInvalidated one was invalidated durably by its commit, so its
// blocks or slot are recycled with the header left as that wrote it
// (recovery's sweep clears such a header, DESIGN.md §12).
func (h *Heap) reclaim(r Ref, invalidate bool) {
	if !h.IsBlockRef(r) {
		h.small.free(r, invalidate)
		return
	}
	blocks := h.Blocks(r)
	if invalidate {
		h.SetValid(r, false)
		h.stats.FreeLines.Inc()
	}
	for _, b := range blocks {
		h.free.push(h.BlockIndex(b))
	}
	h.stats.ObjFrees.Inc()
}

// ReclaimBarrier drains the retired list, waiting for in-flight readers
// to unpin, restoring the eager-free invariant before a caller asserts on
// allocator state. Only tests call it, in heap, store and bench; it stays
// exported because an export_test.go reaches only its own package's tests.
func (h *Heap) ReclaimBarrier() {
	e := &h.ebr
	if !e.enabled.Load() {
		return
	}
	for {
		h.tryReclaim()
		e.mu.Lock()
		n := len(e.retired)
		e.mu.Unlock()
		if n == 0 {
			return
		}
		runtime.Gosched()
	}
}
