package heap

import "fmt"

// MarkSet accumulates the reachability information of the recovery
// procedure (§4.1.3): one 16-bit mask per arena block. Bit 15 says the
// block is live; for a pool chunk, bit s says slot s is (a chunk holds at
// most Payload/SlotSizes[0] = 10 slots). The object layer (package core)
// drives the graph traversal and calls MarkObject; Sweep then rebuilds
// the volatile allocator state.
//
// Recovery is single-threaded, so the set is plain memory: no atomics,
// no locks. It costs two bytes per arena block and lives only until Open
// returns. MarkObject reports true once per object — the first time it is
// marked — which is what lets the traversal visit shared subgraphs once.
type MarkSet struct {
	h      *Heap
	masks  []uint16
	marked uint64 // live blocks
	maxIdx uint64 // highest live block index (valid when marked > 0)
}

const blockMarked = 1 << 15

// NewMarkSet creates an empty mark set sized for the heap's arena.
func (h *Heap) NewMarkSet() *MarkSet {
	return &MarkSet{h: h, masks: make([]uint16, h.nBlocks)}
}

func (m *MarkSet) markBlock(idx uint64) bool {
	if m.masks[idx]&blockMarked != 0 {
		return false
	}
	m.masks[idx] |= blockMarked
	m.marked++
	m.maxIdx = max(m.maxIdx, idx)
	return true
}

// Marked returns the number of live blocks found so far.
func (m *MarkSet) Marked() uint64 { return m.marked }

// MarkObject marks the object at r live: every block of a block object's
// chain, or a pooled slot's bit and its chunk. It reports whether the
// object was newly marked. r must have passed CheckRef.
func (m *MarkSet) MarkObject(r Ref) bool {
	h := m.h
	if h.IsBlockRef(r) {
		if !m.markBlock(h.BlockIndex(r)) {
			return false
		}
		for cur := r; ; {
			_, _, next := UnpackHeader(h.Header(cur))
			if next == 0 {
				return true
			}
			m.markBlock(next - 1)
			cur = h.BlockRef(next - 1)
		}
	}
	block := h.ContainingBlock(r)
	idx := h.BlockIndex(block)
	_, _, sc := UnpackHeader(h.Header(block))
	bit := uint16(1) << ((r - block - HeaderSize) / uint64(SlotSizes[sc]))
	if m.masks[idx]&bit != 0 {
		return false
	}
	m.masks[idx] |= bit
	m.markBlock(idx)
	return true
}

// CheckRef reports an error unless r can name an object, without reading
// anything outside the arena: r must lie inside the arena and be either
// block-aligned, not a pool chunk's header, with a chain whose every link
// stays in the arena and which ends within NBlocks links, or the start of
// a slot of a valid pool chunk. Recovery runs it on every reference it
// follows before reading the target, so a corrupt image yields an error
// instead of an out-of-bounds panic, an endless chain walk, a slot bit
// past the mark set's mask, or a chunk taken for an unregistered class.
func (h *Heap) CheckRef(r Ref) error {
	end := h.arenaOff + h.nBlocks*BlockSize
	if r < h.arenaOff || r >= end {
		return fmt.Errorf("heap: ref %#x outside the arena [%#x, %#x)", r, h.arenaOff, end)
	}
	off := (r - h.arenaOff) % BlockSize
	if off == 0 {
		if id, _, _ := UnpackHeader(h.Header(r)); id == PoolChunkClass {
			return fmt.Errorf("heap: ref %#x names a pool chunk's header, not an object", r)
		}
		for cur, n := r, uint64(0); n < h.nBlocks; n++ {
			_, _, next := UnpackHeader(h.Header(cur))
			if next == 0 {
				return nil
			}
			if next > h.nBlocks {
				return fmt.Errorf("heap: ref %#x: its chain leaves the arena at block %#x (next index %d)", r, cur, next-1)
			}
			cur = h.BlockRef(next - 1)
		}
		return fmt.Errorf("heap: ref %#x: its block chain is longer than the arena (a cycle)", r)
	}
	block := r - off
	hdr := h.Header(block)
	id, valid, sc := UnpackHeader(hdr)
	if id != PoolChunkClass || !valid || sc >= uint64(len(SlotSizes)) {
		return fmt.Errorf("heap: ref %#x points into block %#x, which is not a pool chunk (header %#x)", r, block, hdr)
	}
	size := uint64(SlotSizes[sc])
	if off < HeaderSize || (off-HeaderSize)%size != 0 || (off-HeaderSize)/size >= Payload/size {
		return fmt.Errorf("heap: ref %#x is not on a slot boundary of its %d-byte pool chunk %#x", r, size, block)
	}
	return nil
}

// SweepStats reports what a sweep did, for the recovery phase counters.
type SweepStats struct {
	DeadBlocks      uint64 // unmarked blocks returned to the free queue
	LiveChunks      uint64 // pool chunks whose slot lists were rebuilt
	ScrubbedHeaders uint64 // stale headers cleared above the new bump
}

// Sweep finishes recovery: every unmarked block below the new bump is
// zeroed (clearing stale valid bits, per §4.1.3) and pushed to the
// volatile free queue; live pool chunks have their dead slots reclaimed
// and the volatile slot lists rebuilt; the bump pointer shrinks to just
// above the highest live block. A single fence closes the procedure,
// exactly as the paper prescribes.
func (h *Heap) Sweep(m *MarkSet) SweepStats {
	h.small.reset()
	// Recovery owns the heap exclusively until Open returns, so dropping
	// the free list in place is safe.
	h.free.idxs = nil
	// The persistent bump mirror is advisory only (its stores are
	// unfenced), so recovery must never trust it: a crash can lose the
	// mirror while live blocks sit above the stale value, and honoring it
	// would let the allocator overwrite them. The new bump comes from the
	// mark set alone.
	maxLive := uint64(0)
	if m.marked > 0 {
		maxLive = m.maxIdx + 1
	}
	var st SweepStats
	// Pass 1: below the new bump, dead blocks join the free queue; live
	// pool chunks get their dead slots reclaimed.
	for idx := uint64(0); idx < maxLive; idx++ {
		r := h.BlockRef(idx)
		if m.masks[idx]&blockMarked == 0 {
			if h.Header(r) != 0 {
				h.WriteHeader(r, 0)
				h.pool.PWB(r)
			}
			h.free.push(idx)
			st.DeadBlocks++
			continue
		}
		id, _, sc := UnpackHeader(h.Header(r))
		if id == PoolChunkClass {
			h.sweepChunk(r, int(sc), m.masks[idx])
			st.LiveChunks++
		}
	}
	// Pass 2: above the new bump everything is virgin again; scrub stale
	// headers (whatever a torn bump mirror claims) so neither a later
	// header-scan recovery nor a bump allocation can misread them. Virgin
	// blocks read zero, so this costs one load per untouched block.
	for idx := maxLive; idx < h.nBlocks; idx++ {
		r := h.BlockRef(idx)
		if h.Header(r) != 0 {
			h.WriteHeader(r, 0)
			h.pool.PWB(r)
			st.ScrubbedHeaders++
		}
	}
	h.bump.Store(maxLive)
	h.pool.WriteUint64(sbBump, maxLive)
	h.pool.PWB(sbBump)
	h.pool.PFence()
	return st
}

// sweepChunk reclaims the dead slots of a live pool chunk: zero (and
// flush) any stale mini-header, and append the slot to its size class's
// volatile slot list.
func (h *Heap) sweepChunk(block Ref, sc int, liveMask uint16) {
	size := uint64(SlotSizes[sc])
	free := &h.small.classes[sc].free
	for s := uint64(0); s < Payload/size; s++ {
		r := block + HeaderSize + s*size
		if liveMask&(1<<s) != 0 {
			continue
		}
		if h.pool.ReadUint64(r) != 0 {
			h.pool.WriteUint64(r, 0)
			h.pool.PWB(r)
		}
		*free = append(*free, r)
	}
}
