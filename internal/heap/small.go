package heap

import (
	"errors"
	"fmt"
	"sync"
)

// Small-immutable-object pool allocators (§4.4).
//
// Because the failure-atomic algorithm works at block, not object,
// granularity, only *immutable* objects may share a block: two transactions
// can then never produce diverging in-flight replicas of the same block.
//
// A pool chunk is one ordinary heap block whose header carries the reserved
// poolChunkClass id, the valid bit set, and — since a chunk has no next
// block — the size-class index in the next field. The payload is divided
// into fixed-size slots. Each slot starts with an 8-byte mini-header:
//
//	classID (15) | valid (1) | sizeClass (8) | payload length (32)
//
// A Ref to a pooled object is the interior pool offset of its slot header,
// so the generic Valid/SetValid/ClassOf operations dispatch on alignment.

// PoolChunkClass is the reserved class id marking pool-chunk blocks.
const PoolChunkClass = 0x7fff

const (
	slotLenMask    = (1 << 32) - 1
	slotClassShift = 49
	slotValidBit   = 1 << 48
	slotSCShift    = 40
)

func packSlot(classID uint16, valid bool, sizeClass int, length uint32) uint64 {
	h := uint64(classID)<<slotClassShift | uint64(sizeClass)<<slotSCShift | uint64(length)
	if valid {
		h |= slotValidBit
	}
	return h
}

func slotClass(h uint64) uint16 { return uint16(h >> slotClassShift) }
func slotValid(h uint64) bool   { return h&slotValidBit != 0 }
func slotLen(h uint64) uint32   { return uint32(h & slotLenMask) }

func setSlotValid(h uint64, v bool) uint64 {
	if v {
		return h | slotValidBit
	}
	return h &^ uint64(slotValidBit)
}

// SlotSizes are the pool size classes (slot size including the 8-byte
// mini-header). Objects above the largest class fall back to whole-block
// allocation.
var SlotSizes = [...]int{24, 40, 56, 88, 124}

// SlotPayloadMax is the largest payload the pool allocators accept.
const SlotPayloadMax = 124 - 8

func sizeClassFor(payload uint64) (int, bool) {
	need := int(payload) + 8
	for i, s := range SlotSizes {
		if s >= need {
			return i, true
		}
	}
	return 0, false
}

type smallAllocator struct {
	h       *Heap
	classes [len(SlotSizes)]struct {
		mu   sync.Mutex
		free []Ref
	}
}

func (s *smallAllocator) init(h *Heap) { s.h = h }

// carve initializes a fresh chunk for size class sc and returns its slot
// refs. The chunk header is flushed but not fenced: the first fence that
// publishes any object in the chunk also persists the header (§3.2.3
// batching argument).
func (s *smallAllocator) carve(sc int) ([]Ref, error) {
	idx, err := s.h.takeBlock()
	if err != nil {
		return nil, err
	}
	block := s.h.BlockRef(idx)
	s.h.WriteHeader(block, PackHeader(PoolChunkClass, true, uint64(sc)))
	s.h.pool.Zero(block+HeaderSize, Payload)
	s.h.pool.PWB(block)
	size := uint64(SlotSizes[sc])
	n := Payload / size
	slots := make([]Ref, 0, n)
	for i := uint64(0); i < n; i++ {
		slots = append(slots, block+HeaderSize+i*size)
	}
	s.h.stats.Carves.Inc()
	return slots, nil
}

// alloc reserves one slot able to hold payload bytes and stamps its
// mini-header (invalid). Returns the slot Ref.
func (s *smallAllocator) alloc(classID uint16, payload uint64) (Ref, error) {
	sc, ok := sizeClassFor(payload)
	if !ok {
		return 0, fmt.Errorf("heap: payload %d exceeds pool slot max %d", payload, SlotPayloadMax)
	}
	r, err := s.take(sc)
	if err != nil {
		return 0, err
	}
	s.h.pool.WriteUint64(r, packSlot(classID, false, sc, uint32(payload)))
	s.h.pool.Zero(r+8, uint64(SlotSizes[sc]-8))
	s.h.stats.SmallAllocs.Inc()
	return r, nil
}

// take pops a free slot of size class sc, carving a fresh chunk when the
// class has none. A carve that finds no block reclaims the EBR backlog and
// tries once more; the reclaim runs outside the class lock, since it
// frees slots of this class too.
func (s *smallAllocator) take(sc int) (Ref, error) {
	r, err := s.takeLocked(sc)
	if errors.Is(err, ErrOutOfMemory) && s.h.reclaimRetired() {
		r, err = s.takeLocked(sc)
	}
	return r, err
}

// takeLocked is take's body under the class lock. The unlock is deferred:
// carve stores to the pool, a store may panic (a fault plane may abandon
// the run there), and a panicking block's Abort frees into this class.
func (s *smallAllocator) takeLocked(sc int) (Ref, error) {
	c := &s.classes[sc]
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.free) == 0 {
		slots, err := s.carve(sc)
		if err != nil {
			return 0, err
		}
		c.free = slots
	}
	r := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return r, nil
}

// free returns the slot at r to its size class. With invalidate it
// zeroes and writes back the mini-header first; without, the header keeps
// the invalid state the caller already made durable.
func (s *smallAllocator) free(r Ref, invalidate bool) {
	hdr := s.h.pool.ReadUint64(r)
	sc := int(hdr>>slotSCShift) & 0xff
	if sc >= len(SlotSizes) {
		panic(fmt.Sprintf("heap: corrupt slot header %#x at %#x", hdr, r))
	}
	if invalidate {
		s.h.pool.WriteUint64(r, 0)
		s.h.pool.PWB(r)
		s.h.stats.FreeLines.Inc()
	}
	c := &s.classes[sc]
	c.mu.Lock()
	c.free = append(c.free, r)
	c.mu.Unlock()
	s.h.stats.SmallFrees.Inc()
}

// reset drops all volatile slot lists (used before recovery rebuilds them).
func (s *smallAllocator) reset() {
	for i := range s.classes {
		s.classes[i].mu.Lock()
		s.classes[i].free = nil
		s.classes[i].mu.Unlock()
	}
}

// AllocSmall allocates a pooled slot for an immutable object of classID
// with the given payload size. The slot is invalid until SetValid; its
// payload starts at Ref+8.
func (h *Heap) AllocSmall(classID uint16, payload uint64) (Ref, error) {
	return h.small.alloc(classID, payload)
}

// SlotPayloadLen returns the payload length recorded in a pooled slot's
// mini-header.
func (h *Heap) SlotPayloadLen(r Ref) uint64 {
	return uint64(slotLen(h.pool.ReadUint64(r)))
}

// FitsSmall reports whether a payload of the given size is eligible for
// pool allocation.
func FitsSmall(payload uint64) bool {
	_, ok := sizeClassFor(payload)
	return ok
}
