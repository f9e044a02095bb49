package heap

import (
	"errors"
	"testing"
)

// TestEBRDefersFreesPastPinnedReaders: with EBR on, blocks and slots
// freed while a reader is pinned stay valid and off the free lists until
// the reader unpins, however deep the backlog grows (past ebrHighWater,
// so retiring writers yield too); ReclaimBarrier then frees them all.
func TestEBRDefersFreesPastPinnedReaders(t *testing.T) {
	h := newHeap(t, 4<<20)
	h.EnableEBR()
	slot := h.PinReader(7)
	if slot < 0 {
		t.Fatal("no reader slot")
	}
	refs := make([]Ref, 0, ebrHighWater+ebrBatch)
	for i := 0; i < cap(refs); i++ {
		var r Ref
		var err error
		if i%2 == 0 {
			r, _, err = h.AllocObject(1, 8)
		} else {
			r, err = h.AllocSmall(2, 32)
		}
		if err != nil {
			t.Fatal(err)
		}
		h.SetValid(r, true)
		refs = append(refs, r)
	}
	freeBlocks := h.FreeBlocks()
	for _, r := range refs {
		h.FreeObject(r)
	}
	for _, r := range refs {
		if !h.Valid(r) {
			t.Fatalf("%#x freed under a pinned reader", r)
		}
	}
	if got := h.FreeBlocks(); got != freeBlocks {
		t.Fatalf("free queue grew by %d under a pinned reader", got-freeBlocks)
	}
	h.UnpinReader(slot)
	h.ReclaimBarrier()
	for _, r := range refs {
		if h.Valid(r) {
			t.Fatalf("%#x still valid after the barrier", r)
		}
	}
	if got := h.FreeBlocks(); got != freeBlocks+len(refs)/2 {
		t.Fatalf("free queue grew by %d after the barrier, want %d", got-freeBlocks, len(refs)/2)
	}
}

// TestEBRChainedRetireReclaimsAtOnce: the backlog is counted in blocks,
// so a chained object retired with no reader pinned is back on the free
// queue before the next allocation, instead of waiting for ebrBatch more
// frees.
func TestEBRChainedRetireReclaimsAtOnce(t *testing.T) {
	h := newHeap(t, 4<<20)
	h.EnableEBR()
	r, blocks, err := h.AllocObject(1, 3*Payload)
	if err != nil {
		t.Fatal(err)
	}
	h.SetValid(r, true)
	free := h.FreeBlocks()
	h.FreeObject(r)
	if h.Valid(r) {
		t.Fatal("chained object still valid after its retire")
	}
	if got := h.FreeBlocks(); got != free+len(blocks) {
		t.Fatalf("free queue grew by %d, want the object's %d blocks", got-free, len(blocks))
	}
}

// TestEBRBacklogServesAFullArena: frees waiting in a backlog shorter than
// a batch are invisible to the free queue, so an allocator that finds the
// arena exhausted reclaims them before it reports ErrOutOfMemory — for a
// block object and for a pooled slot whose chunk must be carved.
func TestEBRBacklogServesAFullArena(t *testing.T) {
	h := newHeap(t, 1<<18)
	h.EnableEBR()
	// One carved chunk full of slots, then block objects until the
	// arena is exhausted.
	sc, _ := sizeClassFor(32)
	slots := make([]Ref, Payload/SlotSizes[sc])
	for i := range slots {
		r, err := h.AllocSmall(2, 32)
		if err != nil {
			t.Fatal(err)
		}
		h.SetValid(r, true)
		slots[i] = r
	}
	var objs []Ref
	for {
		r, _, err := h.AllocObject(1, 8)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		h.SetValid(r, true)
		objs = append(objs, r)
	}
	if len(objs) == 0 {
		t.Fatal("the arena held no block object")
	}
	if _, err := h.AllocSmall(2, 32); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("slot allocation on a full arena: %v, want ErrOutOfMemory", err)
	}
	h.FreeObject(objs[0])
	if n := h.FreeBlocks(); n != 0 {
		t.Fatalf("%d blocks on the free queue before the allocation", n)
	}
	if _, _, err := h.AllocObject(1, 8); err != nil {
		t.Fatalf("block allocation over a backlog of one free: %v", err)
	}
	h.FreeObject(slots[0])
	if _, err := h.AllocSmall(2, 32); err != nil {
		t.Fatalf("slot allocation over a backlog of one free: %v", err)
	}
	if _, _, err := h.AllocObject(1, 8); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("block allocation with nothing left: %v, want ErrOutOfMemory", err)
	}
	if _, err := h.AllocSmall(2, 32); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("slot allocation with nothing left: %v, want ErrOutOfMemory", err)
	}
}

// TestEBRFreeInvalidatedSkipsTheFence: a reclaim pass over objects whose
// invalidation a commit already made durable (fa's recycled frees)
// issues no fence and writes nothing, leaving each invalid header as it
// was; one FreeObject entry in the batch brings back the batch fence and
// that object's own invalidation, one line.
func TestEBRFreeInvalidatedSkipsTheFence(t *testing.T) {
	h := newHeap(t, 4<<20)
	h.EnableEBR()
	pool := h.Pool()
	for _, fenced := range []bool{false, true} {
		refs := make([]Ref, ebrBatch)
		for i := range refs {
			r, err := h.AllocSmall(2, 32)
			if err != nil {
				t.Fatal(err)
			}
			h.SetValid(r, true)
			refs[i] = r
		}
		// What fa's kindFree apply and W's fence do before fa recycles.
		for i, r := range refs {
			if !fenced || i > 0 {
				h.SetValid(r, false)
			}
		}
		pool.PFence()
		before, heapBefore := pool.Obs().Snapshot(), h.ObsSnapshot()
		for i, r := range refs {
			if fenced && i == 0 {
				h.FreeObject(r)
			} else {
				h.FreeInvalidated(r)
			}
		}
		d, hd := pool.Obs().Snapshot().Sub(before), h.ObsSnapshot().Sub(heapBefore)
		if hd.SmallFrees != ebrBatch {
			t.Fatalf("fenced=%v: a full batch reclaimed %d slots, want %d", fenced, hd.SmallFrees, ebrBatch)
		}
		want := uint64(0)
		if fenced {
			want = 1
		}
		if d.Fences() != want || d.PWBs != want || hd.FreeLines != want {
			t.Fatalf("fenced=%v: the reclaim pass issued %d fences, %d pwb (%d counted by the heap), want %d each",
				fenced, d.Fences(), d.PWBs, hd.FreeLines, want)
		}
		for i, r := range refs {
			hdr := pool.ReadUint64(r)
			if fenced && i == 0 {
				if hdr != 0 {
					t.Fatalf("the FreeObject slot's header is %#x, want 0", hdr)
				}
			} else if hdr == 0 || h.Valid(r) {
				t.Fatalf("fenced=%v: a FreeInvalidated slot's header is %#x, want its invalid header untouched", fenced, hdr)
			}
		}
	}
}
