package heap

import "testing"

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
