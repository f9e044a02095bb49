package heap

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/nvm"
)

func newHeap(t testing.TB, size int) *Heap {
	t.Helper()
	h, err := Format(nvm.New(size, nvm.Options{}), Options{LogSlots: 2, LogSlotSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeaderPacking(t *testing.T) {
	cases := []struct {
		id    uint16
		valid bool
		next  uint64
	}{
		{0, false, 0},
		{1, true, 0},
		{0x7ffe, true, nextMask},
		{42, false, 123456},
	}
	for _, c := range cases {
		id, v, n := UnpackHeader(PackHeader(c.id, c.valid, c.next))
		if id != c.id || v != c.valid || n != c.next {
			t.Fatalf("pack/unpack(%v) = %d %v %d", c, id, v, n)
		}
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(id uint16, valid bool, next uint64) bool {
		id &= 0x7fff
		next &= nextMask
		i2, v2, n2 := UnpackHeader(PackHeader(id, valid, next))
		return i2 == id && v2 == valid && n2 == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatOpenRoundTrip(t *testing.T) {
	pool := nvm.New(1<<23, nvm.Options{})
	h, err := Format(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.NBlocks() == 0 {
		t.Fatal("no arena blocks")
	}
	h2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NBlocks() != h.NBlocks() {
		t.Fatalf("reopen geometry mismatch: %d vs %d", h2.NBlocks(), h.NBlocks())
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(nvm.New(1<<16, nvm.Options{})); err == nil {
		t.Fatal("opened an unformatted pool")
	}
	if _, err := Open(nvm.New(16, nvm.Options{})); err == nil {
		t.Fatal("opened a tiny pool")
	}
}

// TestOpenRejectsCorruptSuperblock perturbs each superblock word of a valid
// image in turn — an off-by-a-little, an off-by-a-lot and a wrapped value —
// and requires Open to answer every one with an error: none may reach a
// pool access (which would panic) or yield a heap with impossible
// geometry. Only a pool without the magic word reads as unformatted.
func TestOpenRejectsCorruptSuperblock(t *testing.T) {
	good := nvm.New(1<<20, nvm.Options{})
	h, err := Format(good, Options{LogSlots: 4, LogSlotSize: 4096, PoolIndex: 1, PoolCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A live log: slot 2 carries sequence number 5, W is 3.
	_, slots, slotSize := h.LogArea()
	good.WriteUint64(h.logOff+2*uint64(slotSize)+LogSlotSeq, 5)
	h.SetLogRetired(3)
	if _, err := Open(good); err != nil {
		t.Fatalf("valid image refused: %v", err)
	}
	image := good.ReadBytes(0, good.Size())

	huge := ^uint64(0)
	words := []struct {
		name string
		off  uint64
		bad  []uint64
	}{
		{"magic", sbMagic, []uint64{0, magic + 1}},
		{"version", sbVersion, []uint64{0, 1, FormatVersion + 1, huge}},
		{"pool size", sbPoolSize, []uint64{0, good.Size() - 1, good.Size() * 2, huge}},
		{"block size", sbBlockSize, []uint64{0, 64, 512, huge}},
		{"bump", sbBump, []uint64{h.nBlocks + 1, huge}},
		{"class table offset", sbClassOff, []uint64{0, superblockSize - 64, h.classOff + 64, good.Size(), huge}},
		{"arena offset", sbArenaOff, []uint64{0, h.arenaOff - BlockSize, h.arenaOff + 1, h.arenaOff + BlockSize, good.Size(), huge}},
		{"block count", sbNBlocks, []uint64{0, h.nBlocks - 1, h.nBlocks + 1, huge}},
		{"root ref", sbRootRef, []uint64{1, h.arenaOff + 8, h.arenaOff + h.nBlocks*BlockSize, huge}},
		{"log offset", sbLogOff, []uint64{0, h.logOff - 64, h.logOff + 8, h.logOff + 64, good.Size(), huge}},
		{"log slots", sbLogSlots, []uint64{0, uint64(slots) + 1, 1 << 40, huge}},
		{"log slot size", sbLogSlotSize, []uint64{0, 8, 4096 + 8, 8192, huge, huge &^ 63}},
		{"pool index", sbPoolIndex, []uint64{3, 7, huge}},
		{"pool count", sbPoolCount, []uint64{0, 1}},
		{"retired watermark", sbLogRetired, []uint64{6, huge}},
	}
	for _, w := range words {
		for _, v := range w.bad {
			pool := nvm.New(int(good.Size()), nvm.Options{})
			pool.WriteBytes(0, image)
			pool.WriteUint64(w.off, v)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s = %#x: Open panicked: %v", w.name, v, r)
					}
				}()
				_, err := Open(pool)
				if err == nil {
					t.Errorf("%s = %#x: Open accepted the image", w.name, v)
				}
				if (w.off == sbMagic) != errors.Is(err, ErrNotFormatted) {
					t.Errorf("%s = %#x: error %v; only a missing magic word reads as unformatted", w.name, v, err)
				}
			}()
		}
	}
}

// TestOpenRefusesParentFormat: a version-1 pool — the log area under the
// committed-flag rule, no retired watermark — is refused with an error that
// names both versions, and is not mistaken for an unformatted pool a
// caller may format over.
func TestOpenRefusesParentFormat(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	if _, err := Format(pool, Options{LogSlots: 2, LogSlotSize: 4096}); err != nil {
		t.Fatal(err)
	}
	pool.WriteUint64(sbVersion, 1)
	_, err := Open(pool)
	if err == nil || errors.Is(err, ErrNotFormatted) ||
		!strings.Contains(err.Error(), "format version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-1 pool: %v", err)
	}
}

func TestFormatTooSmall(t *testing.T) {
	if _, err := Format(nvm.New(8192, nvm.Options{}), Options{}); err == nil {
		t.Fatal("formatted a pool smaller than its metadata")
	}
}

func TestAllocObjectChainsBlocks(t *testing.T) {
	h := newHeap(t, 1<<20)
	master, blocks, err := h.AllocObject(7, 3*Payload+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("want 4 blocks, got %d", len(blocks))
	}
	if got := h.Blocks(master); len(got) != 4 {
		t.Fatalf("chain walk found %d blocks", len(got))
	}
	id, valid, _ := UnpackHeader(h.Header(master))
	if id != 7 || valid {
		t.Fatalf("master header: id=%d valid=%v", id, valid)
	}
	for _, b := range blocks[1:] {
		id, valid, _ := UnpackHeader(h.Header(b))
		if id != 0 || valid {
			t.Fatalf("slave header: id=%d valid=%v", id, valid)
		}
	}
}

func TestAllocZeroesPayload(t *testing.T) {
	h := newHeap(t, 1<<20)
	master, blocks, err := h.AllocObject(1, Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty it, free it, realloc: payload must come back zeroed.
	h.Pool().WriteBytes(master+HeaderSize, []byte("junk"))
	h.FreeObject(master)
	m2, _, err := h.AllocObject(2, Payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range h.Blocks(m2) {
		for _, x := range h.Pool().ReadBytes(b+HeaderSize, Payload) {
			if x != 0 {
				t.Fatal("realloc saw stale payload")
			}
		}
	}
	_ = blocks
}

func TestValidateInvalidate(t *testing.T) {
	h := newHeap(t, 1<<20)
	master, _, err := h.AllocObject(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if h.Valid(master) {
		t.Fatal("fresh object must be invalid")
	}
	h.SetValid(master, true)
	if !h.Valid(master) {
		t.Fatal("SetValid(true) did not stick")
	}
	if h.ClassOf(master) != 3 {
		t.Fatalf("class lost: %d", h.ClassOf(master))
	}
	h.SetValid(master, false)
	if h.Valid(master) {
		t.Fatal("SetValid(false) did not stick")
	}
	if h.Valid(0) {
		t.Fatal("null ref must be invalid")
	}
}

func TestFreeObjectRecyclesBlocks(t *testing.T) {
	h := newHeap(t, 1<<20)
	master, blocks, err := h.AllocObject(1, 2*Payload)
	if err != nil {
		t.Fatal(err)
	}
	before := h.FreeBlocks()
	h.FreeObject(master)
	if got := h.FreeBlocks(); got != before+len(blocks) {
		t.Fatalf("free queue grew by %d, want %d", got-before, len(blocks))
	}
	if h.Valid(master) {
		t.Fatal("freed master still valid")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := newHeap(t, 1<<17)
	var masters []Ref
	for {
		m, _, err := h.AllocObject(1, Payload)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("wrong error: %v", err)
			}
			break
		}
		masters = append(masters, m)
	}
	if len(masters) == 0 {
		t.Fatal("no allocations before OOM")
	}
	// Freeing makes room again.
	h.FreeObject(masters[0])
	if _, _, err := h.AllocObject(1, Payload); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestMultiBlockAllocRollbackOnOOM(t *testing.T) {
	h := newHeap(t, 1<<17)
	// Exhaust all but one block.
	for {
		if _, _, err := h.AllocObject(1, Payload); err != nil {
			break
		}
	}
	h.FreeObject(h.BlockRef(0)) // free exactly one block (index 0 was a master)
	free := h.FreeBlocks()
	if _, _, err := h.AllocObject(1, 5*Payload); err == nil {
		t.Fatal("5-block alloc should fail")
	}
	if h.FreeBlocks() != free {
		t.Fatalf("failed alloc leaked blocks: %d -> %d", free, h.FreeBlocks())
	}
}

func TestClassTablePersists(t *testing.T) {
	pool := nvm.New(1<<23, nvm.Options{})
	h, err := Format(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idA, err := h.RegisterClass("demo.A")
	if err != nil {
		t.Fatal(err)
	}
	idB, err := h.RegisterClass("demo.B")
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Fatal("distinct classes share an id")
	}
	if again, _ := h.RegisterClass("demo.A"); again != idA {
		t.Fatal("re-registration changed the id")
	}

	h2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := h2.ClassID("demo.A"); !ok || id != idA {
		t.Fatalf("class demo.A lost across reopen: %d %v", id, ok)
	}
	if name, ok := h2.ClassName(idB); !ok || name != "demo.B" {
		t.Fatalf("class name lookup: %q %v", name, ok)
	}
	if _, ok := h2.ClassName(999); ok {
		t.Fatal("resolved an unregistered id")
	}
}

func TestClassTableRejectsBadNames(t *testing.T) {
	h := newHeap(t, 1<<20)
	if _, err := h.RegisterClass(""); err == nil {
		t.Fatal("empty name accepted")
	}
	long := make([]byte, classNameMax+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := h.RegisterClass(string(long)); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestRootRefRoundTrip(t *testing.T) {
	h := newHeap(t, 1<<20)
	if h.RootRef() != 0 {
		t.Fatal("fresh heap has a root")
	}
	master, _, _ := h.AllocObject(1, 8)
	h.SetRootRef(master)
	if h.RootRef() != master {
		t.Fatal("root ref lost")
	}
}

func TestSmallAllocPacksSlots(t *testing.T) {
	h := newHeap(t, 1<<20)
	bumpedBefore, _, _ := h.Stats()
	var refs []Ref
	for i := 0; i < 10; i++ {
		r, err := h.AllocSmall(5, 16)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	bumpedAfter, _, _ := h.Stats()
	if bumpedAfter-bumpedBefore > 2 {
		t.Fatalf("10 x 16B objects consumed %d blocks; pooling broken", bumpedAfter-bumpedBefore)
	}
	seen := map[Ref]bool{}
	for _, r := range refs {
		if seen[r] {
			t.Fatal("duplicate slot handed out")
		}
		seen[r] = true
		if h.IsBlockRef(r) {
			t.Fatal("pooled ref is block aligned")
		}
		if h.ClassOf(r) != 5 {
			t.Fatalf("slot class = %d", h.ClassOf(r))
		}
		if h.Valid(r) {
			t.Fatal("fresh slot valid")
		}
		h.SetValid(r, true)
		if !h.Valid(r) {
			t.Fatal("slot validate failed")
		}
		if h.SlotPayloadLen(r) != 16 {
			t.Fatalf("slot len = %d", h.SlotPayloadLen(r))
		}
	}
}

func TestSmallAllocFreeReuse(t *testing.T) {
	h := newHeap(t, 1<<20)
	r, err := h.AllocSmall(5, 32)
	if err != nil {
		t.Fatal(err)
	}
	h.SetValid(r, true)
	h.FreeObject(r)
	if h.Valid(r) {
		t.Fatal("freed slot still valid")
	}
	r2, err := h.AllocSmall(6, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r {
		t.Fatalf("slot not reused: %#x vs %#x", r2, r)
	}
}

func TestSmallAllocTooBigFallsOut(t *testing.T) {
	if FitsSmall(SlotPayloadMax) != true {
		t.Fatal("max payload should fit")
	}
	if FitsSmall(SlotPayloadMax + 1) {
		t.Fatal("oversized payload should not fit")
	}
	h := newHeap(t, 1<<20)
	if _, err := h.AllocSmall(1, SlotPayloadMax+1); err == nil {
		t.Fatal("oversized small alloc accepted")
	}
}

func TestMarkAndSweepReclaimsUnreachable(t *testing.T) {
	h := newHeap(t, 1<<20)
	live, _, _ := h.AllocObject(1, 2*Payload)
	h.SetValid(live, true)
	dead, _, _ := h.AllocObject(1, Payload)
	h.SetValid(dead, true)

	m := h.NewMarkSet()
	if !m.MarkObject(live) {
		t.Fatal("first mark should report new")
	}
	if m.MarkObject(live) {
		t.Fatal("second mark should report seen")
	}
	h.Sweep(m)

	if h.Header(dead) != 0 {
		t.Fatal("dead master header not cleared")
	}
	if !h.Valid(live) {
		t.Fatal("sweep damaged live object")
	}
	// All dead blocks are allocatable again.
	if _, _, err := h.AllocObject(1, Payload); err != nil {
		t.Fatal(err)
	}
}

func TestSweepShrinksBump(t *testing.T) {
	h := newHeap(t, 1<<20)
	live, _, _ := h.AllocObject(1, 8)
	h.SetValid(live, true)
	for i := 0; i < 50; i++ {
		h.AllocObject(1, 8)
	}
	m := h.NewMarkSet()
	m.MarkObject(live)
	h.Sweep(m)
	if b := h.Bump(); b != h.BlockIndex(live)+1 {
		t.Fatalf("bump = %d, want %d", b, h.BlockIndex(live)+1)
	}
}

func TestSweepReclaimsDeadSlots(t *testing.T) {
	h := newHeap(t, 1<<20)
	liveSlot, _ := h.AllocSmall(5, 16)
	h.SetValid(liveSlot, true)
	deadSlot, _ := h.AllocSmall(5, 16)
	h.SetValid(deadSlot, true)

	m := h.NewMarkSet()
	if !m.MarkObject(liveSlot) {
		t.Fatal("slot mark should be new")
	}
	if m.MarkObject(liveSlot) {
		t.Fatal("slot re-mark should be seen")
	}
	h.Sweep(m)

	if h.Valid(deadSlot) {
		t.Fatal("dead slot survived sweep")
	}
	if !h.Valid(liveSlot) {
		t.Fatal("live slot damaged by sweep")
	}
	// Dead slot must be reusable.
	r, err := h.AllocSmall(9, 16)
	if err != nil {
		t.Fatal(err)
	}
	if h.ContainingBlock(r) != h.ContainingBlock(liveSlot) {
		t.Fatal("sweep did not rebuild the slot free list for the live chunk")
	}
}

func TestSweepFreesEmptyChunks(t *testing.T) {
	h := newHeap(t, 1<<20)
	s, _ := h.AllocSmall(5, 16)
	chunk := h.ContainingBlock(s)
	m := h.NewMarkSet() // nothing live
	h.Sweep(m)
	if h.Header(chunk) != 0 {
		t.Fatal("empty chunk header not cleared")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	h := newHeap(t, 1<<22)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []Ref
			for i := 0; i < 200; i++ {
				m, _, err := h.AllocObject(1, Payload*2)
				if err != nil {
					errCh <- err
					return
				}
				mine = append(mine, m)
				if i%3 == 0 {
					h.FreeObject(mine[0])
					mine = mine[1:]
				}
			}
			for _, m := range mine {
				h.FreeObject(m)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	bumped, free, _ := h.Stats()
	if uint64(free) != bumped {
		t.Fatalf("leak: bumped %d blocks but only %d free", bumped, free)
	}
}

// Property: however objects are allocated and freed, no block is ever
// handed to two live objects.
func TestQuickNoDoubleAllocation(t *testing.T) {
	f := func(sizes []uint16, frees []uint8) bool {
		h := newHeap(t, 1<<20)
		owned := map[uint64]int{} // block index -> owner object seq
		var masters []Ref
		seq := 0
		for i, s := range sizes {
			if len(masters) > 0 && i < len(frees) && frees[i]%3 == 0 {
				victim := int(frees[i]) % len(masters)
				m := masters[victim]
				if m != 0 {
					for _, b := range h.Blocks(m) {
						delete(owned, h.BlockIndex(b))
					}
					h.FreeObject(m)
					masters[victim] = 0
				}
			}
			m, blocks, err := h.AllocObject(1, uint64(s%2048)+1)
			if err != nil {
				return true // OOM is acceptable
			}
			seq++
			for _, b := range blocks {
				idx := h.BlockIndex(b)
				if _, taken := owned[idx]; taken {
					return false
				}
				owned[idx] = seq
			}
			masters = append(masters, m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, Payload: 1, Payload + 1: 2, 10 * Payload: 10}
	for size, want := range cases {
		if got := BlocksFor(size); got != want {
			t.Fatalf("BlocksFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestInternalFragmentationAccounting(t *testing.T) {
	// §5.3.5: with 10 fields of 100 B, headers + internal fragmentation
	// cost ~21.2% per record; with 10 KB fields it drops to ~9.4%. Model a
	// YCSB record as one contiguous chained object holding the 10 field
	// values (this is how store.Record lays them out) and check the
	// overhead ballpark: (raw blocks - user bytes) / raw blocks.
	frag := func(fieldSize uint64) float64 {
		user := 10 * fieldSize
		raw := uint64(BlocksFor(user)) * BlockSize
		return float64(raw-user) / float64(raw)
	}
	small := frag(100)
	large := frag(10 * 1024)
	if small < 0.15 || small > 0.30 {
		t.Fatalf("100B-field fragmentation %.3f outside the paper's ~21%% band", small)
	}
	if large > small {
		t.Fatalf("fragmentation should shrink with field size: %.3f -> %.3f", small, large)
	}
	if large > 0.15 {
		t.Fatalf("10KB-field fragmentation %.3f too high", large)
	}
	fmt.Printf("fragmentation: 100B fields %.1f%%, 10KB fields %.1f%%\n", small*100, large*100)
}
