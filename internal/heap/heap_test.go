package heap

import (
	"bytes"
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
	h, err := Format(good, Options{LogSlots: 4, LogSlotSize: 4096})
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

// TestOpenRefusesParentFormat: a version-1 pool (the log area under the
// committed-flag rule, no retired watermark) and a version-2 pool (a log
// whose replay knows no word entries) are each refused with an error that
// names both versions, before anything is written, and are not mistaken
// for an unformatted pool a caller may format over.
func TestOpenRefusesParentFormat(t *testing.T) {
	for _, v := range []uint64{1, 2} {
		pool := nvm.New(1<<20, nvm.Options{})
		if _, err := Format(pool, Options{LogSlots: 2, LogSlotSize: 4096}); err != nil {
			t.Fatal(err)
		}
		pool.WriteUint64(sbVersion, v)
		before := pool.ReadBytes(0, pool.Size())
		_, err := Open(pool)
		if err == nil || errors.Is(err, ErrNotFormatted) ||
			!strings.Contains(err.Error(), fmt.Sprintf("format version %d", v)) || !strings.Contains(err.Error(), "version 3") {
			t.Fatalf("version-%d pool: %v", v, err)
		}
		if !bytes.Equal(before, pool.ReadBytes(0, pool.Size())) {
			t.Fatalf("refusing a version-%d pool wrote to it", v)
		}
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

// TestAllocObjectAllocatesOnce: a block-object allocation makes one Go
// allocation, the slice of its block refs, and one that runs out of
// blocks part way gives the blocks it took back to the free queue.
func TestAllocObjectAllocatesOnce(t *testing.T) {
	h := newHeap(t, 1<<20)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := h.AllocObject(1, 3*Payload); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("%v Go allocations per AllocObject, want 1", n)
	}

	var held []Ref
	for {
		r, _, err := h.AllocObject(1, Payload)
		if errors.Is(err, ErrOutOfMemory) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}
	h.FreeObject(held[0])
	h.FreeObject(held[1])
	if _, _, err := h.AllocObject(1, 3*Payload); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("three blocks out of two free: %v", err)
	}
	if _, free, _ := h.Stats(); free != 2 {
		t.Fatalf("%d blocks free after the failed allocation, want 2", free)
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

// TestFormatPersistsWhatItZeroes: formatting over an old heap destroys
// its class table and log area in the durable image too, not only in the
// cache. A crash right after Format must not resurrect either.
func TestFormatPersistsWhatItZeroes(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{Tracked: true})
	opts := Options{LogSlots: 2, LogSlotSize: 4096}
	h, err := Format(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RegisterClass("demo.old"); err != nil {
		t.Fatal(err)
	}
	logOff, slots, slotSize := h.LogArea()
	for off := logOff; off < logOff+uint64(slots*slotSize); off += 512 {
		pool.WriteUint64(off, 0xdead0000|off)
	}
	pool.PWBRange(logOff, uint64(slots*slotSize))
	pool.PSync()

	if _, err := Format(pool, opts); err != nil {
		t.Fatal(err)
	}
	img := pool.CrashImage(nvm.CrashStrict, nil)
	h2, err := Open(img)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := h2.classByName["demo.old"]; ok {
		t.Fatalf("the old class came back as id %d", id)
	}
	if off := h2.classOff; !bytes.Equal(img.ReadBytes(off, logOff-off), make([]byte, logOff-off)) {
		t.Fatal("the old class table is durable after Format")
	}
	for off := logOff; off < h2.arenaOff; off += 8 {
		if w := img.ReadUint64(off); w != 0 {
			t.Fatalf("log area word at %#x is %#x after Format, want 0", off, w)
		}
	}
	if n := len(pool.CaptureCrashState().Pending()); n != 0 {
		t.Fatalf("Format left %d lines pending", n)
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
	if id, ok := h2.classByName["demo.A"]; !ok || id != idA {
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

// TestMarkSetDense: the mark set is one 16-bit mask per block. The first
// MarkObject of an object wins and every later one reports it seen — for
// a three-block chain and for each of the ten slots of a 24-byte chunk —
// and Marked and the highest index count blocks, not objects. CheckRef
// accepts exactly the slot boundaries whose bit the mask has room for.
func TestMarkSetDense(t *testing.T) {
	n := Payload / SlotSizes[0]
	if 1<<n > blockMarked {
		t.Fatalf("a %d-byte chunk holds %d slots, more than the bits below the block bit", SlotSizes[0], n)
	}
	h := newHeap(t, 1<<20)
	chain, blocks, err := h.AllocObject(1, 3*Payload)
	if err != nil {
		t.Fatal(err)
	}
	slot, err := h.AllocSmall(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	chunk := h.ContainingBlock(slot)
	cidx := h.BlockIndex(chunk)

	m := h.NewMarkSet()
	if !m.MarkObject(chain) || m.MarkObject(chain) {
		t.Fatal("a chain is marked new exactly once")
	}
	for _, b := range blocks {
		if m.masks[h.BlockIndex(b)] != blockMarked {
			t.Fatalf("chain block %#x mask %#x", b, m.masks[h.BlockIndex(b)])
		}
	}
	if m.Marked() != 3 {
		t.Fatalf("Marked = %d after a three-block chain", m.Marked())
	}
	for s := 0; s < n; s++ {
		r := chunk + HeaderSize + uint64(s*SlotSizes[0])
		if err := h.CheckRef(r); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if !m.MarkObject(r) || m.MarkObject(r) {
			t.Fatalf("slot %d is marked new exactly once", s)
		}
		if want := uint16(blockMarked | (1<<(s+1) - 1)); m.masks[cidx] != want {
			t.Fatalf("after slot %d the chunk's mask is %#x, want %#x", s, m.masks[cidx], want)
		}
	}
	if m.Marked() != 4 || m.maxIdx != max(cidx, h.BlockIndex(blocks[2])) {
		t.Fatalf("Marked = %d, max index %d: want 4 and %d", m.Marked(), m.maxIdx, max(cidx, h.BlockIndex(blocks[2])))
	}
	for _, r := range []Ref{chunk, chunk + HeaderSize + uint64(n*SlotSizes[0]), chunk + HeaderSize + 8, chunk + 4, chain + HeaderSize} {
		if h.CheckRef(r) == nil {
			t.Fatalf("CheckRef accepted %#x, which names no object", r)
		}
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

// TestFreeQueueRoundTrip frees a run of blocks and checks that nothing is
// lost, that the queue is LIFO (the last block freed is the next one
// allocated) and that the bump pointer serves only once the queue is
// empty.
func TestFreeQueueRoundTrip(t *testing.T) {
	h, err := Format(nvm.New(1<<21, nvm.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 53
	idxs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		r, err := h.AllocRaw()
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, h.BlockIndex(r))
	}
	bump := h.Bump()
	for _, idx := range idxs {
		h.FreeRaw(h.BlockRef(idx))
	}
	if got := h.FreeBlocks(); got != n {
		t.Fatalf("free queue holds %d blocks after the frees, want %d", got, n)
	}
	for i := n - 1; i >= 0; i-- {
		r, err := h.AllocRaw()
		if err != nil {
			t.Fatal(err)
		}
		if got := h.BlockIndex(r); got != idxs[i] {
			t.Fatalf("allocation %d took block %d, want %d (the last one freed)", n-1-i, got, idxs[i])
		}
	}
	if got := h.FreeBlocks(); got != 0 || h.Bump() != bump {
		t.Fatalf("after the round trip: %d blocks queued, bump %d; want 0 and %d", got, h.Bump(), bump)
	}
	r, err := h.AllocRaw()
	if err != nil {
		t.Fatal(err)
	}
	if h.BlockIndex(r) != bump || h.Bump() != bump+1 || h.Pool().ReadUint64(sbBump) != bump+1 {
		t.Fatalf("an empty queue bumped block %d to bump %d, mirror %d; want %d, %d, %d",
			h.BlockIndex(r), h.Bump(), h.Pool().ReadUint64(sbBump), bump, bump+1, bump+1)
	}
}
