package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/nvm"
)

// simple is the test persistent class, the analogue of Figure 3's Simple:
// x at offset 0, a reference at offset 8, and a transient field.
type simple struct {
	*Object
	resurrected bool // transient
}

const (
	simpleX   = 0
	simpleRef = 8
	simpleLen = 16
)

func (s *simple) OnResurrect() { s.resurrected = true }

func (s *simple) X() int64      { return s.ReadInt64(simpleX) }
func (s *simple) SetX(v int64)  { s.WriteInt64(simpleX, v) }
func (s *simple) Next() Ref     { return s.ReadRef(simpleRef) }
func (s *simple) SetNext(r Ref) { s.WriteRef(simpleRef, r) }

func simpleClass() *Class {
	return &Class{
		Name:    "test.simple",
		Factory: func(o *Object) PObject { return &simple{Object: o} },
		Refs:    func(o *Object) []uint64 { return []uint64{simpleRef} },
	}
}

func testCfg(classes ...*Class) Config {
	return Config{
		HeapOptions: heap.Options{LogSlots: 2, LogSlotSize: 4096},
		Classes:     classes,
	}
}

func openTestHeap(t testing.TB, size int, tracked bool) (*Heap, *nvm.Pool, *Class) {
	t.Helper()
	pool := nvm.New(size, nvm.Options{Tracked: tracked})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	return h, pool, cls
}

// newSimple allocates, initializes, flushes and validates a simple object
// — the generated-constructor discipline of Figure 4 minus the fence.
func newSimple(t testing.TB, h *Heap, cls *Class, x int64) *simple {
	t.Helper()
	po, err := h.Alloc(cls, simpleLen)
	if err != nil {
		t.Fatal(err)
	}
	s := po.(*simple)
	s.SetX(x)
	s.PWB()
	s.Validate()
	return s
}

func TestOpenFormatsFreshPool(t *testing.T) {
	h, _, _ := openTestHeap(t, 1<<20, false)
	if !h.RecoveryStats.Formatted {
		t.Fatal("fresh pool not formatted")
	}
	if h.Root() == nil {
		t.Fatal("no root map")
	}
	if h.Root().Len() != 0 {
		t.Fatal("fresh root map not empty")
	}
}

// TestOpenNeverFormatsOverAHeap: a pool that holds a heap this build
// refuses (another format version: word 1 of the superblock) comes back
// as an error with its bytes untouched; only a pool without a heap is
// formatted.
func TestOpenNeverFormatsOverAHeap(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Root().Put("simple", newSimple(t, h, cls, 42)); err != nil {
		t.Fatal(err)
	}
	pool.WriteUint64(8, 1) // the parent's format version
	before := pool.ReadBytes(0, pool.Size())
	if _, err := Open(pool, testCfg(simpleClass())); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("version-1 pool: Open returned %v", err)
	}
	if !bytes.Equal(before, pool.ReadBytes(0, pool.Size())) {
		t.Fatal("Open wrote to a pool it refused")
	}
}

func TestPutGetAcrossReopen(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	s := newSimple(t, h, cls, 42)
	if err := h.Root().Put("simple", s); err != nil {
		t.Fatal(err)
	}

	cls2 := simpleClass()
	h2, err := Open(pool, testCfg(cls2))
	if err != nil {
		t.Fatal(err)
	}
	if h2.RecoveryStats.Formatted {
		t.Fatal("reopen reformatted the pool")
	}
	po, err := h2.Root().Get("simple")
	if err != nil {
		t.Fatal(err)
	}
	got := po.(*simple)
	if got.X() != 42 {
		t.Fatalf("x = %d, want 42", got.X())
	}
	if !got.resurrected {
		t.Fatal("OnResurrect was not called")
	}
}

func TestFieldAccessorsAndSpanning(t *testing.T) {
	h, _, _ := openTestHeap(t, 1<<20, false)
	big := &Class{Name: "test.big", Factory: func(o *Object) PObject { return o }}
	if err := h.register(big); err != nil {
		t.Fatal(err)
	}
	po, err := h.Alloc(big, 3*heap.Payload)
	if err != nil {
		t.Fatal(err)
	}
	o := po.Core()
	// Primitive at every block boundary region.
	offsets := []uint64{0, heap.Payload - 8, heap.Payload, 2*heap.Payload - 16, 2 * heap.Payload}
	for i, off := range offsets {
		o.WriteUint64(off, uint64(i)*0x0101010101010101+7)
	}
	for i, off := range offsets {
		if got := o.ReadUint64(off); got != uint64(i)*0x0101010101010101+7 {
			t.Fatalf("u64 at %d: got %#x", off, got)
		}
	}
	// Unaligned spanning write/read.
	o.WriteUint64(heap.Payload-3, 0xdeadbeefcafebabe)
	if got := o.ReadUint64(heap.Payload - 3); got != 0xdeadbeefcafebabe {
		t.Fatalf("spanning u64: got %#x", got)
	}
	o.WriteUint32(heap.Payload-2, 0xfeedface)
	if got := o.ReadUint32(heap.Payload - 2); got != 0xfeedface {
		t.Fatalf("spanning u32: got %#x", got)
	}
	// Bulk bytes spanning several blocks.
	blob := make([]byte, 2*heap.Payload+17)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	o.WriteBytes(5, blob[:len(blob)-6])
	got := o.ReadBytes(5, uint64(len(blob)-6))
	for i := range got {
		if got[i] != blob[i] {
			t.Fatalf("blob[%d] = %#x, want %#x", i, got[i], blob[i])
		}
	}
	// Signed round trip.
	o.WriteInt64(16, -12345)
	if o.ReadInt64(16) != -12345 {
		t.Fatal("int64 sign lost")
	}
	o.WriteUint8(3, 0xab)
	if o.ReadUint8(3) != 0xab {
		t.Fatal("u8 round trip")
	}
}

func TestAccessBeyondSizePanics(t *testing.T) {
	h, _, cls := openTestHeap(t, 1<<20, false)
	s := newSimple(t, h, cls, 1)
	size := s.Core().Size()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ReadUint64(size - 4)
}

func TestFreeInvalidatesProxy(t *testing.T) {
	h, _, cls := openTestHeap(t, 1<<20, false)
	s := newSimple(t, h, cls, 1)
	h.Free(s)
	if s.Core().Ref() != 0 {
		t.Fatal("freed proxy keeps its ref")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access through freed proxy must panic")
		}
	}()
	s.X()
}

func TestDoubleFreeIsNoop(t *testing.T) {
	h, _, cls := openTestHeap(t, 1<<20, false)
	s := newSimple(t, h, cls, 1)
	h.Free(s)
	h.Free(s) // second free: harmless
	h.Free(nil)
}

func TestResurrectUnregisteredClassFails(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	s := newSimple(t, h, cls, 9)
	h.PSync()
	ref := s.Core().Ref()

	// Reopen without registering the class: recovery cannot traverse it
	// once reachable, and resurrection must fail when unreachable.
	if err := h.Root().Put("s", s); err != nil {
		t.Fatal(err)
	}
	_, err = Open(pool, testCfg())
	if err == nil {
		t.Fatal("recovery should reject reachable instances of unregistered classes")
	}
	_ = ref
}

func TestRecoveryDeletesUnreachable(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	kept := newSimple(t, h, cls, 1)
	if err := h.Root().Put("kept", kept); err != nil {
		t.Fatal(err)
	}
	// Leaked: validated and fenced but never reachable.
	leaked := newSimple(t, h, cls, 2)
	h.PSync()
	leakedRef := leaked.Core().Ref()

	cls2 := simpleClass()
	h2, err := Open(pool, testCfg(cls2))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Mem().Valid(leakedRef) {
		t.Fatal("unreachable object survived recovery")
	}
	if !h2.Root().Exists("kept") {
		t.Fatal("reachable object lost")
	}
	assertHeapConsistent(t, h2)
}

func TestRecoveryNullifiesRefsToInvalid(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	parent := newSimple(t, h, cls, 1)
	// Child is made reachable but never validated: the "partially deleted
	// or never published" case of §2.4.
	childPO, err := h.Alloc(cls, simpleLen)
	if err != nil {
		t.Fatal(err)
	}
	child := childPO.(*simple)
	child.SetX(99)
	child.PWB() // flushed but not validated
	parent.SetNext(child.Core().Ref())
	parent.PWBField(simpleRef, 8)
	if err := h.Root().Put("parent", parent); err != nil {
		t.Fatal(err)
	}

	cls2 := simpleClass()
	h2, err := Open(pool, testCfg(cls2))
	if err != nil {
		t.Fatal(err)
	}
	po, err := h2.Root().Get("parent")
	if err != nil {
		t.Fatal(err)
	}
	if got := po.(*simple).Next(); got != 0 {
		t.Fatalf("ref to invalid object not nullified: %#x", got)
	}
	if h2.RecoveryStats.NullifiedRefs != 1 {
		t.Fatalf("NullifiedRefs = %d", h2.RecoveryStats.NullifiedRefs)
	}
	assertHeapConsistent(t, h2)
}

func TestAtomicUpdateRefPublishesValidated(t *testing.T) {
	h, _, cls := openTestHeap(t, 1<<20, false)
	parent := newSimple(t, h, cls, 1)
	childPO, _ := h.Alloc(cls, simpleLen)
	child := childPO.(*simple)
	child.SetX(5)
	child.PWB()
	parent.Core().AtomicUpdateRef(simpleRef, child)
	if !child.Valid() {
		t.Fatal("AtomicUpdateRef did not validate the new object")
	}
	if parent.Next() != child.Core().Ref() {
		t.Fatal("ref not written")
	}
	parent.Core().AtomicUpdateRef(simpleRef, nil)
	if parent.Next() != 0 {
		t.Fatal("nil update did not clear")
	}
}

func TestAtomicReplaceRefFreesOld(t *testing.T) {
	h, _, cls := openTestHeap(t, 1<<20, false)
	parent := newSimple(t, h, cls, 1)
	a := newSimple(t, h, cls, 10)
	parent.Core().AtomicUpdateRef(simpleRef, a)
	aRef := a.Core().Ref()
	b := newSimple(t, h, cls, 20)
	parent.Core().AtomicReplaceRef(simpleRef, b)
	if parent.Next() != b.Core().Ref() {
		t.Fatal("replace did not swing the ref")
	}
	if h.Mem().Valid(aRef) {
		t.Fatal("old object not freed")
	}
}

func TestRootMapGrowsAndRemoves(t *testing.T) {
	pool := nvm.New(1<<22, nvm.Options{})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300 // forces several growths past the 64-slot initial array
	for i := 0; i < n; i++ {
		s := newSimple(t, h, cls, int64(i))
		if err := h.Root().Put(fmt.Sprintf("obj-%03d", i), s); err != nil {
			t.Fatal(err)
		}
	}
	if h.Root().Len() != n {
		t.Fatalf("Len = %d", h.Root().Len())
	}
	if h.Root().slotsCap() < n {
		t.Fatal("root array did not grow")
	}
	// Remove a third.
	for i := 0; i < n; i += 3 {
		name := fmt.Sprintf("obj-%03d", i)
		ref := h.Root().Remove(name)
		if ref == 0 {
			t.Fatalf("remove %s returned 0", name)
		}
		h.Mem().FreeObject(ref)
		h.PSync()
	}
	if h.Root().Remove("missing") != 0 {
		t.Fatal("removing a missing name should return 0")
	}

	cls2 := simpleClass()
	h2, err := Open(pool, testCfg(cls2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("obj-%03d", i)
		want := i%3 != 0
		if h2.Root().Exists(name) != want {
			t.Fatalf("after reopen, Exists(%s) = %v, want %v", name, !want, want)
		}
		if want {
			po, err := h2.Root().Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if po.(*simple).X() != int64(i) {
				t.Fatalf("%s holds x=%d", name, po.(*simple).X())
			}
		}
	}
	if got := len(h2.Root().Names()); got != n-(n+2)/3 {
		t.Fatalf("Names() = %d entries", got)
	}
	assertHeapConsistent(t, h2)
}

func TestLowLevelBatchPublish(t *testing.T) {
	// The Figure 5 scenario on a tracked pool: two objects (each with a
	// sub-object) published with a single fence. Crash before the fence
	// drops everything; crash after keeps everything.
	pool := nvm.New(1<<20, nvm.Options{Tracked: true})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	build := func(name string, x int64) *simple {
		po, _ := h.Alloc(cls, simpleLen)
		s := po.(*simple)
		s.SetX(x)
		subPO, _ := h.Alloc(cls, simpleLen)
		sub := subPO.(*simple)
		sub.SetX(x * 10)
		sub.PWB()
		sub.Validate() // no fence
		s.SetNext(sub.Core().Ref())
		s.PWB()
		if err := h.Root().WPut(name, s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := build("a", 1)
	b := build("b", 2)

	// Crash before the fence: nothing was published.
	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	h2, err := Open(img, testCfg(simpleClass()))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Root().Exists("a") || h2.Root().Exists("b") {
		t.Fatal("unfenced roots survived the crash")
	}
	assertHeapConsistent(t, h2)

	// The single fence + validations of Figure 5.
	h.PFence()
	a.Validate()
	b.Validate()
	h.PSync() // make the validations durable

	img = pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(2)))
	h3, err := Open(img, testCfg(simpleClass()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		po, err := h3.Root().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if po == nil {
			t.Fatalf("root %s lost after fenced publish", name)
		}
		s := po.(*simple)
		subPO, err := s.ReadObject(simpleRef)
		if err != nil {
			t.Fatal(err)
		}
		if subPO == nil {
			t.Fatalf("sub-object of %s lost", name)
		}
		if subPO.(*simple).X() != s.X()*10 {
			t.Fatalf("sub-object of %s corrupt", name)
		}
	}
	assertHeapConsistent(t, h3)
}

func TestSkipGraphGCRecovery(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{Tracked: true})
	cls := simpleClass()
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	s := newSimple(t, h, cls, 7)
	if err := h.Root().Put("s", s); err != nil {
		t.Fatal(err)
	}
	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(3)))
	cfg := testCfg(simpleClass())
	cfg.SkipGraphGC = true
	h2, err := Open(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h2.RecoveryStats.GraphTraversed {
		t.Fatal("scan recovery traversed the graph")
	}
	po, err := h2.Root().Get("s")
	if err != nil || po == nil {
		t.Fatalf("scan recovery lost the root: %v %v", po, err)
	}
	if po.(*simple).X() != 7 {
		t.Fatal("data corrupt after scan recovery")
	}
}

func TestRecoverHookRuns(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	recovered := 0
	cls := &Class{
		Name: "test.hooked",
		Factory: func(o *Object) PObject {
			return &hooked{Object: o, onRecover: func() { recovered++ }}
		},
	}
	h, err := Open(pool, testCfg(cls))
	if err != nil {
		t.Fatal(err)
	}
	po, _ := h.Alloc(cls, 8)
	po.Core().PWB()
	po.Core().Validate()
	if err := h.Root().Put("x", po); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pool, Config{Classes: []*Class{cls}}); err != nil {
		t.Fatal(err)
	}
	if recovered != 1 {
		t.Fatalf("Recover hook ran %d times, want 1", recovered)
	}
}

type hooked struct {
	*Object
	onRecover func()
}

func (h *hooked) Recover() { h.onRecover() }

// assertHeapConsistent checks the no-lost-blocks invariant: every arena
// block below the bump pointer is either in the free queue or part of a
// live (valid) object chain / pool chunk.
func assertHeapConsistent(t *testing.T, h *Heap) {
	t.Helper()
	mem := h.Mem()
	bumped, free, _ := mem.Stats()
	liveBlocks := uint64(0)
	seen := map[uint64]bool{}
	for idx := uint64(0); idx < bumped; idx++ {
		r := mem.BlockRef(idx)
		if seen[idx] {
			continue
		}
		id, valid, _ := heap.UnpackHeader(mem.Header(r))
		if id == heap.PoolChunkClass && valid {
			liveBlocks++
			seen[idx] = true
			continue
		}
		if id != 0 && valid {
			for _, b := range mem.Blocks(r) {
				bi := mem.BlockIndex(b)
				if seen[bi] {
					t.Fatalf("block %d owned twice", bi)
				}
				seen[bi] = true
				liveBlocks++
			}
		}
	}
	if bumped != free+liveBlocks {
		t.Fatalf("block accounting: bumped=%d free=%d live=%d", bumped, free, liveBlocks)
	}
}

// Property-style crash test: a random workload of allocations, links,
// publishes and frees is crashed at a random point under a random policy;
// after recovery every reachable object is valid and block accounting
// holds.
func TestCrashRecoveryRandomWorkload(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := nvm.New(1<<20, nvm.Options{Tracked: true})
			cls := simpleClass()
			h, err := Open(pool, testCfg(cls))
			if err != nil {
				t.Fatal(err)
			}
			var published []string
			steps := 20 + rng.Intn(40)
			for i := 0; i < steps; i++ {
				switch rng.Intn(4) {
				case 0, 1: // durable publish
					s := newSimple(t, h, cls, int64(i))
					name := fmt.Sprintf("n%d", i)
					if err := h.Root().Put(name, s); err != nil {
						t.Fatal(err)
					}
					published = append(published, name)
				case 2: // weak publish, maybe never fenced
					s := newSimple(t, h, cls, int64(i))
					if err := h.Root().WPut(fmt.Sprintf("w%d", i), s); err != nil {
						t.Fatal(err)
					}
				case 3: // remove + free
					if len(published) > 0 {
						name := published[0]
						published = published[1:]
						if ref := h.Root().Remove(name); ref != 0 {
							h.Mem().FreeObject(ref)
						}
						h.PSync()
					}
				}
			}
			policy := []nvm.CrashPolicy{nvm.CrashStrict, nvm.CrashAll, nvm.CrashRandom}[rng.Intn(3)]
			img := pool.CrashImage(policy, rng)
			h2, err := Open(img, testCfg(simpleClass()))
			if err != nil {
				t.Fatal(err)
			}
			// Every durably published (and not removed) binding must be intact.
			for _, name := range published {
				po, err := h2.Root().Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if po == nil {
					t.Fatalf("durable root %s lost (policy %v)", name, policy)
				}
			}
			// Every reachable object must be valid.
			h2.Root().ForEach(func(name string, ref Ref) {
				if ref != 0 && !h2.Mem().Valid(ref) {
					t.Fatalf("reachable object %s invalid after recovery", name)
				}
			})
			assertHeapConsistent(t, h2)
		})
	}
}
