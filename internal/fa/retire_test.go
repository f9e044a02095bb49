package fa

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// openSlots is openFA with a chosen slot count.
func openSlots(t testing.TB, pool *nvm.Pool, slots int) (*core.Heap, *Manager, *core.Class) {
	t.Helper()
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: slots, LogSlotSize: 1 << 14},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, mgr, cls
}

// TestReplayBySeqNotBySlot: two live logs write one block, the older
// commit in the higher slot. Replay by slot index would apply the newer
// first and end on the older image (1/10); replay by sequence number ends
// on the newer.
func TestReplayBySeqNotBySlot(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	acc := newAccount(t, h, cls, 100, 0, "from")
	newAccount(t, h, cls, 50, 0, "to")

	newer, err := mgr.Begin() // slot 0
	if err != nil {
		t.Fatal(err)
	}
	older, err := mgr.Begin() // slot 1
	if err != nil {
		t.Fatal(err)
	}
	if older.slot <= newer.slot {
		t.Fatalf("slots %d, %d: test premise (descending index order) broken", older.slot, newer.slot)
	}
	older.WriteUint64(acc.Core(), accA, 1)
	older.WriteUint64(acc.Core(), accB, 10)
	newer.WriteUint64(acc.Core(), accA, 2)
	older.commitPrefix(4) // committed and parked

	// The newer commit up to its durable mark, with W held back: fence
	// number 0 covers nothing, so both logs stay live.
	q := &mgr.retire
	newer.commitStage1Body()
	pool.PFence()
	q.advance(h.Mem(), 0, newer, nil)
	newer.commitMarkBody()
	pool.PFence()

	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	mem, err := heap.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, live := LiveSlots(mem); len(live) != 2 || live[0].Index != older.slot || live[1].Index != newer.slot {
		t.Fatalf("live slots %+v, want slot %d then slot %d", live, older.slot, newer.slot)
	}
	h2, _, _, _ := reopenFA(t, img)
	if n := h2.RecoveryObs().ReplayedTx.Load(); n != 2 {
		t.Fatalf("replayed %d logs, want 2", n)
	}
	// Both commits logged words: the newer one's accA over the older
	// one's accB, which the newer commit never wrote.
	po, _ := h2.Root().Get("from")
	if a, b := po.Core().ReadUint64(accA), po.Core().ReadUint64(accB); a != 2 || b != 10 {
		t.Fatalf("recovered %d/%d: logs replayed out of commit order (want 2/10)", a, b)
	}
}

// TestSlotWithheldUntilWDurable: a slot comes back from Begin only once a
// W at or above its old mark is durable, whether retirement rode on later
// commits' fences (2 slots) or Begin had to force it (1 slot). A crash
// right after the slot's next owner has logged fresh entries under the
// stale mark therefore replays nothing.
func TestSlotWithheldUntilWDurable(t *testing.T) {
	for _, slots := range []int{1, 2} {
		pool := nvm.New(1<<21, nvm.Options{Tracked: true})
		h, mgr, cls := openSlots(t, pool, slots)
		acc := newAccount(t, h, cls, 0, 0, "acc")
		strict := func() *nvm.Pool { return pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1))) }
		for i := uint64(1); i <= 6; i++ {
			tx, err := mgr.Begin()
			if err != nil {
				t.Fatalf("%d slots, commit %d: %v", slots, i, err)
			}
			mem, err := heap.Open(strict())
			if err != nil {
				t.Fatal(err)
			}
			if w, mark := mem.LogRetired(), mem.Pool().ReadUint64(tx.base+slotStatus); mark > w {
				t.Fatalf("%d slots, commit %d: slot %d handed out with durable mark %d above durable W %d", slots, i, tx.slot, mark, w)
			}
			if err := tx.WriteUint64(acc.Core(), accA, i); err != nil {
				t.Fatal(err)
			}
			if i == 6 {
				tx.commitPrefix(1) // fresh entries and count durable, no mark
				break
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		img := pool.CrashImage(nvm.CrashAll, rand.New(rand.NewSource(1)))
		h2, _, _ := openSlots(t, img, slots)
		// At most the last returned commit is still live; the sixth block's
		// entries sit under a mark W covers and must not replay.
		if n := h2.RecoveryObs().ReplayedTx.Load(); n > 1 {
			t.Fatalf("%d slots: replayed %d logs", slots, n)
		}
		po, _ := h2.Root().Get("acc")
		if v := po.Core().ReadUint64(accA); v != 5 {
			t.Fatalf("%d slots: recovered %d, want 5 (the uncommitted sixth block replayed?)", slots, v)
		}
	}
}

// TestRetireRecyclesEverything: after Retire nothing is parked, the slot
// cache holds every used slot again, W covers the last commit durably and
// a restart replays nothing.
func TestRetireRecyclesEverything(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	acc := newAccount(t, h, cls, 0, 0, "acc")
	for i := uint64(1); i <= 3; i++ {
		if err := mgr.Run(func(tx *Tx) error { return tx.WriteUint64(acc.Core(), accA, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if mgr.retire.parked.Load() == 0 {
		t.Fatal("nothing parked after a commit: test premise broken")
	}
	mgr.Retire()
	if p := mgr.retire.parked.Load(); p != 0 {
		t.Fatalf("after Retire: %d commits parked", p)
	}
	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	h2, _, _, _ := reopenFA(t, img)
	if n := h2.RecoveryObs().ReplayedTx.Load(); n != 0 {
		t.Fatalf("restart after Retire replayed %d logs", n)
	}
	po, _ := h2.Root().Get("acc")
	if v := po.Core().ReadUint64(accA); v != 3 {
		t.Fatalf("recovered %d, want 3", v)
	}
}

// TestAllocForcesRetirement: a block that allocates finds the arena
// exhausted while the blocks it needs are only parked with the previous
// commit's frees. Alloc must force their retirement and succeed; the loop
// fits only if every commit's frees recycle before the next allocation.
func TestAllocForcesRetirement(t *testing.T) {
	const objBlocks = 8
	h, mgr, _, cls := openFA(t, false)
	holder := newAccount(t, h, cls, 0, 0, "holder")
	var cur core.PObject
	if err := mgr.Run(func(tx *Tx) (err error) {
		if cur, err = tx.Alloc(cls, objBlocks*heap.Payload); err != nil {
			return err
		}
		return tx.WriteObject(holder.Core(), accRef, cur)
	}); err != nil {
		t.Fatal(err)
	}
	mgr.Retire()
	// Leave room for two objects and a spare block: the live object, its
	// replacement — and nothing for a third generation.
	mem := h.Mem()
	for {
		bumped, free, total := mem.Stats()
		if total-bumped+free <= objBlocks+3 {
			break
		}
		if _, err := mem.AllocRaw(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		err := mgr.Run(func(tx *Tx) error {
			next, err := tx.Alloc(cls, objBlocks*heap.Payload)
			if err != nil {
				return err
			}
			if err := tx.WriteObject(holder.Core(), accRef, next); err != nil {
				return err
			}
			old := cur
			cur = next
			return tx.Free(old)
		})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

// TestCommittersOnAllSlots: as many concurrent committers as there are
// slots. Each committer's previous commit may still be parked when it
// begins the next, so Begin regularly finds no free slot; it must force
// retirement and go on, never report "no free log slot" and never hang.
func TestCommittersOnAllSlots(t *testing.T) {
	const workers, commits = 64, 60
	pool := nvm.New(1<<22, nvm.Options{})
	h, mgr, cls := openSlots(t, pool, workers)
	accs := make([]*account, workers)
	for i := range accs {
		accs[i] = newAccount(t, h, cls, 0, 0, "acc")
	}
	var wg sync.WaitGroup
	for _, acc := range accs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				if err := mgr.Run(func(tx *Tx) error {
					v, err := tx.ReadUint64(acc.Core(), accA)
					if err != nil {
						return err
					}
					return tx.WriteUint64(acc.Core(), accA, v+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, acc := range accs {
		if got := acc.ReadUint64(accA); got != commits {
			t.Fatalf("worker %d: %d commits took effect, want %d", i, got, commits)
		}
	}
	mgr.Retire()
	if snap := mgr.ObsSnapshot(); snap.SlotsInUse != 0 {
		t.Fatalf("%d slots still in use", snap.SlotsInUse)
	}
}

// TestFreedSlotStaysDeadAfterCrash: a free's kindFree apply writes back
// the freed object's one invalidation, and reclaiming the object writes
// nothing more. A pooled object freed by a committed block, retired by W
// and reclaimed with EBR on keeps an invalid, non-zero mini-header; a
// crash that drops every unflushed line must not bring it back, under the
// graph traversal and the header scan alike. fsck accepts the image
// before and after recovery, and the sweep of the slot's chunk, live
// through a neighbour slot, zeroes the stale header.
func TestFreedSlotStaysDeadAfterCrash(t *testing.T) {
	for _, skipGraph := range []bool{false, true} {
		pool := nvm.New(1<<21, nvm.Options{Tracked: true})
		h, mgr, cls := openSlots(t, pool, 4)
		h.Mem().EnableEBR()
		acc := newAccount(t, h, cls, 0, 0, "acc")
		var kept, freed core.Ref
		if err := mgr.Run(func(tx *Tx) error {
			var err error
			if kept, err = tx.AllocRef(cls, accLen); err != nil {
				return err
			}
			if freed, err = tx.AllocRef(cls, accLen); err != nil {
				return err
			}
			if err := tx.WriteRef(acc.Core(), accRef, kept); err != nil {
				return err
			}
			return tx.WriteRef(acc.Core(), accC, freed)
		}); err != nil {
			t.Fatal(err)
		}
		mem := h.Mem()
		if mem.IsBlockRef(freed) || mem.ContainingBlock(freed) != mem.ContainingBlock(kept) {
			t.Fatalf("want two slots of one pool chunk, got %#x and %#x", kept, freed)
		}
		if err := mgr.Run(func(tx *Tx) error {
			if err := tx.WriteUint64(acc.Core(), accC, 0); err != nil {
				return err
			}
			return tx.FreeRef(freed)
		}); err != nil {
			t.Fatal(err)
		}
		mgr.Retire()
		mem.ReclaimBarrier()
		if frees := mem.ObsSnapshot().SmallFrees; frees != 1 {
			t.Fatalf("%d slots reclaimed, want the freed one", frees)
		}
		if hdr := pool.ReadUint64(freed); hdr == 0 || mem.Valid(freed) {
			t.Fatalf("reclaimed slot header %#x, want the invalid header the apply wrote", hdr)
		}

		img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
		attached, err := heap.Open(img)
		if err != nil {
			t.Fatal(err)
		}
		if hdr := img.ReadUint64(freed); hdr == 0 || attached.Valid(freed) {
			t.Fatalf("skipGraph=%v: crash image slot header %#x, want the durable invalid header", skipGraph, hdr)
		}
		if n := attached.Fsck(func(msg string) { t.Log(msg) }); n != 0 {
			t.Fatalf("skipGraph=%v: fsck found %d issues in the crash image", skipGraph, n)
		}
		h2, err := core.Open(img, core.Config{
			HeapOptions: heap.Options{LogSlots: 4, LogSlotSize: 1 << 14},
			Classes:     []*core.Class{cls},
			LogHandler:  NewManager(),
			SkipGraphGC: skipGraph,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !h2.Mem().Valid(kept) || h2.Mem().Valid(freed) {
			t.Fatalf("skipGraph=%v: after recovery kept valid %v, freed valid %v", skipGraph, h2.Mem().Valid(kept), h2.Mem().Valid(freed))
		}
		if hdr := img.ReadUint64(freed); hdr != 0 {
			t.Fatalf("skipGraph=%v: the sweep left the freed slot's header %#x", skipGraph, hdr)
		}
		if n := h2.Fsck(func(msg string) { t.Log(msg) }); n != 0 {
			t.Fatalf("skipGraph=%v: fsck found %d issues after recovery", skipGraph, n)
		}
	}
}
