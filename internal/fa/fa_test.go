package fa

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// account is the test class: two 8-byte balances, one ref, and a plain
// third word.
type account struct{ *core.Object }

const (
	accA   = 0
	accB   = 8
	accRef = 16
	accC   = 24
	accLen = 32
)

func accountClass() *core.Class {
	return &core.Class{
		Name:    "fa.account",
		Factory: func(o *core.Object) core.PObject { return &account{Object: o} },
		Refs:    func(o *core.Object) []uint64 { return []uint64{accRef} },
	}
}

func openFA(t testing.TB, tracked bool) (*core.Heap, *Manager, *nvm.Pool, *core.Class) {
	t.Helper()
	pool := nvm.New(1<<21, nvm.Options{Tracked: tracked})
	return reopenFA(t, pool)
}

func reopenFA(t testing.TB, pool *nvm.Pool) (*core.Heap, *Manager, *nvm.Pool, *core.Class) {
	t.Helper()
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 4, LogSlotSize: 1 << 14},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, mgr, pool, cls
}

func newAccount(t testing.TB, h *core.Heap, cls *core.Class, a, b uint64, name string) *account {
	t.Helper()
	po, err := h.Alloc(cls, accLen)
	if err != nil {
		t.Fatal(err)
	}
	acc := po.(*account)
	acc.WriteUint64(accA, a)
	acc.WriteUint64(accB, b)
	acc.PWB()
	if err := h.Root().Put(name, acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestRunCommitsWrites(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 100, 0, "acc")
	err := mgr.Run(func(tx *Tx) error {
		if err := tx.WriteUint64(acc.Core(), accA, 60); err != nil {
			return err
		}
		if err := tx.WriteUint64(acc.Core(), accB, 40); err != nil {
			return err
		}
		// Read-your-writes inside the block.
		if v, _ := tx.ReadUint64(acc.Core(), accA); v != 60 {
			t.Errorf("tx read = %d, want 60", v)
		}
		// The original is untouched until commit.
		if acc.ReadUint64(accA) != 100 {
			t.Error("in-place data changed before commit")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.ReadUint64(accA) != 60 || acc.ReadUint64(accB) != 40 {
		t.Fatalf("committed values %d/%d", acc.ReadUint64(accA), acc.ReadUint64(accB))
	}
}

func TestErrorAborts(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 100, 0, "acc")
	sentinel := fmt.Errorf("boom")
	if err := mgr.Run(func(tx *Tx) error {
		if err := tx.WriteUint32(acc.Core(), accA, 1); err != nil {
			return err
		}
		return sentinel
	}); err != sentinel {
		t.Fatalf("err = %v", err)
	}
	if acc.ReadUint64(accA) != 100 {
		t.Fatal("aborted write leaked")
	}
	// The log slot must be recycled: the next block reuses the aborted
	// transaction, slot attached. (This test also checked that the aborted
	// block's in-flight copy went back to a transient pool; a store to a
	// valid block no longer takes a copy.)
	reused := mgr.ObsSnapshot().TxReuse
	if err := mgr.Run(func(tx *Tx) error {
		return tx.WriteUint32(acc.Core(), accA, 100)
	}); err != nil {
		t.Fatal(err)
	}
	if s := mgr.ObsSnapshot(); s.TxReuse != reused+1 || s.SlotsInUse != 0 {
		t.Fatalf("after an abort: %d warm reuses, %d slots in use; want %d, 0", s.TxReuse, s.SlotsInUse, reused+1)
	}
}

func TestPanicAbortsAndPropagates(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 100, 0, "acc")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		mgr.Run(func(tx *Tx) error {
			tx.WriteUint64(acc.Core(), accA, 1)
			panic("kaboom")
		})
	}()
	if acc.ReadUint64(accA) != 100 {
		t.Fatal("write from panicked block leaked")
	}
	_ = h
}

func TestAllocInsideBlock(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	parent := newAccount(t, h, cls, 1, 2, "parent")
	var childRef core.Ref
	err := mgr.Run(func(tx *Tx) error {
		po, err := tx.Alloc(cls, accLen)
		if err != nil {
			return err
		}
		childRef = po.Core().Ref()
		if err := tx.WriteUint64(po.Core(), accA, 777); err != nil {
			return err
		}
		return tx.WriteRef(parent.Core(), accRef, childRef)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mem().Valid(childRef) {
		t.Fatal("allocation not validated at commit")
	}
	if parent.ReadRef(accRef) != childRef {
		t.Fatal("link not committed")
	}
}

func TestAllocAbortReclaims(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	bumpedBefore, freeBefore, _ := h.Mem().Stats()
	mgr.Run(func(tx *Tx) error {
		if _, err := tx.Alloc(cls, accLen); err != nil {
			return err
		}
		return fmt.Errorf("abort")
	})
	bumpedAfter, freeAfter, _ := h.Mem().Stats()
	if bumpedAfter-bumpedBefore != freeAfter-freeBefore {
		t.Fatalf("aborted alloc leaked blocks: bump +%d, free +%d",
			bumpedAfter-bumpedBefore, freeAfter-freeBefore)
	}
}

// TestAbortFreesLoggedAllocations: Abort frees what the block's kindAlloc
// entries name, allocated by ref or by proxy, as a pooled slot or as a
// block, among logged words. Heap occupancy is back where it was, each
// proxy handed out is detached, and the next block reuses the freed slot
// and block.
func TestAbortFreesLoggedAllocations(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 1, 2, "acc")
	// Carve the slot class's chunk first: it stays with the class.
	if err := mgr.Run(func(tx *Tx) error {
		ref, err := tx.AllocRef(cls, accLen)
		if err != nil {
			return err
		}
		return tx.FreeRef(ref)
	}); err != nil {
		t.Fatal(err)
	}
	mgr.Retire()
	occupancy := func() [3]uint64 {
		s := h.Mem().ObsSnapshot()
		return [3]uint64{s.Bump - s.FreeBlocks, s.SmallAllocs - s.SmallFrees, s.ObjAllocs - s.ObjFrees}
	}
	before := occupancy()
	freed := map[core.Ref]bool{}
	var proxies []core.PObject
	abort := errors.New("abort")
	err := mgr.Run(func(tx *Tx) error {
		slot, err := tx.AllocRef(cls, accLen)
		if err != nil {
			return err
		}
		if err := tx.WriteUint64(acc.Core(), accA, 10); err != nil {
			return err
		}
		block, err := tx.AllocRef(cls, heap.Payload)
		if err != nil {
			return err
		}
		ps, err := tx.AllocSmall(cls, accLen)
		if err != nil {
			return err
		}
		pb, err := tx.Alloc(cls, accLen)
		if err != nil {
			return err
		}
		if err := tx.WriteUint64(acc.Core(), accB, 20); err != nil {
			return err
		}
		if h.Mem().IsBlockRef(slot) || !h.Mem().IsBlockRef(block) || h.Mem().IsBlockRef(ps.Core().Ref()) {
			t.Errorf("AllocRef(%d) gave %#x, AllocRef(%d) %#x: want a slot, then a block", accLen, slot, heap.Payload, block)
		}
		proxies = []core.PObject{ps, pb}
		for _, r := range []core.Ref{slot, block, ps.Core().Ref(), pb.Core().Ref()} {
			freed[r] = true
		}
		return abort
	})
	if err != abort {
		t.Fatal(err)
	}
	if got := occupancy(); got != before {
		t.Fatalf("occupancy (blocks, slots, objects) %v after the abort, want %v", got, before)
	}
	for i, po := range proxies {
		if po.Core().Ref() != 0 {
			t.Fatalf("proxy %d still holds %#x after the abort", i, po.Core().Ref())
		}
	}
	if a, b := acc.ReadUint64(accA), acc.ReadUint64(accB); a != 1 || b != 2 {
		t.Fatalf("aborted words landed: %d/%d, want 1/2", a, b)
	}
	if err := mgr.Run(func(tx *Tx) error {
		for _, size := range []uint64{accLen, heap.Payload} {
			ref, err := tx.AllocRef(cls, size)
			if err != nil {
				return err
			}
			if !freed[ref] {
				t.Errorf("the next block's AllocRef(%d) took %#x, not a ref the abort freed", size, ref)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeInsideBlock(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	parent := newAccount(t, h, cls, 1, 2, "parent")
	child := newAccount(t, h, cls, 3, 4, "child")
	h.Root().Remove("child")
	parent.Core().AtomicUpdateRef(accRef, child)
	childRef := child.Core().Ref()

	err := mgr.Run(func(tx *Tx) error {
		if err := tx.WriteRef(parent.Core(), accRef, 0); err != nil {
			return err
		}
		return tx.Free(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Mem().Valid(childRef) {
		t.Fatal("freed object still valid")
	}
	if parent.ReadRef(accRef) != 0 {
		t.Fatal("unlink not committed")
	}
	// Freed proxy is neutralized.
	if child.Core().Ref() != 0 {
		t.Fatal("freed proxy still holds its ref")
	}
}

func TestNesting(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 10, 0, "acc")
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.WriteUint64(acc.Core(), accA, 11)
	tx.Nest()
	tx.WriteUint64(acc.Core(), accB, 22)
	if err := tx.Commit(); err != nil { // inner: must not apply yet
		t.Fatal(err)
	}
	if acc.ReadUint64(accB) == 22 {
		t.Fatal("inner commit applied early")
	}
	if err := tx.Commit(); err != nil { // outer
		t.Fatal(err)
	}
	if acc.ReadUint64(accA) != 11 || acc.ReadUint64(accB) != 22 {
		t.Fatal("outer commit incomplete")
	}
}

func TestLogFull(t *testing.T) {
	pool := nvm.New(1<<22, nvm.Options{})
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 1, LogSlotSize: 128}, // ~4 entries
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.Run(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			if _, err := tx.Alloc(cls, accLen); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("oversized block accepted")
	}
	_ = h
}

func TestSlotExhaustion(t *testing.T) {
	_, mgr, _, _ := openFA(t, false)
	var txs []*Tx
	for {
		tx, err := mgr.Begin()
		if err != nil {
			break
		}
		txs = append(txs, tx)
	}
	if len(txs) != 4 {
		t.Fatalf("expected 4 slots, got %d", len(txs))
	}
	txs[0].Abort()
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatalf("slot not recycled: %v", err)
	}
	tx.Abort()
	for _, tx := range txs[1:] {
		tx.Abort()
	}
}

// transfer moves amount from balance A to balance B across two accounts.
func transfer(tx *Tx, from, to *account, amount uint64) error {
	fa, err := tx.ReadUint64(from.Core(), accA)
	if err != nil {
		return err
	}
	ta, err := tx.ReadUint64(to.Core(), accA)
	if err != nil {
		return err
	}
	if err := tx.WriteUint64(from.Core(), accA, fa-amount); err != nil {
		return err
	}
	return tx.WriteUint64(to.Core(), accA, ta+amount)
}

func TestCrashBeforeCommitMarkDropsBlock(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	from := newAccount(t, h, cls, 100, 0, "from")
	to := newAccount(t, h, cls, 50, 0, "to")
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := transfer(tx, from, to, 30); err != nil {
		t.Fatal(err)
	}
	tx.commitPrefix(1) // log flushed + fence, but no commit mark

	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	h2, _, _, _ := reopenFA(t, img)
	assertBalances(t, h2, 100, 50)
}

func TestCrashAfterCommitMarkReplays(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	from := newAccount(t, h, cls, 100, 0, "from")
	to := newAccount(t, h, cls, 50, 0, "to")
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := transfer(tx, from, to, 30); err != nil {
		t.Fatal(err)
	}
	tx.commitPrefix(2) // durable commit mark, apply never ran

	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	h2, _, _, _ := reopenFA(t, img)
	assertBalances(t, h2, 70, 80)
}

func TestCrashMidApplyReplays(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	from := newAccount(t, h, cls, 100, 0, "from")
	to := newAccount(t, h, cls, 50, 0, "to")
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := transfer(tx, from, to, 30); err != nil {
		t.Fatal(err)
	}
	tx.commitPrefix(3) // applied but unflushed, log still committed

	// Even under a strict crash the committed log replays the writes.
	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	h2, _, _, _ := reopenFA(t, img)
	assertBalances(t, h2, 70, 80)
}

func assertBalances(t *testing.T, h *core.Heap, wantFrom, wantTo uint64) {
	t.Helper()
	fromPO, err := h.Root().Get("from")
	if err != nil || fromPO == nil {
		t.Fatalf("from lost: %v", err)
	}
	toPO, err := h.Root().Get("to")
	if err != nil || toPO == nil {
		t.Fatalf("to lost: %v", err)
	}
	gf := fromPO.Core().ReadUint64(accA)
	gt := toPO.Core().ReadUint64(accA)
	if gf != wantFrom || gt != wantTo {
		t.Fatalf("balances %d/%d, want %d/%d", gf, gt, wantFrom, wantTo)
	}
}

// Property: money is conserved across randomized transfers crashed at
// arbitrary protocol stages under arbitrary crash policies.
func TestCrashAtomicityRandomized(t *testing.T) {
	const initial = 1000
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, mgr, pool, cls := openFA(t, true)
		a := newAccount(t, h, cls, initial, 0, "from")
		b := newAccount(t, h, cls, initial, 0, "to")

		// Random committed transfers first.
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			amount := uint64(rng.Intn(100))
			if err := mgr.Run(func(tx *Tx) error { return transfer(tx, a, b, amount) }); err != nil {
				t.Fatal(err)
			}
		}
		// One in-flight transfer crashed at a random stage.
		tx, err := mgr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := transfer(tx, a, b, uint64(rng.Intn(100))); err != nil {
			t.Fatal(err)
		}
		tx.commitPrefix(rng.Intn(5)) // 0..4

		policy := []nvm.CrashPolicy{nvm.CrashStrict, nvm.CrashAll, nvm.CrashRandom}[rng.Intn(3)]
		img := pool.CrashImage(policy, rng)
		h2, _, _, _ := reopenFA(t, img)
		fromPO, err := h2.Root().Get("from")
		if err != nil || fromPO == nil {
			t.Fatalf("seed %d: from lost: %v", seed, err)
		}
		toPO, err := h2.Root().Get("to")
		if err != nil || toPO == nil {
			t.Fatalf("seed %d: to lost: %v", seed, err)
		}
		sum := fromPO.Core().ReadUint64(accA) + toPO.Core().ReadUint64(accA)
		if sum != 2*initial {
			t.Fatalf("seed %d: money not conserved: %d (policy %v)", seed, sum, policy)
		}
	}
}

func TestRecoveredSlotReusable(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	acc := newAccount(t, h, cls, 5, 0, "acc")
	tx, _ := mgr.Begin()
	tx.WriteUint64(acc.Core(), accA, 6)
	tx.commitPrefix(2)

	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(9)))
	h2, mgr2, _, _ := reopenFA(t, img)
	// All slots must be idle again and usable.
	for i := 0; i < 8; i++ {
		if err := mgr2.Run(func(tx *Tx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	_ = h2
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	// 8 workers hammer disjoint account pairs through failure-atomic
	// blocks; the sum is invariant and no block/log state corrupts.
	pool := nvm.New(1<<22, nvm.Options{})
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 8, LogSlotSize: 1 << 14},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	accounts := make([]*account, 2*workers)
	for i := range accounts {
		po, err := h.Alloc(cls, accLen)
		if err != nil {
			t.Fatal(err)
		}
		acc := po.(*account)
		acc.WriteUint64(accA, 1000)
		acc.PWB()
		acc.Validate()
		if err := h.Root().Put(fmt.Sprintf("acc%d", i), acc); err != nil {
			t.Fatal(err)
		}
		accounts[i] = acc
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, b := accounts[2*w], accounts[2*w+1]
			for i := 0; i < 200; i++ {
				if err := mgr.Run(func(tx *Tx) error { return transfer(tx, a, b, 3) }); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var sum uint64
	for _, acc := range accounts {
		sum += acc.ReadUint64(accA)
	}
	if sum != uint64(len(accounts))*1000 {
		t.Fatalf("sum = %d", sum)
	}
	// And the heap survives a full recovery afterwards.
	h2, _, _, _ := reopenFA(t, pool)
	if h2.Root().Len() != len(accounts) {
		t.Fatalf("roots after recovery: %d", h2.Root().Len())
	}
}

func TestOnAbortHooks(t *testing.T) {
	_, mgr, _, _ := openFA(t, false)
	var events []string
	// Commit: Defer runs, OnAbort does not.
	err := mgr.Run(func(tx *Tx) error {
		tx.Defer(func() { events = append(events, "defer") })
		tx.OnAbort(func() { events = append(events, "abort") })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Abort: only OnAbort runs, in reverse order.
	mgr.Run(func(tx *Tx) error {
		tx.Defer(func() { events = append(events, "defer2") })
		tx.OnAbort(func() { events = append(events, "abort1") })
		tx.OnAbort(func() { events = append(events, "abort2") })
		return fmt.Errorf("fail")
	})
	want := []string{"defer", "abort2", "abort1"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestFreeThenCrashKeepsConsistency(t *testing.T) {
	// A committed block that freed an object keeps it freed across a
	// strict crash; an uncommitted one keeps it alive.
	h, mgr, pool, cls := openFA(t, true)
	keep := newAccount(t, h, cls, 1, 0, "keep")
	kill := newAccount(t, h, cls, 2, 0, "kill")
	_ = keep
	if err := mgr.Run(func(tx *Tx) error { return tx.Free(kill) }); err != nil {
		t.Fatal(err)
	}
	// Note: "kill" is still bound in the root map; recovery must nullify
	// the binding since the object is gone.
	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(2)))
	h2, _, _, _ := reopenFA(t, img)
	if po, _ := h2.Root().Get("kill"); po != nil {
		t.Fatal("freed object still reachable after crash")
	}
	if po, _ := h2.Root().Get("keep"); po == nil {
		t.Fatal("live object lost")
	}
}

// TestReplayRefusesCorruptEntries: a live slot holding an entry no commit
// logs — an unknown kind, a word entry aimed at the log area, a misaligned
// word, a block-copy entry — makes the audit and the open fail with an
// error naming the slot and the entry, and the open writes nothing to the
// pool: replay validates every entry before it applies any. The block-copy
// row replaces "a write whose in-flight ref is not a block": no build
// writes kind 1 any more, so a live one, whatever its refs, is refused.
func TestReplayRefusesCorruptEntries(t *testing.T) {
	cases := []struct {
		name        string
		kind, a, b  func(base uint64, orig core.Ref) uint64
		errContains string
	}{
		{"unknown kind", func(uint64, core.Ref) uint64 { return 9 }, nil, nil, "unknown kind 9"},
		{"word in the log area", func(uint64, core.Ref) uint64 { return kindWord },
			func(base uint64, _ core.Ref) uint64 { return base + slotCount }, nil, "word at"},
		{"misaligned word", func(uint64, core.Ref) uint64 { return kindWord },
			func(_ uint64, orig core.Ref) uint64 { return orig + 12 }, nil, "word at"},
		// Kind 1 with dirty lines 0 and 1 in bits 8..11, as an earlier
		// build wrote it, copying orig's own block over orig.
		{"block copy", func(uint64, core.Ref) uint64 { return kindCopy | 3<<8 },
			func(_ uint64, orig core.Ref) uint64 { return orig },
			func(_ uint64, orig core.Ref) uint64 { return orig }, "block-copy entry (kind 1)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, mgr, pool, cls := openFA(t, true)
			acc := newAccount(t, h, cls, 100, 0, "acc")
			tx, err := mgr.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.WriteUint32(acc.Core(), accA, 1); err != nil {
				t.Fatal(err)
			}
			base, orig := tx.base, acc.Core().Ref()
			tx.commitPrefix(2) // durable mark, so the slot is live
			img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
			eoff := base + slotEntries // the word entry, entry 0
			for i, f := range []func(uint64, core.Ref) uint64{c.kind, c.a, c.b} {
				if f != nil {
					img.WriteUint64(eoff+uint64(8*i), f(base, orig))
				}
			}
			want := fmt.Sprintf("slot %d (seq 1) entry 0: ", tx.slot)
			mem, err := heap.Open(img)
			if err != nil {
				t.Fatal(err)
			}
			if err := AuditCommittedSlots(mem); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), c.errContains) {
				t.Fatalf("audit: %v (want %q ... %q)", err, want, c.errContains)
			}
			bytesBefore := img.ReadBytes(0, img.Size())
			_, err = core.Open(img, core.Config{
				HeapOptions: heap.Options{LogSlots: 4, LogSlotSize: 1 << 14},
				Classes:     []*core.Class{accountClass()},
				LogHandler:  NewManager(),
			})
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), c.errContains) {
				t.Fatalf("open: %v (want %q ... %q)", err, want, c.errContains)
			}
			if !bytes.Equal(bytesBefore, img.ReadBytes(0, img.Size())) {
				t.Fatal("a refused open wrote to the pool")
			}
		})
	}
}
