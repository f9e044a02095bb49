package fa

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// runDeterministicWorkload drives a fixed mixed workload — transfers,
// allocations, frees — through the manager, single-goroutine, so two runs
// under different commit modes perform the same logical operations.
func runDeterministicWorkload(t *testing.T, h *core.Heap, mgr *Manager, cls *core.Class) {
	t.Helper()
	a := newAccount(t, h, cls, 1000, 0, "from")
	b := newAccount(t, h, cls, 1000, 0, "to")
	rng := rand.New(rand.NewSource(42))
	var extras []*account
	for i := 0; i < 60; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			amount := uint64(rng.Intn(50))
			if err := mgr.Run(func(tx *Tx) error { return transfer(tx, a, b, amount) }); err != nil {
				t.Fatal(err)
			}
		case 2:
			err := mgr.Run(func(tx *Tx) error {
				po, err := tx.Alloc(cls, accLen)
				if err != nil {
					return err
				}
				extras = append(extras, po.(*account))
				return tx.WriteUint64(po.Core(), accA, uint64(i))
			})
			if err != nil {
				t.Fatal(err)
			}
		case 3:
			if len(extras) == 0 {
				continue
			}
			victim := extras[len(extras)-1]
			extras = extras[:len(extras)-1]
			if err := mgr.Run(func(tx *Tx) error { return tx.Free(victim) }); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGroupCommitSyncBitIdentical is the satellite-4 equivalence oracle:
// the same single-goroutine workload, run per-Tx and under sync group
// commit, must leave bit-identical pool images (the group path performs
// the same stores in the same order, only the barriers are shared) and
// identical allocator state after recovery.
func TestGroupCommitSyncBitIdentical(t *testing.T) {
	run := func(mode CommitMode) (*nvm.Pool, *core.Heap) {
		pool := nvm.New(1<<21, nvm.Options{})
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
		if err := mgr.SetGroupCommit(GroupOptions{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		runDeterministicWorkload(t, h, mgr, cls)
		return pool, h
	}

	perTx, hPer := run(CommitPerTx)
	grouped, hGrp := run(CommitGroup)

	if pb, gb := perTx.View(0, perTx.Size()), grouped.View(0, grouped.Size()); string(pb) != string(gb) {
		for i := range pb {
			if pb[i] != gb[i] {
				t.Fatalf("pool images diverge at offset %#x: per-tx %#x, group %#x", i, pb[i], gb[i])
			}
		}
	}
	pb1, pf1, _ := hPer.Mem().Stats()
	gb1, gf1, _ := hGrp.Mem().Stats()
	if pb1 != gb1 || pf1 != gf1 {
		t.Fatalf("allocator state diverges: per-tx (bump %d, free %d), group (bump %d, free %d)", pb1, pf1, gb1, gf1)
	}

	// Both recover to identical states too.
	h2p, _, _, _ := reopenFA(t, perTx)
	h2g, _, _, _ := reopenFA(t, grouped)
	if string(perTx.View(0, perTx.Size())) != string(grouped.View(0, grouped.Size())) {
		t.Fatal("recovered pool images diverge")
	}
	if h2p.Root().Len() != h2g.Root().Len() {
		t.Fatalf("recovered roots: per-tx %d, group %d", h2p.Root().Len(), h2g.Root().Len())
	}
}

// TestGroupCommitAsyncEquivalent checks the async pipeline against the
// per-Tx oracle at the semantic level (async reorders stage interleaving
// across the batch, so raw log-area bytes may differ): same committed
// values, same allocator occupancy, clean recovery.
func TestGroupCommitAsyncEquivalent(t *testing.T) {
	run := func(mode CommitMode) (*nvm.Pool, *core.Heap, *Manager) {
		pool := nvm.New(1<<21, nvm.Options{})
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
		if err := mgr.SetGroupCommit(GroupOptions{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		runDeterministicWorkload(t, h, mgr, cls)
		if mode == CommitAsync {
			mgr.DrainDurable()
		}
		return pool, h, mgr
	}

	perTx, _, _ := run(CommitPerTx)
	asyncPool, _, amgr := run(CommitAsync)

	if w, i := amgr.DurableWatermark(), amgr.IssuedTickets(); w != i {
		t.Fatalf("watermark %d behind issued %d after DrainDurable", w, i)
	}

	h2p, _, _, _ := reopenFA(t, perTx)
	h2a, _, _, _ := reopenFA(t, asyncPool)
	for _, name := range []string{"from", "to"} {
		pp, err := h2p.Root().Get(name)
		if err != nil || pp == nil {
			t.Fatalf("per-tx %q lost: %v", name, err)
		}
		ap, err := h2a.Root().Get(name)
		if err != nil || ap == nil {
			t.Fatalf("async %q lost: %v", name, err)
		}
		if pv, av := pp.Core().ReadUint64(accA), ap.Core().ReadUint64(accA); pv != av {
			t.Fatalf("%q: per-tx %d, async %d", name, pv, av)
		}
	}
	pBump, pFree, _ := h2p.Mem().Stats()
	aBump, aFree, _ := h2a.Mem().Stats()
	if pBump-pFree != aBump-aFree {
		t.Fatalf("live blocks diverge: per-tx %d, async %d", pBump-pFree, aBump-aFree)
	}
}

// TestGroupCommitConcurrent stress-tests sync group commit: 8 workers on
// disjoint account pairs, run under -race in CI. Money is conserved and
// fences are actually combined. The pool simulates PMEM-like fence
// latency so barriers overlap the way they do on hardware — with
// zero-cost fences the combining window is empty and nothing would
// overlap.
func TestGroupCommitConcurrent(t *testing.T) {
	pool := nvm.New(1<<22, nvm.Options{FenceLatency: 500})
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 16, LogSlotSize: 1 << 14},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitGroup}); err != nil {
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
	snap := mgr.ObsSnapshot()
	if snap.CombinedFences == 0 {
		t.Fatal("no fences were combined across 1600 concurrent commits")
	}
	h2, _, _, _ := reopenFA(t, pool)
	if h2.Root().Len() != len(accounts) {
		t.Fatalf("roots after recovery: %d", h2.Root().Len())
	}
}

// TestGroupCommitAsyncConcurrent stress-tests the async pipeline with
// automatic batch-pressure drains (16 log slots: the queue drains itself
// at 8, one commit per worker) and per-worker AwaitDurable calls; run
// under -race in CI.
func TestGroupCommitAsyncConcurrent(t *testing.T) {
	pool := nvm.New(1<<22, nvm.Options{})
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 16, LogSlotSize: 1 << 14},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitAsync}); err != nil {
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
				tx, err := mgr.Begin()
				if err != nil {
					errCh <- err
					return
				}
				if err := transfer(tx, a, b, 3); err != nil {
					tx.Abort()
					errCh <- err
					return
				}
				ticket, err := tx.CommitTicket()
				if err != nil {
					errCh <- err
					return
				}
				if i%17 == 0 {
					mgr.AwaitDurable(ticket)
					if mgr.DurableWatermark() < ticket {
						errCh <- fmt.Errorf("worker %d: watermark below awaited ticket %d", w, ticket)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	mgr.DrainDurable()
	var sum uint64
	for _, acc := range accounts {
		sum += acc.ReadUint64(accA)
	}
	if sum != uint64(len(accounts))*1000 {
		t.Fatalf("sum = %d", sum)
	}
	snap := mgr.ObsSnapshot()
	if snap.Epochs == 0 || snap.EpochTxs < snap.Epochs {
		t.Fatalf("epoch accounting: %d epochs, %d txs", snap.Epochs, snap.EpochTxs)
	}
	if snap.AsyncCommits != workers*200 {
		t.Fatalf("async commits = %d, want %d", snap.AsyncCommits, workers*200)
	}
	h2, _, _, _ := reopenFA(t, pool)
	if h2.Root().Len() != len(accounts) {
		t.Fatalf("roots after recovery: %d", h2.Root().Len())
	}
}

// TestGroupCommitAsyncConflictDrains pins the waitClear guard: a block
// touching (even just reading) data held by a queued async commit drains
// the epoch first, so it observes the queued update instead of forking
// history from the stale original.
func TestGroupCommitAsyncConflictDrains(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitAsync, ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")

	tx1, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.WriteUint64(acc.Core(), accA, 150); err != nil {
		t.Fatal(err)
	}
	ticket, err := tx1.CommitTicket()
	if err != nil {
		t.Fatal(err)
	}
	if ticket == 0 {
		t.Fatal("async commit returned no ticket")
	}
	if mgr.DurableWatermark() != 0 {
		t.Fatal("watermark advanced before any drain")
	}
	// Non-transactional readers see the pre-epoch state (bounded
	// staleness, documented); a transactional reader must not.
	if v := acc.ReadUint64(accA); v != 100 {
		t.Fatalf("direct read = %d, want stale 100 before drain", v)
	}
	var seen uint64
	if err := mgr.Run(func(tx *Tx) error {
		v, err := tx.ReadUint64(acc.Core(), accA)
		seen = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 150 {
		t.Fatalf("transactional read = %d, want 150 (conflict must drain the queue)", seen)
	}
	if mgr.DurableWatermark() < ticket {
		t.Fatal("conflict drain did not advance the watermark")
	}
}

// TestCrashWhileParked crashes a commit that has returned but is not
// retired: parked with its apply written back and unfenced (stage 4), and
// with W stored over it but unfenced (stage 5). Whatever subset of the
// apply's lines and of W's line lands, recovery must end with the
// committed values — replayed from the live log, or already durable under
// a W that covers the commit — and every slot reusable.
func TestCrashWhileParked(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
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
		stage := 4 + int(seed%2)
		tx.commitPrefix(stage)

		policy := []nvm.CrashPolicy{nvm.CrashStrict, nvm.CrashAll, nvm.CrashRandom, nvm.CrashTorn}[rng.Intn(4)]
		img := pool.CrashImage(policy, rng)
		h2, mgr2, _, _ := reopenFA(t, img)
		assertBalances(t, h2, 70, 80)
		if w, live := LiveSlots(h2.Mem()); len(live) != 0 || w == 0 {
			t.Fatalf("seed %d stage %d: after recovery W = %d with %d live slots", seed, stage, w, len(live))
		}
		for i := 0; i < 8; i++ {
			if err := mgr2.Run(func(tx *Tx) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAbortThenReuseCrash is the satellite-2 regression: an aborted
// generation leaves its entries physically in the slot (the count reset is
// volatile); a fresh generation then reuses the slot and crashes right
// after its durable commit mark. Replay must be bounded by the new
// generation's durably-fenced count and never resurrect the aborted
// entries.
func TestAbortThenReuseCrash(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	poison := newAccount(t, h, cls, 100, 0, "poison")
	clean := newAccount(t, h, cls, 200, 0, "clean")

	// Aborted generation: three write entries against "poison".
	tx1, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := tx1.WriteUint64(poison.Core(), accA, 900+i); err != nil {
			t.Fatal(err)
		}
		if err := tx1.WriteUint64(poison.Core(), accB, i); err != nil {
			t.Fatal(err)
		}
	}
	slot1 := tx1.slot
	tx1.Abort()

	// Reuse the same slot (warm cache hands the parked Tx straight back)
	// and crash right after the durable commit mark: the worst case, since
	// everything the aborted generation wrote is also still durable.
	tx2, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx2.slot != slot1 {
		t.Fatalf("slot not reused (got %d, want %d); test premise broken", tx2.slot, slot1)
	}
	if err := tx2.WriteUint64(clean.Core(), accA, 201); err != nil {
		t.Fatal(err)
	}
	tx2.commitPrefix(2)

	img := pool.CrashImage(nvm.CrashAll, rand.New(rand.NewSource(3)))
	h2, _, _, _ := reopenFA(t, img)
	p2, err := h2.Root().Get("poison")
	if err != nil || p2 == nil {
		t.Fatalf("poison lost: %v", err)
	}
	if v := p2.Core().ReadUint64(accA); v != 100 {
		t.Fatalf("aborted generation replayed: poison = %d, want 100", v)
	}
	c2, err := h2.Root().Get("clean")
	if err != nil || c2 == nil {
		t.Fatalf("clean lost: %v", err)
	}
	if v := c2.Core().ReadUint64(accA); v != 201 {
		t.Fatalf("committed generation dropped: clean = %d, want 201", v)
	}
}

// TestGroupCommitSoloCost pins that a cohort of one pays exactly the
// per-Tx barrier cost — combining must never add fences.
func TestGroupCommitSoloCost(t *testing.T) {
	h, mgr, pool, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitGroup}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	if err := mgr.Run(func(tx *Tx) error {
		return tx.WriteUint64(acc.Core(), accA, 1)
	}); err != nil {
		t.Fatal(err)
	}
	before := pool.Obs().Snapshot()
	if err := mgr.Run(func(tx *Tx) error {
		return tx.WriteUint64(acc.Core(), accA, 2)
	}); err != nil {
		t.Fatal(err)
	}
	d := pool.Obs().Snapshot().Sub(before)
	if d.PWBs != 5 || d.Fences() != CommitBarriers {
		t.Fatalf("solo group commit cost: %d pwb, %d fences (want 5, %d)", d.PWBs, d.Fences(), CommitBarriers)
	}
}

// TestSetGroupCommitGuards pins the mode-switch preconditions.
func TestSetGroupCommitGuards(t *testing.T) {
	_, mgr, _, _ := openFA(t, false)
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitGroup}); err == nil {
		t.Fatal("mode switch allowed with a block in flight")
	}
	tx.Abort()
	if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitGroup}); err != nil {
		t.Fatal(err)
	}
	if mgr.CommitMode() != CommitGroup {
		t.Fatal("mode not applied")
	}
	if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitPerTx}); err != nil {
		t.Fatal(err)
	}
	if mgr.CommitMode() != CommitPerTx {
		t.Fatal("mode not reset")
	}
}
