package fa

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
		if mode == CommitAsync {
			if err := mgr.SetGroupCommit(GroupOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		runDeterministicWorkload(t, h, mgr, cls)
		mgr.DrainDurable()
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
	if err := mgr.SetGroupCommit(GroupOptions{}); err != nil {
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
// history from the stale original. That guard is what lets OnOrdered fire
// at the enqueue, before the drain runs the Defer follow-ups.
func TestGroupCommitAsyncConflictDrains(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
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
	var ordered, deferred bool
	tx1.OnOrdered(func() { ordered = true })
	tx1.Defer(func() { deferred = true })
	ticket, err := tx1.CommitTicket()
	if err != nil {
		t.Fatal(err)
	}
	if ticket == 0 {
		t.Fatal("async commit returned no ticket")
	}
	if !ordered || deferred {
		t.Fatalf("after enqueue: OnOrdered ran %v, Defer ran %v; want true, false", ordered, deferred)
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

// TestGroupCommitSoloCost pins that an epoch of one — an async commit
// awaited straight away — pays exactly the per-Tx cost: the epoch pipeline
// never adds a write-back or a fence. A one-word commit is 4 pwb: log
// line, W, mark and home line (TestCommitFlushAccounting).
func TestGroupCommitSoloCost(t *testing.T) {
	h, mgr, pool, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	commit := func(v uint64) {
		tx, err := mgr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.WriteUint64(acc.Core(), accA, v); err != nil {
			t.Fatal(err)
		}
		ticket, err := tx.CommitTicket()
		if err != nil {
			t.Fatal(err)
		}
		mgr.AwaitDurable(ticket)
	}
	commit(1)
	before := pool.Obs().Snapshot()
	commit(2)
	d := pool.Obs().Snapshot().Sub(before)
	if d.PWBs != 4 || d.Fences() != CommitBarriers {
		t.Fatalf("epoch-of-one cost: %d pwb, %d fences (want 4, %d)", d.PWBs, d.Fences(), CommitBarriers)
	}
}

// TestSetGroupCommitGuards pins the one switch there is — per-Tx to
// async, on an attached manager with no block open — by each refusal
// around it. A refused call leaves the mode as it was, and after is what
// the row checks next.
func TestSetGroupCommitGuards(t *testing.T) {
	async := GroupOptions{}
	for _, c := range []struct {
		name string
		prep func(t *testing.T) (mgr *Manager, opts GroupOptions, after func())
		mode CommitMode
	}{
		{"unattached", func(*testing.T) (*Manager, GroupOptions, func()) {
			return NewManager(), async, nil
		}, CommitPerTx},
		{"second call", func(t *testing.T) (*Manager, GroupOptions, func()) {
			_, mgr, _, _ := openFA(t, false)
			if err := mgr.SetGroupCommit(async); err != nil {
				t.Fatal(err)
			}
			return mgr, GroupOptions{ManualDrain: true}, nil
		}, CommitAsync},
		{"block in flight", func(t *testing.T) (*Manager, GroupOptions, func()) {
			_, mgr, _, _ := openFA(t, false)
			tx, err := mgr.Begin()
			if err != nil {
				t.Fatal(err)
			}
			return mgr, async, func() {
				tx.Abort()
				if err := mgr.SetGroupCommit(async); err != nil || mgr.CommitMode() != CommitAsync {
					t.Fatalf("switch once the block aborted: %v, mode %d", err, mgr.CommitMode())
				}
			}
		}, CommitPerTx},
		// A one-slot heap has no slot to withhold for delta drains.
		{"one slot", func(t *testing.T) (*Manager, GroupOptions, func()) {
			h, mgr, cls := openSlots(t, nvm.New(1<<21, nvm.Options{}), 1)
			acc := newAccount(t, h, cls, 1, 0, "acc")
			return mgr, async, func() {
				if err := mgr.Run(func(tx *Tx) error { return tx.WriteUint64(acc.Core(), accA, 2) }); err != nil {
					t.Fatal(err)
				}
				if v := acc.ReadUint64(accA); v != 2 {
					t.Fatalf("one-slot heap after the refusal: %d, want 2", v)
				}
			}
		}, CommitPerTx},
	} {
		t.Run(c.name, func(t *testing.T) {
			mgr, opts, after := c.prep(t)
			if err := mgr.SetGroupCommit(opts); err == nil {
				t.Fatal("switch accepted")
			}
			if got := mgr.CommitMode(); got != c.mode {
				t.Fatalf("mode %d after the refusal, want %d", got, c.mode)
			}
			if after != nil {
				after()
			}
		})
	}
}

// TestManagerAttachesOnce: a manager binds to the heap of its first
// core.Open; a second open with it, of the same pool or another, fails
// and leaves the first attachment serving.
func TestManagerAttachesOnce(t *testing.T) {
	h, mgr, pool, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 1, 0, "acc")
	for _, p := range []*nvm.Pool{pool, nvm.New(1<<21, nvm.Options{})} {
		if _, err := core.Open(p, core.Config{
			HeapOptions: heap.Options{LogSlots: 4, LogSlotSize: 1 << 14},
			Classes:     []*core.Class{accountClass()},
			LogHandler:  mgr,
		}); err == nil {
			t.Fatal("second core.Open with one manager succeeded")
		}
	}
	if mgr.Heap() != h {
		t.Fatal("the refused open rebound the manager")
	}
	if err := mgr.Run(func(tx *Tx) error { return tx.WriteUint64(acc.Core(), accA, 2) }); err != nil {
		t.Fatal(err)
	}
	if v := acc.ReadUint64(accA); v != 2 {
		t.Fatalf("first attachment after the refusal: %d, want 2", v)
	}
}

// TestAsyncBeginWaitsForDrains: queued and draining async commits hold
// log slots. With six committers on the seven slots an 8-slot heap leaves
// after the delta reservation, Begin regularly finds no slot free while no
// commit is parked; it must wait for the drain in flight, or drive one,
// and never report "no free log slot".
func TestAsyncBeginWaitsForDrains(t *testing.T) {
	const committers, commits = 6, 3000
	h, mgr, cls := openSlots(t, nvm.New(1<<22, nvm.Options{}), 8)
	if err := mgr.SetGroupCommit(GroupOptions{}); err != nil {
		t.Fatal(err)
	}
	accs := make([]*account, committers)
	for i := range accs {
		accs[i] = newAccount(t, h, cls, 0, 0, fmt.Sprintf("acc%d", i))
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	for _, acc := range accs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				tx, err := mgr.Begin()
				if err != nil {
					failed.Add(1)
					continue
				}
				v, err := tx.ReadUint64(acc.Core(), accA)
				if err == nil {
					err = tx.WriteUint64(acc.Core(), accA, v+1)
				}
				if err != nil {
					tx.Abort()
					t.Error(err)
					return
				}
				ticket, err := tx.CommitTicket()
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 3 {
					mgr.AwaitDurable(ticket)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d Begin calls failed", n, committers*commits)
	}
	mgr.DrainDurable()
	for i, acc := range accs {
		if got := acc.ReadUint64(accA); got != commits {
			t.Fatalf("committer %d: %d commits took effect, want %d", i, got, commits)
		}
	}
}

// TestAsyncWordEpochCrashStages crashes an epoch whose two async commits
// hold different words of one block (accA and accB of shared), each with
// a word of a block of its own, at every stage of the epoch: enqueued
// (stage 1 written back, unfenced), past F0, past the marks and F1,
// applied and parked, and retired. Under every crash policy each commit
// recovers whole or absent — both of its words or neither — both are
// there once F1 has passed, and the recovered heap is fsck-clean with no
// live slot.
func TestAsyncWordEpochCrashStages(t *testing.T) {
	type word struct {
		name     string
		off      uint64
		from, to uint64
	}
	commits := [][2]word{
		{{"shared", accA, 100, 150}, {"x", accA, 0, 1}},
		{{"shared", accB, 5, 6}, {"y", accA, 0, 2}},
	}
	stages := []string{"enqueued", "F0", "F1", "applied", "retired"}
	policies := []nvm.CrashPolicy{nvm.CrashStrict, nvm.CrashAll, nvm.CrashRandom, nvm.CrashTorn}
	for stage, name := range stages {
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				h, mgr, pool, cls := openFA(t, true)
				accs := map[string]*account{
					"shared": newAccount(t, h, cls, 100, 5, "shared"),
					"x":      newAccount(t, h, cls, 0, 0, "x"),
					"y":      newAccount(t, h, cls, 0, 0, "y"),
				}
				if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
					t.Fatal(err)
				}
				for _, c := range commits {
					tx, err := mgr.Begin()
					if err != nil {
						t.Fatal(err)
					}
					for _, w := range c {
						if err := tx.WriteUint64(accs[w.name].Core(), w.off, w.to); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := tx.CommitTicket(); err != nil {
						t.Fatal(err)
					}
				}
				switch stage {
				case 1, 2:
					mgr.drainEpochPrefix(stage)
				case 3, 4:
					if mgr.DrainDurable(); stage == 4 {
						mgr.Retire()
					}
				}
				if n := mgr.ObsSnapshot().Epochs; stage >= 3 && n != 1 {
					t.Fatalf("the two commits drained in %d epochs, want 1", n)
				}

				rng := rand.New(rand.NewSource(seed))
				img := pool.CrashImage(policies[seed%int64(len(policies))], rng)
				h2, _, _, _ := reopenFA(t, img)
				for i, c := range commits {
					var got [2]uint64
					for j, w := range c {
						po, err := h2.Root().Get(w.name)
						if err != nil {
							t.Fatal(err)
						}
						got[j] = po.(*account).ReadUint64(w.off)
					}
					whole, absent := got == [2]uint64{c[0].to, c[1].to}, got == [2]uint64{c[0].from, c[1].from}
					if !whole && (!absent || stage >= 2) {
						t.Fatalf("commit %d recovered %v; want %d/%d, or %d/%d before F1",
							i, got, c[0].to, c[1].to, c[0].from, c[1].from)
					}
				}
				if n := h2.Fsck(func(msg string) { t.Log(msg) }); n != 0 {
					t.Fatalf("fsck: %d errors", n)
				}
				if _, live := LiveSlots(h2.Mem()); len(live) != 0 {
					t.Fatalf("%d live slots after recovery", len(live))
				}
			})
		}
	}
}
