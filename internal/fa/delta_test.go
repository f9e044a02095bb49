package fa

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// blockOf returns the block ref backing the account's first balance and
// the block-local offset of that word (header included), the coordinate
// space AddDelta speaks.
func blockOf(acc *account) (core.Ref, uint64) {
	return acc.BlockRefs()[0], heap.HeaderSize + accA
}

func TestDeltaUnsupportedOutsideAsync(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 100, 0, "acc")
	blk, off := blockOf(acc)
	if _, err := mgr.AddDelta(blk, off, 5); err != ErrDeltaUnsupported {
		t.Fatalf("per-Tx AddDelta err = %v, want ErrDeltaUnsupported", err)
	}
}

// TestDeltaRejectsMisalignedOffset: a delta aimed at a word that is not
// 8-byte aligned is refused before anything folds. Accepted, its drain
// panicked on the unaligned atomic store after the epoch's mark was
// durable, leaving a live slot replay refuses: a pool that never opened
// again.
func TestDeltaRejectsMisalignedOffset(t *testing.T) {
	h, mgr, pool, cls := openFA(t, true)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	blk, off := blockOf(acc)
	if _, err := mgr.AddDelta(blk, off+4, 1); err == nil {
		t.Fatal("AddDelta accepted a misaligned offset")
	}
	if s := mgr.ObsSnapshot(); s.DeltaOps != 0 {
		t.Fatalf("a refused delta counted %d delta ops", s.DeltaOps)
	}
	mgr.DrainDurable()
	h2, _, _, _ := reopenFA(t, pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1))))
	a, _ := h2.Root().Get("acc")
	if v := a.Core().ReadUint64(accA); v != 100 {
		t.Fatalf("after the refused delta the pool holds %d, want 100", v)
	}
}

// TestDeltaFoldsToOneEntry is the tentpole contract: N increments to one
// hot word cost one redo-log entry in the drained epoch, and the drained
// value is the net sum.
func TestDeltaFoldsToOneEntry(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	blk, off := blockOf(acc)

	entriesBefore := mgr.stats.LogEntries.Load()
	var last uint64
	const n = 50
	for i := 0; i < n; i++ {
		ticket, err := mgr.AddDelta(blk, off, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ticket == 0 || ticket <= last {
			t.Fatalf("ticket %d after %d: not monotonically issued", ticket, last)
		}
		last = ticket
	}
	if mgr.DurableWatermark() != 0 {
		t.Fatal("watermark advanced before any drain")
	}
	if v := acc.ReadUint64(accA); v != 100 {
		t.Fatalf("raw read = %d before drain, want stale 100", v)
	}
	mgr.AwaitDurable(last)
	if v := acc.ReadUint64(accA); v != 100+2*n {
		t.Fatalf("drained value = %d, want %d", v, 100+2*n)
	}
	if w := mgr.DurableWatermark(); w < last {
		t.Fatalf("watermark %d below last delta ticket %d", w, last)
	}
	if got := mgr.stats.LogEntries.Load() - entriesBefore; got != 1 {
		t.Fatalf("epoch cost %d log entries, want 1 (net-delta fold)", got)
	}
	snap := mgr.ObsSnapshot()
	if snap.DeltaOps != n || snap.DeltasFolded != n-1 || snap.DeltaEntries != 1 {
		t.Fatalf("delta counters = ops %d / folded %d / entries %d, want %d/%d/1",
			snap.DeltaOps, snap.DeltasFolded, snap.DeltaEntries, n, n-1)
	}
	if snap.DeltaFlushesSaved != n-1 {
		t.Fatalf("flushes saved = %d, want %d", snap.DeltaFlushesSaved, n-1)
	}
}

// TestDeltaSignedFold pins that sub deltas fold as two's-complement adds.
func TestDeltaSignedFold(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	blk, off := blockOf(acc)
	for _, d := range []int64{7, -20, 3} {
		if _, err := mgr.AddDelta(blk, off, d); err != nil {
			t.Fatal(err)
		}
	}
	mgr.DrainDurable()
	if v := acc.ReadUint64(accA); v != 90 {
		t.Fatalf("folded value = %d, want 90", v)
	}
}

// deltaPending reports whether block orig has an unmaterialized delta in
// the async ledger.
func deltaPending(m *Manager, orig core.Ref) bool {
	g := m.group.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.deltaBlocks[orig]
	return ok
}

// TestDeltaDrainOnMiss: a transactional read of a block with a pending
// delta must settle it first (reads-see-acknowledged-writes), the same
// waitClear discipline queued commits get.
func TestDeltaDrainOnMiss(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	blk, off := blockOf(acc)
	ticket, err := mgr.AddDelta(blk, off, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !deltaPending(mgr, blk) {
		t.Fatal("deltaPending = false with a ledger entry on the block")
	}
	var seen uint64
	if err := mgr.Run(func(tx *Tx) error {
		v, err := tx.ReadUint64(acc.Core(), accA)
		seen = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 111 {
		t.Fatalf("transactional read = %d, want 111 (pending delta must settle)", seen)
	}
	if mgr.DurableWatermark() < ticket {
		t.Fatal("settling drain did not advance the watermark past the delta ticket")
	}
	if deltaPending(mgr, blk) {
		t.Fatal("deltaPending = true after settle")
	}
}

// TestDeltaAfterQueuedWrite: a delta on a block held by a queued commit
// must drain the queue first — folding against the pre-apply original
// would be clobbered by the epoch apply.
func TestDeltaAfterQueuedWrite(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	blk, off := blockOf(acc)

	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteUint64(acc.Core(), accA, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CommitTicket(); err != nil {
		t.Fatal(err)
	}
	ticket, err := mgr.AddDelta(blk, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr.AwaitDurable(ticket)
	if v := acc.ReadUint64(accA); v != 501 {
		t.Fatalf("value = %d, want 501 (queued write applied before fold)", v)
	}
}

// TestDeltaThenFreeSettles: freeing an object whose block carries a
// pending delta must settle the delta first, or the materialization
// would scribble on a recycled block in a later epoch.
func TestDeltaThenFreeSettles(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	// Unrooted on purpose: the free below must leave no dangling ref.
	vpo, err := h.Alloc(cls, accLen)
	if err != nil {
		t.Fatal(err)
	}
	victim := vpo.(*account)
	victim.WriteUint64(accA, 5)
	victim.PWB()
	victim.Validate()
	vblk, voff := blockOf(victim)
	if _, err := mgr.AddDelta(vblk, voff, 3); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Run(func(tx *Tx) error { return tx.Free(victim) }); err != nil {
		t.Fatal(err)
	}
	mgr.DrainDurable()
	// The heap must stay usable with the victim gone.
	blk, off := blockOf(acc)
	if _, err := mgr.AddDelta(blk, off, 1); err != nil {
		t.Fatal(err)
	}
	mgr.DrainDurable()
	if v := acc.ReadUint64(accA); v != 101 {
		t.Fatalf("acc = %d, want 101", v)
	}
	if n := h.Fsck(func(string) {}); n != 0 {
		t.Fatalf("fsck reported %d errors after free-with-pending-delta", n)
	}
}

// TestDeltaAbortAfterEnqueue: an abort between an enqueued commit and a
// pending delta must perturb neither — the aborted block's writes vanish,
// the queued commit and the fold both land.
func TestDeltaAbortAfterEnqueue(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	a := newAccount(t, h, cls, 100, 0, "a")
	b := newAccount(t, h, cls, 200, 0, "b")
	c := newAccount(t, h, cls, 300, 0, "c")

	tx1, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.WriteUint64(a.Core(), accA, 150); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.CommitTicket(); err != nil {
		t.Fatal(err)
	}
	blk, off := blockOf(b)
	ticket, err := mgr.AddDelta(blk, off, 10)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.WriteUint64(c.Core(), accA, 999); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()

	mgr.AwaitDurable(ticket)
	if v := a.ReadUint64(accA); v != 150 {
		t.Fatalf("a = %d, want 150 (queued commit survived the abort)", v)
	}
	if v := b.ReadUint64(accA); v != 210 {
		t.Fatalf("b = %d, want 210 (fold survived the abort)", v)
	}
	if v := c.ReadUint64(accA); v != 300 {
		t.Fatalf("c = %d, want 300 (aborted write leaked)", v)
	}
}

// TestDeltaAwaitRacesFold hammers AddDelta from several goroutines while
// others race AwaitDurable/DrainDurable against the folds; the final sum
// must be exact and every ticket awaited must be durable when the await
// returns. Run under -race in CI.
func TestDeltaAwaitRacesFold(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{}); err != nil {
		t.Fatal(err)
	}
	accs := []*account{
		newAccount(t, h, cls, 0, 0, "h0"),
		newAccount(t, h, cls, 0, 0, "h1"),
	}
	const workers = 4
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				blk, off := blockOf(accs[(w+i)%len(accs)])
				ticket, err := mgr.AddDelta(blk, off, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					mgr.AwaitDurable(ticket)
					if mgr.DurableWatermark() < ticket {
						t.Errorf("AwaitDurable(%d) returned below the watermark", ticket)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	mgr.DrainDurable()
	total := accs[0].ReadUint64(accA) + accs[1].ReadUint64(accA)
	if total != workers*perWorker {
		t.Fatalf("sum = %d, want %d", total, workers*perWorker)
	}
}

// TestDeltaMixedWithCommitsConcurrent interleaves transactional writes
// and deltas on overlapping blocks across goroutines: the conflict rules
// (AddDelta drains queued holders, waitClear drains pending deltas) must
// keep every epoch's write sets disjoint and the final state exact.
func TestDeltaMixedWithCommitsConcurrent(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	if err := mgr.SetGroupCommit(GroupOptions{}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 0, 0, "acc")
	blk, off := blockOf(acc)
	const workers = 4
	const perWorker = 100
	// The application's lock on the record, held across Commit as fa
	// requires (the grid's stripe lock plays this part): a read-modify-
	// write excludes everything else on the word from its read to its
	// commit, deltas commute and share. Without it the increments race by
	// design and the sum comes up short.
	var recordLock sync.RWMutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if (w+i)%3 == 0 {
					// Transactional increment of the same word.
					recordLock.Lock()
					err := mgr.Run(func(tx *Tx) error {
						v, err := tx.ReadUint64(acc.Core(), accA)
						if err != nil {
							return err
						}
						return tx.WriteUint64(acc.Core(), accA, v+1)
					})
					recordLock.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
					continue
				}
				recordLock.RLock()
				_, err := mgr.AddDelta(blk, off, 1)
				recordLock.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	mgr.DrainDurable()
	if v := acc.ReadUint64(accA); v != workers*perWorker {
		t.Fatalf("sum = %d, want %d", v, workers*perWorker)
	}
}

// TestDeltaRecoverDiscardsLedger: a crash with pending (never-drained)
// deltas recovers to the pre-delta state — the ledger is volatile and its
// tickets were never durable — and the reopened manager starts clean.
func TestDeltaRecoverDiscardsLedger(t *testing.T) {
	pool := nvm.New(1<<21, nvm.Options{Tracked: true})
	h, mgr, _, cls := reopenFA(t, pool)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	acc := newAccount(t, h, cls, 100, 0, "acc")
	blk, off := blockOf(acc)
	if _, err := mgr.AddDelta(blk, off, 40); err != nil {
		t.Fatal(err)
	}
	img := pool.CrashImage(nvm.CrashAll, nil)
	h2, mgr2, _, _ := reopenFA(t, img)
	po, err := h2.Root().Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	if v := po.(*account).ReadUint64(accA); v != 100 {
		t.Fatalf("recovered value = %d, want pre-delta 100", v)
	}
	if snap := mgr2.ObsSnapshot(); snap.WatermarkLag != 0 {
		t.Fatalf("watermark lag %d after recovery, want 0", snap.WatermarkLag)
	}
}

// TestDeltaCrashAfterEpochCommitPointReplays is the dropped-fold
// regression: a detached materialization must complete stage 1 (durable
// entry count, patched masks, flushed images) before the epoch's commit
// marks, so a crash just past F1 — the epoch commit point — replays the
// fold together with its same-epoch sibling commit. Before the fix the
// sibling recovered while the fold's slot replayed zero entries,
// breaking the all-or-nothing epoch property.
func TestDeltaCrashAfterEpochCommitPointReplays(t *testing.T) {
	pool := nvm.New(1<<21, nvm.Options{Tracked: true})
	h, mgr, _, cls := reopenFA(t, pool)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	a := newAccount(t, h, cls, 100, 0, "a")
	b := newAccount(t, h, cls, 200, 0, "b")

	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteUint64(a.Core(), accA, 150); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CommitTicket(); err != nil {
		t.Fatal(err)
	}
	blk, off := blockOf(b)
	if _, err := mgr.AddDelta(blk, off, 10); err != nil {
		t.Fatal(err)
	}
	mgr.drainEpochPrefix(2) // crash just past F1

	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	h2, _, _, _ := reopenFA(t, img)
	for name, want := range map[string]uint64{"a": 150, "b": 210} {
		po, err := h2.Root().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if v := po.(*account).ReadUint64(accA); v != want {
			t.Fatalf("%s = %d after post-F1 crash, want %d (epoch replays all-or-nothing)", name, v, want)
		}
	}
}

// auditProbe runs the committed-slot audit on the crash image before
// delegating replay — the same wiring the crashmc griddelta check uses.
type auditProbe struct {
	mgr *Manager
	err error
}

func (p *auditProbe) RecoverLogs(h *core.Heap) error {
	p.err = AuditCommittedSlots(h.Mem())
	return p.mgr.RecoverLogs(h)
}

// TestDeltaAuditCatchesMissingStage1 pins that AuditCommittedSlots
// detects the dropped-fold signature: a commit mark over a slot whose
// durable entry count is still zero (stage 2 outran stage 1).
func TestDeltaAuditCatchesMissingStage1(t *testing.T) {
	pool := nvm.New(1<<21, nvm.Options{Tracked: true})
	h, mgr, _, cls := reopenFA(t, pool)
	acc := newAccount(t, h, cls, 100, 0, "acc")
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteUint64(acc.Core(), accA, 1); err != nil {
		t.Fatal(err)
	}
	tx.commitSeq(0) // commit mark with stage 1 deliberately skipped
	tx.commitMarkBody()
	h.Pool().PFence()

	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	probe := &auditProbe{mgr: NewManager()}
	if _, err := core.Open(img, core.Config{
		HeapOptions: heap.Options{LogSlots: 4, LogSlotSize: 1 << 14},
		Classes:     []*core.Class{accountClass()},
		LogHandler:  probe,
	}); err != nil {
		t.Fatal(err)
	}
	if probe.err == nil {
		t.Fatal("audit accepted a committed slot with a durable entry count of zero")
	}
}

// TestDeltaFreeWithAllSlotsHeld is the self-livelock regression: a Tx
// freeing a block with a pending delta while the application holds every
// general log slot — its own included — must still make progress,
// because materialization falls back to the group's reserved slot.
// Before the reservation this spun forever in waitClear (test timeout).
func TestDeltaFreeWithAllSlotsHeld(t *testing.T) {
	pool := nvm.New(1<<22, nvm.Options{})
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 2, LogSlotSize: 1 << 12},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	// Unrooted on purpose, as in TestDeltaThenFreeSettles.
	vpo, err := h.Alloc(cls, accLen)
	if err != nil {
		t.Fatal(err)
	}
	victim := vpo.(*account)
	victim.WriteUint64(accA, 5)
	victim.PWB()
	victim.Validate()
	vblk, voff := blockOf(victim)
	if _, err := mgr.AddDelta(vblk, voff, 3); err != nil {
		t.Fatal(err)
	}
	// One reserved slot + one general slot: the Run below takes the last
	// general slot, then Free must drain the victim's delta with no free
	// slot anywhere but the reserved one.
	if err := mgr.Run(func(tx *Tx) error { return tx.Free(victim) }); err != nil {
		t.Fatal(err)
	}
	mgr.DrainDurable()
	if n := h.Fsck(func(string) {}); n != 0 {
		t.Fatalf("fsck reported %d errors after free-with-all-slots-held", n)
	}

	// Three drains in a row, each of a full ledger, while an open block
	// holds the only general slot: each lands whole in one epoch, so the
	// reserved Tx came back by forced retirement every time.
	accs := allocAccounts(t, h, cls, slotCap(1<<12))
	held, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		before := mgr.ObsSnapshot()
		for _, acc := range accs {
			blk, off := blockOf(acc)
			if _, err := mgr.AddDelta(blk, off, 1); err != nil {
				t.Fatal(err)
			}
		}
		w := mgr.DrainDurable()
		d := mgr.ObsSnapshot()
		if epochs, entries := d.Epochs-before.Epochs, d.DeltaEntries-before.DeltaEntries; epochs != 1 || entries != uint64(len(accs)) {
			t.Fatalf("round %d: full-ledger drain took %d epochs for %d entries, want 1 for %d", round, epochs, entries, len(accs))
		}
		if w != mgr.IssuedTickets() {
			t.Fatalf("round %d: watermark %d after the drain, want every ticket (%d)", round, w, mgr.IssuedTickets())
		}
	}
	held.Abort()
	for i, acc := range accs {
		if v := acc.ReadUint64(accA); v != 3 {
			t.Fatalf("acc %d = %d after three drains, want 3", i, v)
		}
	}
}

// allocAccounts allocates n unrooted accounts holding zero.
func allocAccounts(t *testing.T, h *core.Heap, cls *core.Class, n int) []*account {
	t.Helper()
	accs := make([]*account, n)
	for i := range accs {
		po, err := h.Alloc(cls, accLen)
		if err != nil {
			t.Fatal(err)
		}
		accs[i] = po.(*account)
		accs[i].WriteUint64(accA, 0)
		accs[i].PWB()
	}
	return accs
}

// TestDeltaLedgerCapDrains: the ledger holds exactly one log slot's
// entries — 170 at 4 KiB, 682 at 16 KiB — and a new word on a full
// ledger forces a drain that lands all of it in one epoch and
// acknowledges every ticket issued before it.
func TestDeltaLedgerCapDrains(t *testing.T) {
	for _, c := range []struct{ slotSize, cap int }{{1 << 12, 170}, {1 << 14, 682}} {
		if got := slotCap(c.slotSize); got != c.cap {
			t.Fatalf("slot of %d B holds %d entries, want %d", c.slotSize, got, c.cap)
		}
		pool := nvm.New(1<<24, nvm.Options{})
		cls := accountClass()
		mgr := NewManager()
		h, err := core.Open(pool, core.Config{
			HeapOptions: heap.Options{LogSlots: 8, LogSlotSize: c.slotSize},
			Classes:     []*core.Class{cls},
			LogHandler:  mgr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
			t.Fatal(err)
		}
		accs := allocAccounts(t, h, cls, 2*c.cap+1)
		var last uint64
		for i, acc := range accs {
			blk, off := blockOf(acc)
			ticket, err := mgr.AddDelta(blk, off, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			// The fold that finds the ledger full drains it first.
			if i > 0 && i%c.cap == 0 {
				s := mgr.ObsSnapshot()
				if want := uint64(i / c.cap); s.Epochs != want || s.DeltaEntries != want*uint64(c.cap) {
					t.Fatalf("slot %d B, fold %d: %d epochs / %d entries, want %d / %d",
						c.slotSize, i, s.Epochs, s.DeltaEntries, want, want*uint64(c.cap))
				}
				if w := mgr.DurableWatermark(); w != last {
					t.Fatalf("slot %d B, fold %d: watermark %d, want %d (every earlier ticket)", c.slotSize, i, w, last)
				}
			}
			last = ticket
		}
		if s := mgr.ObsSnapshot(); s.Epochs != 2 {
			t.Fatalf("slot %d B: %d epochs before the last drain, want 2", c.slotSize, s.Epochs)
		}
		mgr.DrainDurable()
		for i, acc := range accs {
			if v := acc.ReadUint64(accA); v != uint64(i) {
				t.Fatalf("slot %d B: acc %d = %d, want %d", c.slotSize, i, v, i)
			}
		}
	}
}
