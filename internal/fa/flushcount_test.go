package fa

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
)

// TestCommitFlushAccounting pins the persistence cost of the canonical
// single-line commit, as counted by the obs layer. It is the regression
// guard for flush coalescing: before the coalesced pipeline this block
// cost 11 pwb (full 4-line in-flight flush + full-payload apply); with
// dirty-line masks and the flush set it cost 5, and since its two words
// are logged as word entries instead of an in-flight copy it costs 4. A
// future change that re-widens any stage fails this test.
func TestCommitFlushAccounting(t *testing.T) {
	h, mgr, pool, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 100, 0, "acc")

	// Two warm-up commits reach the steady state: the measured pass finds
	// one commit parked (whose W write-back it pays) and the one before
	// that back in the transaction cache.
	for i := 0; i < 2; i++ {
		if err := mgr.Run(func(tx *Tx) error {
			return tx.WriteUint64(acc.Core(), accA, 1)
		}); err != nil {
			t.Fatal(err)
		}
	}

	before := pool.Obs().Snapshot()
	err := mgr.Run(func(tx *Tx) error {
		// One field written five times plus a neighbour in the same cache
		// line: six stores, one dirty line.
		for i := uint64(0); i < 5; i++ {
			if err := tx.WriteUint64(acc.Core(), accA, 10+i); err != nil {
				return err
			}
		}
		return tx.WriteUint64(acc.Core(), accB, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	d := pool.Obs().Snapshot().Sub(before)

	// Stage 1: one log line (the count and the two word entries share
	// it), pfence — which also covers the previous commit's
	// apply. Then W over that commit and this commit's mark, one line
	// each, pfence. Then the applied home line, unfenced: the next
	// commit's fences retire it.
	if d.PWBs != 4 || d.PFences != CommitBarriers || d.PSyncs != 0 {
		t.Fatalf("canonical commit cost regressed: %d pwb, %d pfence, %d psync (want 4 pwb, %d pfence, 0 psync)",
			d.PWBs, d.PFences, d.PSyncs, CommitBarriers)
	}
	if saved := mgr.Obs().SavedLines.Load(); saved == 0 {
		t.Fatal("flush set saved no lines despite repeated same-line words")
	}
	if mgr.Obs().TxReuse.Load() == 0 {
		t.Fatal("third Run did not reuse the warm transaction")
	}
	if a, b := acc.ReadUint64(accA), acc.ReadUint64(accB); a != 14 || b != 7 {
		t.Fatalf("committed values %d/%d, want 14/7", a, b)
	}
}

// TestDeltaEpochFlushAccounting pins the persistence cost of materializing
// a delta ledger: an epoch that lands n folds on n distinct lines writes
// back exactly those n home lines, the slot's log lines (entry count and
// n word entries) and its commit mark, under the two commit fences — and
// takes no block from any allocator.
func TestDeltaEpochFlushAccounting(t *testing.T) {
	for _, n := range []int{1, 16, 256} {
		t.Run(fmt.Sprintf("folds=%d", n), func(t *testing.T) {
			h, mgr, pool, cls := openFA(t, false)
			if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitAsync, ManualDrain: true}); err != nil {
				t.Fatal(err)
			}
			words := deltaWords(t, h, cls, n)
			mgr.Retire() // nothing parked: no W write-back rides on this epoch
			for i, w := range words {
				if _, err := mgr.AddDelta(w.orig, w.off, int64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			heapBefore, faBefore := h.Mem().ObsSnapshot(), mgr.ObsSnapshot()
			before := pool.Obs().Snapshot()
			mgr.DrainDurable()
			d := pool.Obs().Snapshot().Sub(before)
			logLines := (slotEntries + entrySize*uint64(n) + nvm.LineSize - 1) / nvm.LineSize
			if want := uint64(n) + logLines + 1; d.PWBs != want || d.Fences() != CommitBarriers {
				t.Fatalf("%d folds cost %d pwb, %d fences; want %d pwb (%d home + %d log + 1 mark), %d fences",
					n, d.PWBs, d.Fences(), want, n, logLines, CommitBarriers)
			}
			if taken := blocksTaken(h.Mem().ObsSnapshot()) - blocksTaken(heapBefore); taken != 0 {
				t.Fatalf("materializing %d folds took %d blocks, want 0", n, taken)
			}
			if got := mgr.ObsSnapshot().LogEntries - faBefore.LogEntries; got != uint64(n) {
				t.Fatalf("%d folds logged %d entries, want %d", n, got, n)
			}
			for i, w := range words {
				if v := pool.ReadUint64(w.orig + w.off); v != uint64(i+1) {
					t.Fatalf("word %d = %d after the drain, want %d", i, v, i+1)
				}
			}
		})
	}
}

// deltaWord is one foldable word: a block and a block-local offset.
type deltaWord struct {
	orig core.Ref
	off  uint64
}

// deltaWords returns n zeroed words on n distinct cache lines, one per
// line of each of ceil(n/4) single-block accounts.
func deltaWords(t testing.TB, h *core.Heap, cls *core.Class, n int) []deltaWord {
	var words []deltaWord
	for len(words) < n {
		acc := newAccount(t, h, cls, 0, 0, fmt.Sprintf("acc%d", len(words)))
		blk := acc.BlockRefs()[0]
		for l := uint64(0); l < heap.BlockSize/nvm.LineSize && len(words) < n; l++ {
			off := max(l*nvm.LineSize, heap.HeaderSize)
			words = append(words, deltaWord{orig: blk, off: off})
		}
	}
	return words
}

// blocksTaken counts the blocks handed out by the allocator.
func blocksTaken(s obs.HeapSnapshot) uint64 {
	return s.BumpAllocs + s.ReuseAllocs
}
