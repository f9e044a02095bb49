package fa

import "testing"

// TestCommitFlushAccounting pins the persistence cost of the canonical
// single-line commit, as counted by the obs layer. It is the regression
// guard for flush coalescing: before the coalesced pipeline this block
// cost 11 pwb (full 4-line in-flight flush + full-payload apply); with
// dirty-line masks and the flush set it costs exactly 5. A future change
// that re-widens any stage fails this test.
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

	// Stage 1: in-flight dirty line + log line (count and the single entry
	// share one), pfence — which also covers the previous commit's apply.
	// Then W over that commit and this commit's mark, one line each, pfence.
	// Then the applied line, unfenced: the next commit's fences retire it.
	if d.PWBs != 5 || d.PFences != CommitBarriers || d.PSyncs != 0 {
		t.Fatalf("canonical commit cost regressed: %d pwb, %d pfence, %d psync (want 5 pwb, %d pfence, 0 psync)",
			d.PWBs, d.PFences, d.PSyncs, CommitBarriers)
	}
	if saved := mgr.Obs().SavedLines.Load(); saved == 0 {
		t.Fatal("flush set saved no lines despite repeated same-line stores")
	}
	if mgr.Obs().TxReuse.Load() == 0 {
		t.Fatal("third Run did not reuse the warm transaction")
	}
	if a, b := acc.ReadUint64(accA), acc.ReadUint64(accB); a != 14 || b != 7 {
		t.Fatalf("committed values %d/%d, want 14/7", a, b)
	}
}
