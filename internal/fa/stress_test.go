package fa

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSlotFreelistStress hammers the slot freelist and the
// warm per-slot Txs: 16 goroutines compete for 4 log slots, retrying when
// the slots are exhausted. Run it under -race to check the freelist and
// the hand-over of a slot's Tx. Each worker owns its account, so the only
// shared state is the manager's.
func TestConcurrentSlotFreelistStress(t *testing.T) {
	h, mgr, _, cls := openFA(t, false) // 4 log slots
	const workers = 16
	const txPerWorker = 150

	accs := make([]*account, workers)
	for i := range accs {
		accs[i] = newAccount(t, h, cls, 0, 0, "acc")
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(acc *account) {
			defer wg.Done()
			for i := 0; i < txPerWorker; i++ {
				for {
					err := mgr.Run(func(tx *Tx) error {
						v, err := tx.ReadUint64(acc.Core(), accA)
						if err != nil {
							return err
						}
						return tx.WriteUint64(acc.Core(), accA, v+1)
					})
					if err == nil {
						break
					}
					if !strings.Contains(err.Error(), "no free log slot") {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}
		}(accs[w])
	}
	wg.Wait()

	for i, acc := range accs {
		if got := acc.ReadUint64(accA); got != txPerWorker {
			t.Fatalf("worker %d: %d commits took effect, want %d", i, got, txPerWorker)
		}
	}
	snap := mgr.ObsSnapshot()
	if snap.SlotsInUse != 0 {
		t.Fatalf("%d slots still marked in use after all blocks ended", snap.SlotsInUse)
	}
	if snap.SlotsTotal != 4 {
		t.Fatalf("slots total gauge = %d, want 4", snap.SlotsTotal)
	}
	if snap.TxReuse == 0 {
		t.Fatal("no Begin was served from the warm-Tx cache")
	}
}

// TestSlotFreelistOrder pins which log slot a block takes, which crashmc's
// ordering-point counts depend on: a fresh manager's Begins take slots 0,
// 1, 2 in order, and a released slot is the next one taken.
func TestSlotFreelistOrder(t *testing.T) {
	_, mgr, _, _ := openFA(t, false) // 4 log slots
	var txs []*Tx
	for want := 0; want < 3; want++ {
		tx, err := mgr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if tx.slot != want {
			t.Fatalf("Begin %d took slot %d, want %d", want, tx.slot, want)
		}
		txs = append(txs, tx)
	}
	txs[1].Abort()
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.slot != 1 {
		t.Fatalf("Begin after releasing slot 1 took slot %d", tx.slot)
	}
	tx.Abort()
	txs[0].Abort()
	if tx, err = mgr.Begin(); err != nil {
		t.Fatal(err)
	}
	if tx.slot != 0 {
		t.Fatalf("Begin after releasing slots 1 then 0 took slot %d, want 0", tx.slot)
	}
	tx.Abort()
	txs[2].Abort()
}
