package fa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// The word path: an aligned 8-byte store to a valid block is one kindWord
// entry until the block is promoted to an in-flight copy (access.go).

// TestWordReadYourWrites: a logged word reads back its logged value, an
// unlogged word of the same block reads the original, the original stays
// untouched until the commit, and rewriting a word rewrites its entry.
func TestWordReadYourWrites(t *testing.T) {
	h, mgr, _, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 100, 7, "acc")
	err := mgr.Run(func(tx *Tx) error {
		for _, v := range []uint64{1, 2, 3} {
			if err := tx.WriteUint64(acc.Core(), accA, v); err != nil {
				return err
			}
			if got, err := tx.ReadUint64(acc.Core(), accA); err != nil || got != v {
				t.Errorf("logged word reads %d (%v), want %d", got, err, v)
			}
		}
		if got, err := tx.ReadUint64(acc.Core(), accB); err != nil || got != 7 {
			t.Errorf("unlogged word reads %d (%v), want the original 7", got, err)
		}
		if got := acc.ReadUint64(accA); got != 100 {
			t.Errorf("original word is %d before the commit, want 100", got)
		}
		if tx.count != 1 || len(tx.words) != 1 || len(tx.writes) != 0 {
			t.Errorf("three stores to one word: %d entries, %d words, %d copies; want 1, 1, 0", tx.count, len(tx.words), len(tx.writes))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := acc.ReadUint64(accA), acc.ReadUint64(accB); a != 3 || b != 7 {
		t.Fatalf("committed %d/%d, want 3/7", a, b)
	}
	if s := mgr.ObsSnapshot(); s.WordEntries != 1 || s.InflightCopies != 0 {
		t.Fatalf("counted %d word entries, %d in-flight copies; want 1, 0", s.WordEntries, s.InflightCopies)
	}
}

// promotion is one way to turn a block with two logged words (accA = 1,
// accB = 2) into an in-flight copy, and the bytes the account holds once
// the Tx commits.
type promotion struct {
	name  string
	apply func(tx *Tx, o *core.Object) error
	want  []byte
}

func wordBytes(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

var promotions = []promotion{
	{"WriteUint32", func(tx *Tx, o *core.Object) error {
		return tx.WriteUint32(o, accC, 0xabcd)
	}, wordBytes(1, 2, 0, 0xabcd)},
	{"overlapping ReadBytes", func(tx *Tx, o *core.Object) error {
		got, err := tx.ReadBytes(o, accA, 16)
		if err == nil && string(got) != string(wordBytes(1, 2)) {
			err = fmt.Errorf("ReadBytes over the logged words = %x", got)
		}
		return err
	}, wordBytes(1, 2, 0, 0)},
	{"third word", func(tx *Tx, o *core.Object) error {
		return tx.WriteUint64(o, accC, 3)
	}, wordBytes(1, 2, 0, 3)},
}

// TestWordPromotion: each trigger gives the block an in-flight copy with
// the logged words overlaid and removes their entries, so the block costs
// the one write entry a copy costs. The committed image and the replay of
// a crash image taken right after the durable mark both hold every store.
func TestWordPromotion(t *testing.T) {
	for _, pr := range promotions {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/crash=%v", pr.name, crash), func(t *testing.T) {
				h, mgr, pool, cls := openFA(t, true)
				acc := newAccount(t, h, cls, 100, 7, "acc")
				other := newAccount(t, h, cls, 50, 0, "other")
				tx, err := mgr.Begin()
				if err != nil {
					t.Fatal(err)
				}
				o := acc.Core()
				// A word in another block first, so the promoted block's
				// entries are not the log's last ones.
				if err := tx.WriteUint64(other.Core(), accA, 51); err != nil {
					t.Fatal(err)
				}
				if err := tx.WriteUint64(o, accA, 1); err != nil {
					t.Fatal(err)
				}
				if err := tx.WriteUint64(other.Core(), accB, 52); err != nil {
					t.Fatal(err)
				}
				if err := tx.WriteUint64(o, accB, 2); err != nil {
					t.Fatal(err)
				}
				if err := pr.apply(tx, o); err != nil {
					t.Fatal(err)
				}
				if tx.count != 3 || len(tx.words) != 2 || len(tx.writes) != 1 {
					t.Fatalf("after promotion: %d entries, %d words, %d copies; want 3, 2, 1", tx.count, len(tx.words), len(tx.writes))
				}
				if got, _ := tx.ReadBytes(o, accA, accLen); string(got) != string(pr.want) {
					t.Fatalf("Tx reads %x, want %x", got, pr.want)
				}
				if got := o.ReadUint64(accA); got != 100 {
					t.Fatalf("promotion wrote the original: accA = %d", got)
				}
				check := func(h *core.Heap) {
					t.Helper()
					a, _ := h.Root().Get("acc")
					b, _ := h.Root().Get("other")
					if got := a.Core().ReadBytes(accA, accLen); string(got) != string(pr.want) {
						t.Fatalf("block holds %x, want %x", got, pr.want)
					}
					if x, y := b.Core().ReadUint64(accA), b.Core().ReadUint64(accB); x != 51 || y != 52 {
						t.Fatalf("other block holds %d/%d, want 51/52", x, y)
					}
				}
				if !crash {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					check(h)
					return
				}
				tx.commitPrefix(2)
				h2, _, _, _ := reopenFA(t, pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1))))
				check(h2)
			})
		}
	}
}

// TestWordAbortLeavesBlockUntouched: an aborted Tx's word entries never
// reach the block, and it takes no block from any allocator.
func TestWordAbortLeavesBlockUntouched(t *testing.T) {
	h, mgr, pool, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 100, 7, "acc")
	blk := acc.BlockRefs()[0]
	before, heapBefore := pool.ReadBytes(blk, heap.BlockSize), h.Mem().ObsSnapshot()
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{accA, accB} {
		if err := tx.WriteUint64(acc.Core(), off, 999); err != nil {
			t.Fatal(err)
		}
	}
	tx.Abort()
	if got := pool.ReadBytes(blk, heap.BlockSize); string(got) != string(before) {
		t.Fatal("an aborted word store changed the block")
	}
	if n := blocksTaken(h.Mem().ObsSnapshot()) - blocksTaken(heapBefore); n != 0 {
		t.Fatalf("an aborted word-only Tx took %d blocks", n)
	}
}

// TestWordCommitCrashAtEveryStage crashes a word-only commit (a transfer:
// one word in each of two blocks) and a promoted one (the same, plus two
// more words in the first block) at every stage of the commit and under
// every crash policy. Recovery holds all of the commit or none of it:
// none before the mark is durable, all from then on.
func TestWordCommitCrashAtEveryStage(t *testing.T) {
	policies := []nvm.CrashPolicy{nvm.CrashStrict, nvm.CrashAll, nvm.CrashRandom, nvm.CrashTorn}
	for _, promoted := range []bool{false, true} {
		for stage := 0; stage <= 5; stage++ {
			for pi, policy := range policies {
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
				if promoted {
					for _, off := range []uint64{accB, accC} {
						if err := tx.WriteUint64(from.Core(), off, 1); err != nil {
							t.Fatal(err)
						}
					}
					if len(tx.writes) != 1 {
						t.Fatalf("third word did not promote: %d copies", len(tx.writes))
					}
				}
				tx.commitPrefix(stage)
				img := pool.CrashImage(policy, rand.New(rand.NewSource(int64(stage*len(policies)+pi))))
				h2, _, _, _ := reopenFA(t, img)
				f, _ := h2.Root().Get("from")
				g, _ := h2.Root().Get("to")
				fa, fb, ta := f.Core().ReadUint64(accA), f.Core().ReadUint64(accB), g.Core().ReadUint64(accA)
				committed := fa == 70 && ta == 80 && (!promoted || fb == 1)
				untouched := fa == 100 && ta == 50 && fb == 0
				if want := stage >= 2; committed != want || (!want && !untouched) {
					t.Fatalf("promoted=%v stage %d policy %v: recovered from %d/%d, to %d; want the commit %s",
						promoted, stage, policy, fa, fb, ta, map[bool]string{true: "whole", false: "absent"}[want])
				}
			}
		}
	}
}

// TestWordAsyncQueuedBlockDrains: a block held only by a queued commit's
// word entry is in the pending set, so another Tx's access to any word of
// it, and an AddDelta on it, drain the queue first.
func TestWordAsyncQueuedBlockDrains(t *testing.T) {
	for _, second := range []string{"Tx", "AddDelta"} {
		t.Run(second, func(t *testing.T) {
			h, mgr, _, cls := openFA(t, false)
			if err := mgr.SetGroupCommit(GroupOptions{Mode: CommitAsync, ManualDrain: true}); err != nil {
				t.Fatal(err)
			}
			acc := newAccount(t, h, cls, 100, 5, "acc")
			tx, err := mgr.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.WriteUint64(acc.Core(), accA, 150); err != nil {
				t.Fatal(err)
			}
			ticket, err := tx.CommitTicket()
			if err != nil {
				t.Fatal(err)
			}
			if mgr.DurableWatermark() >= ticket {
				t.Fatal("the commit drained at enqueue: test premise broken")
			}
			switch second {
			case "Tx":
				// accB is not the queued word, but it is in the queued block.
				if err := mgr.Run(func(tx *Tx) error {
					v, err := tx.ReadUint64(acc.Core(), accB)
					if err != nil {
						return err
					}
					return tx.WriteUint64(acc.Core(), accB, v+1)
				}); err != nil {
					t.Fatal(err)
				}
			case "AddDelta":
				if _, err := mgr.AddDelta(acc.BlockRefs()[0], heap.HeaderSize+accB, 1); err != nil {
					t.Fatal(err)
				}
			}
			if mgr.DurableWatermark() < ticket {
				t.Fatalf("%s on the queued block did not drain it first", second)
			}
			mgr.DrainDurable()
			if a, b := acc.ReadUint64(accA), acc.ReadUint64(accB); a != 150 || b != 6 {
				t.Fatalf("after the drains: %d/%d, want 150/6", a, b)
			}
		})
	}
}

// TestWordCommitFlushAccounting: a per-Tx commit of one word costs 4 pwb
// (the log line, W, the mark, the home line) and the two commit fences,
// and takes no block from any allocator.
func TestWordCommitFlushAccounting(t *testing.T) {
	h, mgr, pool, cls := openFA(t, false)
	acc := newAccount(t, h, cls, 0, 0, "acc")
	commit := func(v uint64) {
		if err := mgr.Run(func(tx *Tx) error { return tx.WriteUint64(acc.Core(), accB, v) }); err != nil {
			t.Fatal(err)
		}
	}
	commit(1) // warm: a predecessor is parked, the Tx is cached
	commit(2)
	before, heapBefore := pool.Obs().Snapshot(), h.Mem().ObsSnapshot()
	commit(3)
	d := pool.Obs().Snapshot().Sub(before)
	if d.PWBs != 4 || d.Fences() != CommitBarriers {
		t.Fatalf("one-word commit: %d pwb, %d fences; want 4, %d", d.PWBs, d.Fences(), CommitBarriers)
	}
	if n := blocksTaken(h.Mem().ObsSnapshot()) - blocksTaken(heapBefore); n != 0 {
		t.Fatalf("one-word commit took %d blocks, want 0", n)
	}
}

// TestWordLogFull: a slot of 10 entries holds two words in each of five
// blocks, the worst case of two entries per block, and refuses a word in a
// sixth block with ErrLogFull. A third word in a full block still fits,
// since the promotion swaps its two word entries for one write entry, and
// then so does the sixth block's word.
func TestWordLogFull(t *testing.T) {
	pool := nvm.New(1<<21, nvm.Options{})
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 2, LogSlotSize: slotEntries + 10*entrySize},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]*account, 6)
	for i := range accs {
		accs[i] = newAccount(t, h, cls, 0, 0, fmt.Sprintf("acc%d", i))
	}
	err = mgr.Run(func(tx *Tx) error {
		if tx.maxEntries != 10 {
			t.Fatalf("slot holds %d entries, want 10", tx.maxEntries)
		}
		for i, acc := range accs[:5] {
			for _, off := range []uint64{accA, accB} {
				if err := tx.WriteUint64(acc.Core(), off, uint64(i+1)); err != nil {
					return fmt.Errorf("block %d: %w", i, err)
				}
			}
		}
		if err := tx.WriteUint64(accs[5].Core(), accA, 6); !errors.Is(err, ErrLogFull) {
			return fmt.Errorf("a word in a sixth block: %v, want ErrLogFull", err)
		}
		if err := tx.WriteUint64(accs[0].Core(), accC, 1); err != nil {
			return fmt.Errorf("a third word in a full log: %w", err)
		}
		return tx.WriteUint64(accs[5].Core(), accA, 6)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, acc := range accs {
		if got := acc.ReadUint64(accA); got != uint64(i+1) {
			t.Fatalf("block %d: accA = %d, want %d", i, got, i+1)
		}
	}
}
