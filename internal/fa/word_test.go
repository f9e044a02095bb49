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

// The word path: a transactional store to a valid block logs each aligned
// 8-byte word it touches as one kindWord entry (access.go).

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
		if tx.count != 1 || len(tx.words) != 1 || len(tx.written) != 1 {
			t.Errorf("three stores to one word: %d entries, %d words, %d blocks; want 1, 1, 1", tx.count, len(tx.words), len(tx.written))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := acc.ReadUint64(accA), acc.ReadUint64(accB); a != 3 || b != 7 {
		t.Fatalf("committed %d/%d, want 3/7", a, b)
	}
	if s := mgr.ObsSnapshot(); s.WordEntries != 1 {
		t.Fatalf("counted %d word entries, want 1", s.WordEntries)
	}
}

// touch is a store that is not one aligned word: the offset and bytes it
// writes to an account, and how many words it touches.
type touch struct {
	name  string
	apply func(tx *Tx, o *core.Object) error
	off   uint64
	bytes []byte
	words int
}

var touches = []touch{
	{"WriteUint32", func(tx *Tx, o *core.Object) error {
		return tx.WriteUint32(o, accB+4, 0xabcd)
	}, accB + 4, binary.LittleEndian.AppendUint32(nil, 0xabcd), 1},
	{"unaligned WriteUint64", func(tx *Tx, o *core.Object) error {
		return tx.WriteUint64(o, accA+4, 0x0102030405060708)
	}, accA + 4, binary.LittleEndian.AppendUint64(nil, 0x0102030405060708), 2},
	{"WriteBytes over two words", func(tx *Tx, o *core.Object) error {
		return tx.WriteBytes(o, accA+6, []byte{9, 8, 7, 6})
	}, accA + 6, []byte{9, 8, 7, 6}, 2},
}

// TestWordsTouched: a sub-word store, an unaligned word store and a byte
// store across two words each log exactly the words they touch, each entry
// starting from its home word, so the Tx reads its own bytes next to the
// untouched ones of the same words. The committed image and the replay of
// a crash image taken right after the durable mark both hold every byte.
// (It replaces a test of the three triggers that promoted a word-logged
// block to an in-flight copy; there is no copy now.)
func TestWordsTouched(t *testing.T) {
	const homeA, homeB = 0x1111111111111111, 0x2222222222222222
	for _, tc := range touches {
		want := wordBytes(homeA, homeB, 0, 0)
		copy(want[tc.off:], tc.bytes)
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/crash=%v", tc.name, crash), func(t *testing.T) {
				h, mgr, pool, cls := openFA(t, true)
				acc := newAccount(t, h, cls, homeA, homeB, "acc")
				other := newAccount(t, h, cls, 50, 0, "other")
				tx, err := mgr.Begin()
				if err != nil {
					t.Fatal(err)
				}
				o := acc.Core()
				// Words in another block before and after, so the store's
				// entries are neither the log's first nor its last.
				if err := tx.WriteUint64(other.Core(), accA, 51); err != nil {
					t.Fatal(err)
				}
				if err := tc.apply(tx, o); err != nil {
					t.Fatal(err)
				}
				if err := tx.WriteUint64(other.Core(), accB, 52); err != nil {
					t.Fatal(err)
				}
				if n := 2 + tc.words; tx.count != uint64(n) || len(tx.words) != n || len(tx.written) != 2 {
					t.Fatalf("%d entries, %d words, %d blocks; want %d, %d, 2", tx.count, len(tx.words), len(tx.written), n, n)
				}
				if got, _ := tx.ReadBytes(o, accA, accLen); string(got) != string(want) {
					t.Fatalf("Tx reads %x, want %x", got, want)
				}
				if got, _ := tx.ReadUint64(o, accA+4); got != binary.LittleEndian.Uint64(want[4:]) {
					t.Fatalf("Tx reads the unaligned word %#x, want %#x", got, binary.LittleEndian.Uint64(want[4:]))
				}
				if got := o.ReadUint64(accA); got != homeA {
					t.Fatalf("the store wrote the original: accA = %#x", got)
				}
				check := func(h *core.Heap) {
					t.Helper()
					a, _ := h.Root().Get("acc")
					b, _ := h.Root().Get("other")
					if got := a.Core().ReadBytes(accA, accLen); string(got) != string(want) {
						t.Fatalf("block holds %x, want %x", got, want)
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

func wordBytes(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
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

// TestWordCommitCrashAtEveryStage crashes a transfer (one word in each of
// two blocks) and a wide commit (the same, plus two more words in the
// first block and a sub-word store to one of them) at every stage of the
// commit and under every crash policy. Recovery holds all of the commit or
// none of it: none before the mark is durable, all from then on. (The wide
// case replaces one whose third word promoted the block to an in-flight
// copy.)
func TestWordCommitCrashAtEveryStage(t *testing.T) {
	policies := []nvm.CrashPolicy{nvm.CrashStrict, nvm.CrashAll, nvm.CrashRandom, nvm.CrashTorn}
	const wideC = 1 | 2<<32
	for _, wide := range []bool{false, true} {
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
				if wide {
					for _, off := range []uint64{accB, accC} {
						if err := tx.WriteUint64(from.Core(), off, 1); err != nil {
							t.Fatal(err)
						}
					}
					if err := tx.WriteUint32(from.Core(), accC+4, 2); err != nil {
						t.Fatal(err)
					}
					if tx.count != 4 {
						t.Fatalf("four words logged as %d entries", tx.count)
					}
				}
				tx.commitPrefix(stage)
				img := pool.CrashImage(policy, rand.New(rand.NewSource(int64(stage*len(policies)+pi))))
				h2, _, _, _ := reopenFA(t, img)
				f, _ := h2.Root().Get("from")
				g, _ := h2.Root().Get("to")
				fa, fb, fc := f.Core().ReadUint64(accA), f.Core().ReadUint64(accB), f.Core().ReadUint64(accC)
				ta := g.Core().ReadUint64(accA)
				committed := fa == 70 && ta == 80 && (!wide || fb == 1 && fc == wideC)
				untouched := fa == 100 && ta == 50 && fb == 0 && fc == 0
				if want := stage >= 2; committed != want || (!want && !untouched) {
					t.Fatalf("wide=%v stage %d policy %v: recovered from %d/%d/%#x, to %d; want the commit %s",
						wide, stage, policy, fa, fb, fc, ta, map[bool]string{true: "whole", false: "absent"}[want])
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

// TestWordLogFull: a slot of size bytes holds (size - 16)/24 distinct
// words, 682 at the default 16 KiB. Here a slot of 10 entries takes ten
// words in five blocks and refuses an eleventh with ErrLogFull, while a
// store to a word it already logged still lands. The Tx then aborts
// cleanly: no block changed, and the slot commits the next Tx. (The bound
// replaces "two words per block before a copy".)
func TestWordLogFull(t *testing.T) {
	_, defMgr, _, _ := openFA(t, false)
	if err := defMgr.Run(func(tx *Tx) error {
		if tx.maxEntries != 682 {
			t.Errorf("a 16 KiB slot holds %d words, want 682", tx.maxEntries)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
	full := errors.New("log full")
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
			return fmt.Errorf("an eleventh word: %v, want ErrLogFull", err)
		}
		if err := tx.WriteUint32(accs[0].Core(), accA+4, 7); err != nil {
			return fmt.Errorf("a store to a logged word in a full log: %w", err)
		}
		return full
	})
	if err != full {
		t.Fatal(err)
	}
	for i, acc := range accs {
		if a, b := acc.ReadUint64(accA), acc.ReadUint64(accB); a != 0 || b != 0 {
			t.Fatalf("block %d holds %d/%d after the abort, want 0/0", i, a, b)
		}
	}
	if err := mgr.Run(func(tx *Tx) error { return tx.WriteUint64(accs[5].Core(), accA, 6) }); err != nil {
		t.Fatal(err)
	}
	if got := accs[5].ReadUint64(accA); got != 6 {
		t.Fatalf("after the abort a commit wrote %d, want 6", got)
	}
}
