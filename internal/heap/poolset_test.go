package heap

import (
	"fmt"
	"testing"

	"repro/internal/nvm"
)

func TestJumpHashRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for k := uint64(0); k < 2000; k++ {
			h := KeyHash(fmt.Sprintf("user%d", k))
			b := JumpHash(h, n)
			if b < 0 || b >= n {
				t.Fatalf("JumpHash(%d, %d) = %d out of range", h, n, b)
			}
		}
	}
}

func TestJumpHashMonotoneGrowth(t *testing.T) {
	// Growing n -> n+1 may only move keys INTO the new bucket. No key may
	// move between two pre-existing buckets — that is the property online
	// pool addition relies on.
	for n := 1; n < 8; n++ {
		moved, total := 0, 0
		for k := uint64(0); k < 4000; k++ {
			h := KeyHash(fmt.Sprintf("rec-%d", k))
			before, after := JumpHash(h, n), JumpHash(h, n+1)
			if before != after {
				if after != n {
					t.Fatalf("key %d moved %d -> %d growing %d -> %d pools (not the new pool)",
						k, before, after, n, n+1)
				}
				moved++
			}
			total++
		}
		// Expected move fraction is 1/(n+1); allow generous slack.
		frac := float64(moved) / float64(total)
		want := 1.0 / float64(n+1)
		if frac < want/2 || frac > want*2 {
			t.Fatalf("growth %d->%d moved %.3f of keys, want ~%.3f", n, n+1, frac, want)
		}
	}
}

func TestJumpHashBalance(t *testing.T) {
	const n, keys = 4, 8000
	var counts [n]int
	for k := 0; k < keys; k++ {
		counts[JumpHash(KeyHash(fmt.Sprintf("user%08d", k)), n)]++
	}
	for i, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Fatalf("pool %d got %d of %d keys (counts %v)", i, c, keys, counts)
		}
	}
}

func testHeapWithIndex(t *testing.T, idx, cnt int) *Heap {
	t.Helper()
	pool := nvm.New(1<<20, nvm.Options{})
	h, err := Format(pool, Options{
		LogSlots: 4, LogSlotSize: 1 << 12,
		PoolIndex: idx, PoolCount: cnt,
	})
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	return h
}

func TestPoolIndexPersisted(t *testing.T) {
	pool := nvm.New(1<<20, nvm.Options{})
	h, err := Format(pool, Options{LogSlots: 4, LogSlotSize: 1 << 12, PoolIndex: 3, PoolCount: 8})
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	if h.PoolIndex() != 3 || h.PoolCount() != 8 {
		t.Fatalf("fresh heap reports %d/%d, want 3/8", h.PoolIndex(), h.PoolCount())
	}
	re, err := Open(pool)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.PoolIndex() != 3 || re.PoolCount() != 8 {
		t.Fatalf("reopened heap reports %d/%d, want 3/8", re.PoolIndex(), re.PoolCount())
	}
}

func TestLegacyHeapIsPoolZero(t *testing.T) {
	// A heap formatted without pool options must decode as pool 0 of a
	// standalone set — the byte-compat contract for pre-sharding images.
	pool := nvm.New(1<<20, nvm.Options{})
	h, err := Format(pool, Options{LogSlots: 4, LogSlotSize: 1 << 12})
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	if h.PoolIndex() != 0 || h.PoolCount() != 0 {
		t.Fatalf("legacy heap reports %d/%d, want 0/0", h.PoolIndex(), h.PoolCount())
	}
	if err := CheckRoster([]*Heap{h}); err != nil {
		t.Fatalf("legacy heap rejected as 1-pool set: %v", err)
	}
}

func TestCheckRoster(t *testing.T) {
	if err := CheckRoster(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	// Mismatched index must be rejected.
	wrong := testHeapWithIndex(t, 2, 4)
	if err := CheckRoster([]*Heap{wrong}); err == nil {
		t.Fatal("pool with index 2 accepted at position 0")
	}
	// Proper 3-pool set.
	var hs []*Heap
	for i := 0; i < 3; i++ {
		hs = append(hs, testHeapWithIndex(t, i, 3))
	}
	if err := CheckRoster(hs); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	// A grown roster holds pools written at different counts; the joiner
	// must still carry the next index.
	if err := CheckRoster(append(hs[:3:3], testHeapWithIndex(t, 5, 6))); err == nil {
		t.Fatal("index-5 pool accepted as position 3")
	}
	if err := CheckRoster(append(hs[:3:3], testHeapWithIndex(t, 3, 4))); err != nil {
		t.Fatalf("index-3 pool rejected as position 3: %v", err)
	}
}
