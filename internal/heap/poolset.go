package heap

import "fmt"

// Multi-pool sharding (DESIGN.md §17). A Ref is a pool-local offset, so a
// sharded heap is a set of fully independent pools: each one carries its
// own allocator (bump pointer, free queue, small-object pools), its own
// transient pools and its own EBR domain. Nothing here crosses pools —
// routing a key to its home pool is pure arithmetic on the key hash, and
// the object layers above (core, fa, store) stack per pool.

// KeyHash hashes a record key for pool routing (FNV-1a 64, inlined like
// the grid's stripe hash so routing stays allocation-free). It is
// deliberately a different function from the grid's 32-bit stripe hash:
// pool residency and lock striping must not correlate, or one pool's keys
// would collide onto a subset of the grid's stripes.
func KeyHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// JumpHash is Lamping-Veach jump consistent hashing: it maps hash to a
// bucket in [0, n) such that growing n to n+1 only moves keys into the
// new bucket (monotone growth), which is exactly the property the online
// pool-addition migration relies on — no key ever moves between two
// pre-existing pools.
func JumpHash(hash uint64, n int) int {
	if n <= 1 {
		return 0
	}
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		hash = hash*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((hash>>33)+1)))
	}
	return int(b)
}

// CheckRoster validates heaps as a multi-pool set in pool-index order.
// The set owns no persistent state at this level — the membership epoch
// table lives above (package shard keeps it in pool 0, mutated under
// J-PFA transactions) — but every pool must have been formatted as the
// position it is handed in at: its superblock either records the matching
// (index, count≥index) or is a legacy 0/0 image in position 0 — the
// byte-compatibility contract: any pre-sharding heap is a valid 1-pool
// set. Pools written at different counts (the instant after an online
// add) still pass.
func CheckRoster(heaps []*Heap) error {
	if len(heaps) == 0 {
		return fmt.Errorf("heap: empty pool set")
	}
	for i, h := range heaps {
		idx, cnt := h.PoolIndex(), h.PoolCount()
		if idx == 0 && cnt == 0 {
			if i != 0 {
				return fmt.Errorf("heap: standalone (unindexed) pool passed as set position %d", i)
			}
			continue
		}
		if idx != i {
			return fmt.Errorf("heap: pool formatted as index %d passed as set position %d", idx, i)
		}
		if cnt < idx+1 {
			return fmt.Errorf("heap: pool %d records impossible set size %d", idx, cnt)
		}
	}
	return nil
}
