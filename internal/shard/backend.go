package shard

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/store"
)

// Backend returns the set's grid backend: one routing type whatever the
// pools hold. What it can do beyond store.Backend is its descriptor.
func (s *Set) Backend() store.Backend { return &shardBackend{s: s} }

// shardBackend routes grid operations to per-pool backends. Reads are
// lock-free; writes pass the migration gate (one counter bump and one
// flag load when no migration is running).
type shardBackend struct{ s *Set }

// Caps implements store.Backend. Every pool of a set has the same
// descriptor (Open and AddPool refuse a pool that differs), so the set
// offers what pool 0 offers, each operation routed through probe and,
// for writes, the gate. Scan stays absent: an ordered scan would have to
// merge the pools' orders, and no caller shards an ordered map.
func (b *shardBackend) Caps() store.Caps {
	c := b.s.topo.Load().caps[0]
	var out store.Caps
	if c.Keys != nil {
		out.Keys = b
	}
	if c.View != nil {
		out.View = b
	}
	if c.LockFree != nil {
		out.LockFree = b
	}
	if c.Delta != nil {
		out.Delta = b
	}
	return out
}

// Name implements store.Backend.
func (b *shardBackend) Name() string { return b.s.topo.Load().pools[0].Backend.Name() + "×shard" }

// home returns the insert-world pool for hash: targetN during a
// migration (record placement never has to be redone), nPools otherwise.
func home(hash uint64, target int) int { return heap.JumpHash(hash, target) }

// Insert implements store.Backend: route to the home pool of the
// insert world; on arena exhaustion, persist the sticky fallback flag
// and ring-probe the remaining pools so a full pool degrades instead of
// failing the workload.
func (b *shardBackend) Insert(key string, rec *store.Record) error {
	s := b.s
	hash := heap.KeyHash(key)
	gate := s.beginWrite(hash)
	defer s.endWrite(gate)
	t := s.topo.Load()
	_, _, target, _, _ := s.loadWorld()
	h := home(hash, target)
	err := t.pools[h].Backend.Insert(key, rec)
	if err == nil || !errIsOOM(err) {
		return err
	}
	for i := 1; i < len(t.pools); i++ {
		p := (h + i) % len(t.pools)
		// The flag must be durable before the off-home record exists,
		// or a crash could strand it where no probe ever looks.
		if ferr := s.noteFallback(); ferr != nil {
			return err
		}
		if ierr := t.pools[p].Backend.Insert(key, rec); ierr == nil {
			s.stats.FallbackInserts.Inc()
			return nil
		} else if !errIsOOM(ierr) {
			return ierr
		}
	}
	return err
}

// probe calls fn over the candidate pools in probe order — home in the
// insert world, then home in the committed world while they differ,
// then everywhere if off-home records may exist — until fn reports a
// hit. It reports whether fn ever hit.
func (b *shardBackend) probe(t *topo, hash uint64, fn func(p int) (bool, error)) (bool, error) {
	s := b.s
	_, n, target, migrating, fallback := s.loadWorld()
	h := home(hash, target)
	found, err := fn(h)
	if found || err != nil {
		return found, err
	}
	if n != target {
		s.stats.ProbeMisses.Inc()
		if found, err = fn(heap.JumpHash(hash, n)); found || err != nil {
			return found, err
		}
	}
	if fallback || migrating {
		old := heap.JumpHash(hash, n)
		for p := range t.pools {
			if p == h || (n != target && p == old) {
				continue
			}
			s.stats.ProbeMisses.Inc()
			if found, err = fn(p); found || err != nil {
				return found, err
			}
		}
	}
	return false, nil
}

// Read implements store.Backend. During a migration a record can be
// mid-flight between its copy landing in the new pool and the old copy
// dying, so a full miss while migrating is retried once — the second
// pass must see one of the two copies.
func (b *shardBackend) Read(key string, consume func(name string, value []byte)) (bool, error) {
	s := b.s
	hash := heap.KeyHash(key)
	read := func(p int) (bool, error) {
		return s.topo.Load().pools[p].Backend.Read(key, consume)
	}
	found, err := b.probe(s.topo.Load(), hash, read)
	if !found && err == nil && s.Migrating() {
		found, err = b.probe(s.topo.Load(), hash, read)
	}
	return found, err
}

// write runs one mutation of an existing record behind the migration
// gate: the first probed pool holding the key wins. Writers hold the
// stripe lock while a migration runs, so the record cannot move between
// the probe and the mutation.
func (b *shardBackend) write(key string, fn func(t *topo, p int) (bool, error)) (bool, error) {
	s := b.s
	hash := heap.KeyHash(key)
	gate := s.beginWrite(hash)
	defer s.endWrite(gate)
	t := s.topo.Load()
	return b.probe(t, hash, func(p int) (bool, error) { return fn(t, p) })
}

// Update implements store.Backend.
func (b *shardBackend) Update(key string, fields []store.Field) (bool, error) {
	return b.write(key, func(t *topo, p int) (bool, error) {
		return t.pools[p].Backend.Update(key, fields)
	})
}

// Delete implements store.Backend.
func (b *shardBackend) Delete(key string) (bool, error) {
	return b.write(key, func(t *topo, p int) (bool, error) {
		return t.pools[p].Backend.Delete(key)
	})
}

// errAbsent answers a capability method called on a set whose pools lack
// it. The one routing type has every capability's methods, so a caller
// that type-asserts the backend instead of reading Caps() (the pinned
// benchmark harness does, for store.DeltaAdder) can reach one the
// descriptor leaves out.
var errAbsent = errors.New("shard: the set's pools lack this capability (see Caps)")

// AddDelta implements store.DeltaAdder: the delta folds in the ledger of
// the pool that holds the key, so a sharded J-PFA grid keeps one log
// entry per hot word per pool epoch.
func (b *shardBackend) AddDelta(key, field string, delta int64) (bool, error) {
	if b.s.topo.Load().caps[0].Delta == nil {
		return false, errAbsent
	}
	return b.write(key, func(t *topo, p int) (bool, error) {
		return t.caps[p].Delta.AddDelta(key, field, delta)
	})
}

// Count implements store.Backend.
func (b *shardBackend) Count() int {
	n := 0
	for _, m := range b.s.topo.Load().pools {
		n += m.Backend.Count()
	}
	return n
}

// Close implements store.Backend.
func (b *shardBackend) Close() error { return b.s.Close() }

// Keys implements store.KeyLister: the merged, sorted key set (nil when
// the pools cannot list keys).
func (b *shardBackend) Keys() []string {
	var all []string
	for _, c := range b.s.topo.Load().caps {
		if c.Keys != nil {
			all = append(all, c.Keys.Keys()...)
		}
	}
	sort.Strings(all)
	return all
}

// EnableViewReads implements store.ViewReader.
func (b *shardBackend) EnableViewReads(rs *obs.ReadStats) {
	b.s.wireAll(func(c store.Caps) {
		if c.View != nil {
			c.View.EnableViewReads(rs)
		}
	})
}

// EnableLockFree implements store.LockFreeBackend: the grid then skips
// its stripe locks entirely, and per-key exclusion during migration
// comes from the set's own write gate.
func (b *shardBackend) EnableLockFree(rs *obs.ReadStats) {
	b.s.wireAll(func(c store.Caps) {
		if c.LockFree != nil {
			c.LockFree.EnableLockFree(rs)
		}
	})
}

// ReadView implements store.ViewReader by probing pools in home order.
// The grid's seqlock protocol is unchanged — each child revalidates the
// caller's generation itself, so the first child that reports
// found-and-valid delivered a write-free snapshot. Pools without view
// reads answer !ok, the grid's cue for its locked path.
func (b *shardBackend) ReadView(key string, hint uint32, gen *atomic.Uint64, g1 uint64,
	consume func(name string, value []byte)) (found, valid, ok bool) {
	t := b.s.topo.Load()
	if t.caps[0].View == nil {
		return false, true, false
	}
	valid, ok = true, true
	// The probe closure never returns an error.
	f, _ := b.probe(t, heap.KeyHash(key), func(p int) (bool, error) {
		pf, pv, pok := t.caps[p].View.ReadView(key, hint, gen, g1, consume)
		if !pv || !pok {
			// Generation race or a shape the unlocked reader cannot
			// handle: stop probing and let the grid retry or fall back.
			valid, ok = pv, pok
			return true, nil
		}
		return pf, nil
	})
	return f && valid && ok, valid, ok
}

// Pacer is the obs-driven throttle for the background migrator: it
// watches the live MigratedBytes counter and sleeps whenever the
// observed migration rate runs ahead of BytesPerSec, so rebalancing
// yields bandwidth to foreground traffic.
type Pacer struct {
	BytesPerSec int

	start time.Time
	base  uint64
}

func (p *Pacer) pace(stats *obs.ShardStats) {
	if p.BytesPerSec <= 0 {
		return
	}
	if p.start.IsZero() {
		p.start = time.Now()
		p.base = stats.MigratedBytes.Load()
		return
	}
	moved := stats.MigratedBytes.Load() - p.base
	ahead := time.Duration(moved)*time.Second/time.Duration(p.BytesPerSec) - time.Since(p.start)
	if ahead > time.Millisecond {
		stats.PacerWaits.Inc()
		time.Sleep(ahead)
	}
}
