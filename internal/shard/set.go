// Package shard implements the multi-pool NVMM heap of DESIGN.md §17: a
// set of fully independent per-pool stacks (nvm pool, block heap,
// object heap, redo-log manager, grid backend) with record routing by
// jump consistent hashing, shard-parallel recovery with an ordered
// merge, online pool addition through a persisted epoch table mutated
// under J-PFA transactions, and a crash-safe record migrator.
//
// Refs are pool-local offsets, so nothing persistent ever crosses a
// pool boundary; the only shared persistent state is the epoch table,
// a pdt.PLongArray bound to the root name "shard.epoch" in pool 0. A set
// has at least two pools: a single pool is opened standalone (package
// stack) with no table and no set position, so its image stays what a
// pre-sharding build wrote and reads.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/store"
)

// EpochRoot is the root-map name of the epoch table in pool 0.
const EpochRoot = "shard.epoch"

// Epoch table slots. The table is a pdt.PLongArray of epochSlots longs;
// topology transitions write it inside one failure-atomic block so the
// routing world flips atomically across a crash.
const (
	epEpoch     = 0 // topology generation, bumped by every finalized change
	epNPools    = 1 // committed routing world (reads may still probe here)
	epTargetN   = 2 // routing world for inserts; != epNPools while migrating
	epMigrating = 3 // 1 while a migration is underway
	epFallback  = 4 // sticky: some record may live off its home pool
	epochSlots  = 8 // headroom for future topology state
)

const gateStripes = 64

// Member is one pool's open stack: the pool, its recovered object heap,
// its redo-log manager and the grid backend built over them. The stack
// constructor (package stack) assembles members; the set only routes
// between them.
type Member struct {
	Pool    *nvm.Pool
	Heap    *core.Heap
	Mgr     *fa.Manager
	Backend store.Backend
}

// Snapshot captures the member's layer metrics as pool index i of a
// per-pool breakdown.
func (m Member) Snapshot(i int) obs.PoolSnapshot {
	p := obs.PoolSnapshot{
		Index: i,
		NVM:   m.Pool.Obs().Snapshot(),
		Heap:  m.Heap.Mem().ObsSnapshot(),
		FA:    m.Mgr.ObsSnapshot(),
	}
	if bump, free, total := m.Heap.Mem().Stats(); total > 0 {
		p.OccupancyPct = 100 * float64(bump-free) / float64(total)
	}
	return p
}

// topo is the immutable pool roster; AddPool swaps in a copy so the
// lock-free read path can load it with a single atomic pointer read.
// caps[i] is pools[i].Backend's descriptor, fetched once.
type topo struct {
	pools []Member
	caps  []store.Caps
}

// with returns a copy of the roster grown by one member.
func (t *topo) with(m Member, c store.Caps) *topo {
	return &topo{
		pools: append(append([]Member{}, t.pools...), m),
		caps:  append(append([]store.Caps{}, t.caps...), c),
	}
}

// Set is an open multi-pool heap.
type Set struct {
	mu   sync.Mutex // serializes topology changes
	fbMu sync.Mutex // serializes the sticky fallback-flag transaction

	topo atomic.Pointer[topo]

	// world packs the routing state for one-atomic-load decoding on the
	// hot path: epoch<<40 | nPools<<24 | targetN<<8 | migrating<<1 | fb.
	world atomic.Uint64

	epochArr *pdt.PLongArray

	// Write gate (only engaged while migrating): writers count themselves
	// in inflight; once locking is set they divert to per-key stripe
	// locks instead, and the migrator quiesces by waiting for inflight to
	// drain once. Reads stay lock-free throughout.
	locking  atomic.Bool
	inflight atomic.Int64
	stripes  [gateStripes]sync.Mutex

	// wire is the grid's capability wiring (EnableViewReads or
	// EnableLockFree), kept to replay onto pools added later.
	wire atomic.Pointer[func(store.Caps)]

	stats obs.ShardStats
}

func packWorld(epoch uint64, n, target int, migrating, fallback bool) uint64 {
	w := epoch<<40 | uint64(n)<<24 | uint64(target)<<8
	if migrating {
		w |= 2
	}
	if fallback {
		w |= 1
	}
	return w
}

func (s *Set) loadWorld() (epoch uint64, n, target int, migrating, fallback bool) {
	w := s.world.Load()
	return w >> 40, int(w >> 24 & 0xffff), int(w >> 8 & 0xffff), w&2 != 0, w&1 != 0
}

// storeWorld publishes a new routing world, preserving the fallback bit
// against a concurrent noteFallback (the only other world writer; all
// topology transitions hold s.mu).
func (s *Set) storeWorld(epoch uint64, n, target int, migrating bool) {
	for {
		w := s.world.Load()
		nw := packWorld(epoch, n, target, migrating, w&1 != 0)
		if s.world.CompareAndSwap(w, nw) {
			return
		}
	}
}

// wireAll applies the grid's capability wiring to every pool and keeps
// it for late joiners.
func (s *Set) wireAll(f func(store.Caps)) {
	s.wire.Store(&f)
	for _, c := range s.topo.Load().caps {
		f(c)
	}
}

// Open assembles a set over already-opened members in pool-index order
// (the stack constructor opens and recovers them concurrently): it
// validates the roster, reads or creates the epoch table, and replays
// any migration a crash interrupted — synchronously, before any traffic
// can observe the set.
// Every member must offer the same capabilities as member 0.
func Open(members []Member) (*Set, error) {
	n := len(members)
	if n < 2 {
		return nil, fmt.Errorf("shard: a set needs at least 2 pools, got %d", n)
	}

	// Validate the roster against each pool's superblock position and
	// descriptor.
	s := &Set{}
	mems := make([]*heap.Heap, n)
	caps := make([]store.Caps, n)
	for i, m := range members {
		mems[i], caps[i] = m.Heap.Mem(), m.Backend.Caps()
		if err := sameCaps(i, m, caps[i], members[0], caps[0]); err != nil {
			return nil, err
		}
	}
	if err := heap.CheckRoster(mems); err != nil {
		return nil, err
	}
	root := members[0].Heap

	// Read (or create) the epoch table in pool 0.
	epoch, routeN, targetN := uint64(1), n, n
	migrating, fallback := false, false
	po, err := root.Root().Get(EpochRoot)
	if err != nil {
		return nil, fmt.Errorf("shard: epoch table: %w", err)
	}
	if po == nil {
		// First open of freshly formatted pools.
		if s.epochArr, err = newEpochTable(root, n); err != nil {
			return nil, err
		}
	} else {
		arr, ok := po.(*pdt.PLongArray)
		if !ok {
			return nil, fmt.Errorf("shard: root %q is not a long array", EpochRoot)
		}
		s.epochArr = arr
		epoch = uint64(arr.Get(epEpoch))
		routeN = int(arr.Get(epNPools))
		targetN = int(arr.Get(epTargetN))
		migrating = arr.Get(epMigrating) != 0
		fallback = arr.Get(epFallback) != 0
		if targetN > n || routeN > n {
			return nil, fmt.Errorf("shard: epoch table expects %d pools (target %d) but %d were opened",
				routeN, targetN, n)
		}
		if !migrating && targetN < n {
			// A pool was formatted but its addition never became durable
			// (crash between format and the topology transaction). The
			// extra pools hold no routed data; keep routing by the table.
			n = targetN
		}
	}
	s.world.Store(packWorld(epoch, routeN, targetN, migrating, fallback))

	s.topo.Store(&topo{pools: members[:n], caps: caps[:n]})

	if migrating {
		// Finish what the crash interrupted before anyone sees the set.
		// moveKey is idempotent: a key found in both pools loses its old
		// copy, a key only in its old pool is re-moved.
		s.stats.MigrationResumes.Inc()
		if err := s.migrateAll(routeN, targetN, nil); err != nil {
			return nil, fmt.Errorf("shard: resume migration: %w", err)
		}
		if err := s.finalizeMigration(targetN); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sameCaps refuses pool i when its backend's descriptor differs from
// pool 0's: the set's descriptor promises every pool serves it.
func sameCaps(i int, m Member, c store.Caps, m0 Member, c0 store.Caps) error {
	if got, want := c.String(), c0.String(); got != want {
		return fmt.Errorf("shard: pool %d backend %s offers [%s], the set's %s offers [%s]",
			i, m.Backend.Name(), got, m0.Backend.Name(), want)
	}
	return nil
}

// newEpochTable creates the epoch table of an n-pool set in pool 0.
func newEpochTable(h *core.Heap, n int) (*pdt.PLongArray, error) {
	arr, err := pdt.NewLongArray(h, epochSlots)
	if err != nil {
		return nil, fmt.Errorf("shard: epoch table: %w", err)
	}
	arr.Set(epEpoch, 1)
	arr.Set(epNPools, int64(n))
	arr.Set(epTargetN, int64(n))
	arr.Flush()
	if err := h.Root().Put(EpochRoot, arr); err != nil {
		return nil, fmt.Errorf("shard: epoch table: %w", err)
	}
	return arr, nil
}

// ReadTopology reads the persisted epoch table of an (already
// recovered) pool-0 heap without opening a set around it — the fsck /
// crash-check entry point. A table-less heap reports the standalone
// topology (epoch 0, one pool, clean).
func ReadTopology(h *core.Heap) (epoch uint64, nPools, targetN int, migrating, fallback bool, err error) {
	po, err := h.Root().Get(EpochRoot)
	if err != nil {
		return 0, 0, 0, false, false, fmt.Errorf("shard: epoch table: %w", err)
	}
	if po == nil {
		return 0, 1, 1, false, false, nil
	}
	arr, ok := po.(*pdt.PLongArray)
	if !ok {
		return 0, 0, 0, false, false, fmt.Errorf("shard: root %q is not a long array", EpochRoot)
	}
	return uint64(arr.Get(epEpoch)), int(arr.Get(epNPools)), int(arr.Get(epTargetN)),
		arr.Get(epMigrating) != 0, arr.Get(epFallback) != 0, nil
}

// Pools returns the number of pools currently in the set.
func (s *Set) Pools() int { return len(s.topo.Load().pools) }

// Members returns the current roster in pool order (callers must not
// modify it).
func (s *Set) Members() []Member { return s.topo.Load().pools }

// Epoch returns the current topology generation.
func (s *Set) Epoch() uint64 { e, _, _, _, _ := s.loadWorld(); return e }

// Migrating reports whether a migration is underway.
func (s *Set) Migrating() bool { _, _, _, m, _ := s.loadWorld(); return m }

// Obs returns the live shard counters.
func (s *Set) Obs() *obs.ShardStats { return &s.stats }

// Close closes every pool's backend.
func (s *Set) Close() error {
	var first error
	for _, m := range s.topo.Load().pools {
		if err := m.Backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Snapshot captures the shard counters, topology gauges, and the
// per-pool layer breakdown.
func (s *Set) Snapshot() obs.ShardSnapshot {
	t := s.topo.Load()
	epoch, _, _, migrating, _ := s.loadWorld()
	sn := s.stats.Snapshot()
	sn.Pools = len(t.pools)
	sn.Epoch = epoch
	sn.Migrating = migrating
	sn.PerPool = make([]obs.PoolSnapshot, len(t.pools))
	for i, m := range t.pools {
		sn.PerPool[i] = m.Snapshot(i)
	}
	return sn
}

// ---- Write gate ----

// beginWrite announces a mutation of the record keyed by hash h and
// returns the stripe index to release, or -1 when the gate is open. The
// fast path is one counter increment and one flag load; only while a
// migration is running do writers divert to per-key stripe locks.
func (s *Set) beginWrite(h uint64) int {
	s.inflight.Add(1)
	if !s.locking.Load() {
		return -1
	}
	// Gate engaged: leave the fast-path population, then serialize
	// against the migrator on the key's stripe.
	s.inflight.Add(-1)
	idx := int(h>>32) & (gateStripes - 1)
	s.stripes[idx].Lock()
	return idx
}

func (s *Set) endWrite(idx int) {
	if idx < 0 {
		s.inflight.Add(-1)
		return
	}
	s.stripes[idx].Unlock()
}

// quiesce flips the gate on and waits out every writer that entered
// before the flip; afterwards all writers hold stripe locks and moveKey
// can rely on per-key mutual exclusion.
func (s *Set) quiesce() {
	s.locking.Store(true)
	for s.inflight.Load() != 0 {
		runtime.Gosched()
	}
}

func (s *Set) lockStripe(h uint64) func() {
	idx := int(h>>32) & (gateStripes - 1)
	s.stripes[idx].Lock()
	return s.stripes[idx].Unlock
}

// ---- Online pool addition and migration ----

// Migration is a handle on an in-flight (or completed) migration.
type Migration struct {
	done chan struct{}
	err  error
}

// Wait blocks until the migration finishes and returns its error.
func (m *Migration) Wait() error {
	<-m.done
	return m.err
}

// AddOptions tunes AddPool.
type AddOptions struct {
	// Async runs the record migration in a background goroutine (the
	// compactor); AddPool returns as soon as the new pool is a durable
	// member and inserts route to it. Wait() joins the migration.
	Async bool
	// Pacer throttles the migrator (nil = unthrottled).
	Pacer *Pacer
}

// AddPool grows the set by one pool online. The caller hands in the
// joiner already opened (step 1 is the stack constructor's):
//
//  1. format + recover the pool as index n, and make the formatting
//     durable (PSync) before the table can name it;
//  2. one failure-atomic transaction in pool 0 sets targetN=n+1 and
//     migrating=1 — from here the addition survives any crash, inserts
//     route over n+1 pools, and reads probe both worlds;
//  3. the migrator walks pools 0..n-1 and moves every record whose home
//     changed (insert at destination, PSync destination, delete at
//     source — so the new copy is durable strictly before the old one
//     dies);
//  4. a final transaction sets nPools=n+1, migrating=0, epoch+1.
//
// A crash anywhere after step 2 resumes at the next Open; a crash
// before it leaves a formatted-but-unnamed pool, which is simply empty.
// A joiner formatted for another position, or whose backend's descriptor
// differs from the set's, is refused.
func (s *Set) AddPool(m Member, opts AddOptions) (*Migration, error) {
	s.mu.Lock()
	t := s.topo.Load()
	_, routeN, _, migrating, _ := s.loadWorld()
	if migrating {
		s.mu.Unlock()
		return nil, fmt.Errorf("shard: a migration is already underway")
	}
	n := len(t.pools)
	caps := m.Backend.Caps()
	err := sameCaps(n, m, caps, t.pools[0], t.caps[0])
	if idx := m.Heap.Mem().PoolIndex(); err == nil && idx != n {
		err = fmt.Errorf("shard: pool formatted as index %d added as position %d", idx, n)
	}
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Replay grid capability wiring onto the late joiner.
	if f := s.wire.Load(); f != nil {
		(*f)(caps)
	}

	// Step 2: the topology transaction. After this commits, the
	// addition is crash-durable and cannot roll back. fbMu keeps the
	// commit's line write-back from clobbering a concurrent direct
	// fallback-flag store (same cache line); the flag's current value is
	// re-asserted inside the transaction.
	arr := s.epochArr
	s.fbMu.Lock()
	_, _, _, _, fbNow := s.loadWorld()
	err = t.pools[0].Mgr.Run(func(tx *fa.Tx) error {
		if err := arr.SetTx(tx, epTargetN, int64(n+1)); err != nil {
			return err
		}
		if err := arr.SetTx(tx, epMigrating, 1); err != nil {
			return err
		}
		fb := int64(0)
		if fbNow {
			fb = 1
		}
		return arr.SetTx(tx, epFallback, fb)
	})
	if err == nil {
		t.pools[0].Mgr.DrainDurable() // async commit mode: force the epoch out
	}
	s.fbMu.Unlock()
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("shard: topology tx: %w", err)
	}

	// Publish the grown roster and the migrating world.
	s.topo.Store(t.with(m, caps))
	s.storeWorld(uint64(arr.Get(epEpoch)), routeN, n+1, true)

	// Steps 3-4, with writers diverted to stripe locks first.
	s.quiesce()
	mig := &Migration{done: make(chan struct{})}
	run := func() {
		defer s.mu.Unlock()
		defer close(mig.done)
		if err := s.migrateAll(routeN, n+1, opts.Pacer); err != nil {
			mig.err = err
			return
		}
		mig.err = s.finalizeMigration(n + 1)
		if mig.err == nil {
			s.stats.PoolAdds.Inc()
		}
	}
	if opts.Async {
		go run()
	} else {
		run()
	}
	return mig, nil
}

// migrateAll walks every pre-existing pool and moves the records whose
// home pool changed under the new world. Keys are walked in sorted
// order per pool, so a resumed migration retraces the original's steps.
func (s *Set) migrateAll(oldN, newN int, pacer *Pacer) error {
	t := s.topo.Load()
	for p := 0; p < oldN; p++ {
		kl := t.caps[p].Keys
		if kl == nil {
			return fmt.Errorf("shard: backend %s cannot enumerate keys", t.pools[p].Backend.Name())
		}
		for _, key := range kl.Keys() {
			hash := heap.KeyHash(key)
			dst := heap.JumpHash(hash, newN)
			if dst == p {
				continue
			}
			// dst != p also catches records parked off-home by a
			// pool-full fallback: migration re-homes them.
			if err := s.moveKey(t, key, hash, p, dst, pacer); err != nil {
				return err
			}
		}
	}
	return nil
}

// moveKey relocates one record, idempotently and crash-safely: the new
// copy is made durable (backend discipline + PSync) strictly before the
// old copy is deleted, so a crash can duplicate a record across pools
// but never lose it — and resume deletes the stale copy.
func (s *Set) moveKey(t *topo, key string, hash uint64, src, dst int, pacer *Pacer) error {
	unlock := s.lockStripe(hash)
	defer unlock()

	var rec store.Record
	found, err := t.pools[src].Backend.Read(key, func(name string, value []byte) {
		v := make([]byte, len(value))
		copy(v, value)
		rec.Fields = append(rec.Fields, store.Field{Name: name, Value: v})
	})
	if err != nil {
		return fmt.Errorf("shard: migrate %q read: %w", key, err)
	}
	if !found {
		return nil // deleted, or already moved by the run a crash cut short
	}
	already, err := t.pools[dst].Backend.Read(key, func(string, []byte) {})
	if err != nil {
		return fmt.Errorf("shard: migrate %q probe: %w", key, err)
	}
	if !already {
		if err := t.pools[dst].Backend.Insert(key, &rec); err != nil {
			return fmt.Errorf("shard: migrate %q insert: %w", key, err)
		}
		t.pools[dst].Mgr.DrainDurable()
		t.pools[dst].Pool.PSync()
	}
	if _, err := t.pools[src].Backend.Delete(key); err != nil {
		return fmt.Errorf("shard: migrate %q delete: %w", key, err)
	}
	s.stats.MigratedRecords.Inc()
	s.stats.MigratedBytes.Add(uint64(rec.Size()))
	if pacer != nil {
		pacer.pace(&s.stats)
	}
	return nil
}

// finalizeMigration commits the new world — one failure-atomic
// transaction, idempotent under resume — and reopens the write gate.
func (s *Set) finalizeMigration(newN int) error {
	t := s.topo.Load()
	arr := s.epochArr
	// Every source-pool delete must be durable before the topology
	// transaction declares the world clean: a crash after the commit but
	// before a straggling delete line fenced would resurrect the old
	// copy of a migrated record in a world that no longer probes for
	// duplicates.
	for _, m := range t.pools {
		m.Pool.PSync()
	}
	s.fbMu.Lock()
	_, _, _, _, fbNow := s.loadWorld()
	err := t.pools[0].Mgr.Run(func(tx *fa.Tx) error {
		cur, err := arr.GetTx(tx, epEpoch)
		if err != nil {
			return err
		}
		if err := arr.SetTx(tx, epEpoch, cur+1); err != nil {
			return err
		}
		if err := arr.SetTx(tx, epNPools, int64(newN)); err != nil {
			return err
		}
		if err := arr.SetTx(tx, epMigrating, 0); err != nil {
			return err
		}
		fb := int64(0)
		if fbNow {
			fb = 1
		}
		return arr.SetTx(tx, epFallback, fb)
	})
	if err == nil {
		t.pools[0].Mgr.DrainDurable()
	}
	s.fbMu.Unlock()
	if err != nil {
		return fmt.Errorf("shard: finalize tx: %w", err)
	}
	s.storeWorld(uint64(arr.Get(epEpoch)), newN, newN, false)
	s.locking.Store(false)
	return nil
}

// noteFallback makes off-home probing sticky before a fallback insert
// lands, so the record is reachable whatever the crash point. The flag
// only ever goes 0→1; a full migration could clear it, but staying
// conservative costs only extra probes on missing keys.
//
// The flag is persisted with a direct single-word write, not a
// failure-atomic block: an 8-byte aligned store is crash-atomic by
// itself, and — decisively — the redo log would have to allocate an
// in-flight block in pool 0, which may be the very pool that just ran
// out of memory. fbMu (held innermost, also around the topology
// transactions) keeps the direct write from racing a transaction's
// line-granular commit write-back of the same cache line.
func (s *Set) noteFallback() error {
	// Deliberately NOT s.mu: a gated writer calls this while holding a
	// stripe lock, and the migrator holds s.mu while waiting on stripes.
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if _, _, _, _, fallback := s.loadWorld(); fallback {
		return nil
	}
	t := s.topo.Load()
	s.epochArr.Set(epFallback, 1)
	s.epochArr.FlushElem(epFallback)
	t.pools[0].Pool.PSync()
	for {
		w := s.world.Load()
		if s.world.CompareAndSwap(w, w|1) {
			return nil
		}
	}
}

// errIsOOM reports an arena-exhaustion failure worth rerouting.
func errIsOOM(err error) bool { return errors.Is(err, heap.ErrOutOfMemory) }
