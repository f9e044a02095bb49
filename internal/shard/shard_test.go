package shard_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stack"
	"repro/internal/store"
)

// The tests open their sets the way every caller does, through the stack
// constructor: 16 log slots of 16 KiB, J-PDT pools unless a test says
// otherwise, par recovery workers in total.
func testConfig(par int) stack.Config {
	return stack.Config{Backend: stack.JPDT, LogSlots: 16, LogSlotSize: 1 << 14, Parallelism: par}
}

func kindConfig(kind string) stack.Config {
	cfg := testConfig(1)
	cfg.Backend = kind
	return cfg
}

// openSet opens pools as a sharded stack; its Set is what is under test.
func openSet(t *testing.T, pools []*nvm.Pool, cfg stack.Config) *stack.Stack {
	t.Helper()
	st, err := stack.Open(pools, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newPools(n int, bytes int) []*nvm.Pool {
	ps := make([]*nvm.Pool, n)
	for i := range ps {
		ps[i] = nvm.New(bytes, nvm.Options{})
	}
	return ps
}

func rec(v string) *store.Record {
	return &store.Record{Fields: []store.Field{{Name: "field0", Value: []byte(v)}}}
}

func readVal(t *testing.T, b store.Backend, key string) (string, bool) {
	t.Helper()
	var got string
	found, err := b.Read(key, func(name string, value []byte) { got = string(value) })
	if err != nil {
		t.Fatalf("read %q: %v", key, err)
	}
	return got, found
}

func TestShardBasicOps(t *testing.T) {
	pools := newPools(4, 4<<20)
	s := openSet(t, pools, testConfig(2)).Set
	b := s.Backend()
	const n = 500
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user%d", i)
		if err := b.Insert(key, rec("v"+key)); err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
	}
	if got := b.Count(); got != n {
		t.Fatalf("count %d, want %d", got, n)
	}
	// Records actually spread across pools.
	for i := 0; i < 4; i++ {
		if c := s.Members()[i].Backend.Count(); c == 0 || c == n {
			t.Fatalf("pool %d holds %d of %d records — not sharded", i, c, n)
		}
	}
	// Every record routed to its jump-hash home.
	for i := 0; i < 4; i++ {
		for _, key := range s.Members()[i].Backend.Caps().Keys.Keys() {
			if home := heap.JumpHash(heap.KeyHash(key), 4); home != i {
				t.Fatalf("key %q in pool %d, home %d", key, i, home)
			}
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user%d", i)
		if got, found := readVal(t, b, key); !found || got != "v"+key {
			t.Fatalf("read %s: found=%v got=%q", key, found, got)
		}
	}
	if _, err := b.Update("user7", []store.Field{{Name: "field0", Value: []byte("upd")}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := readVal(t, b, "user7"); got != "upd" {
		t.Fatalf("update not visible: %q", got)
	}
	if found, err := b.Delete("user8"); err != nil || !found {
		t.Fatalf("delete: %v found=%v", err, found)
	}
	if _, found := readVal(t, b, "user8"); found {
		t.Fatal("deleted key still readable")
	}
	if b.Count() != n-1 {
		t.Fatalf("count after delete %d", b.Count())
	}
}

func TestShardReopen(t *testing.T) {
	pools := newPools(3, 4<<20)
	s := openSet(t, pools, testConfig(1)).Set
	b := s.Backend()
	for i := 0; i < 200; i++ {
		if err := b.Insert(fmt.Sprintf("k%d", i), rec(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	re := openSet(t, pools, testConfig(4)).Set
	rb := re.Backend()
	if rb.Count() != 200 {
		t.Fatalf("reopened count %d", rb.Count())
	}
	for i := 0; i < 200; i++ {
		if got, found := readVal(t, rb, fmt.Sprintf("k%d", i)); !found || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d: found=%v got=%q", i, found, got)
		}
	}
	if re.Epoch() != 1 || re.Migrating() {
		t.Fatalf("epoch %d migrating %v after clean reopen", re.Epoch(), re.Migrating())
	}
	for i, m := range re.Members() {
		if m.Heap.RecoveryStats.LiveObjects == 0 {
			t.Fatalf("pool %d recovered no live objects", i)
		}
	}
}

// TestShardRecoveryOracle cross-checks shard-parallel recovery against
// the serial §4.1.3 oracle: the same images opened with parallelism 1
// and 8 must expose identical data.
func TestShardRecoveryOracle(t *testing.T) {
	pools := newPools(4, 4<<20)
	s := openSet(t, pools, testConfig(1)).Set
	b := s.Backend()
	for i := 0; i < 300; i++ {
		if err := b.Insert(fmt.Sprintf("u%d", i), rec(fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i += 3 {
		if _, err := b.Delete(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	clone := func() []*nvm.Pool {
		cs := make([]*nvm.Pool, len(pools))
		for i, p := range pools {
			c := nvm.New(int(p.Size()), nvm.Options{})
			c.WriteBytes(0, p.ReadBytes(0, p.Size()))
			cs[i] = c
		}
		return cs
	}

	serial := openSet(t, clone(), testConfig(1)).Set
	parallel := openSet(t, clone(), testConfig(8)).Set
	sb, pb := serial.Backend(), parallel.Backend()
	if sb.Count() != pb.Count() {
		t.Fatalf("serial count %d != parallel %d", sb.Count(), pb.Count())
	}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("u%d", i)
		sv, sf := readVal(t, sb, key)
		pv, pf := readVal(t, pb, key)
		if sf != pf || sv != pv {
			t.Fatalf("%s: serial (%v,%q) != parallel (%v,%q)", key, sf, sv, pf, pv)
		}
		if wantFound := i%3 != 0; sf != wantFound {
			t.Fatalf("%s: found=%v want %v", key, sf, wantFound)
		}
	}
	for i, m := range serial.Members() {
		if sr, pr := m.Heap.RecoveryStats, parallel.Members()[i].Heap.RecoveryStats; sr != pr {
			t.Fatalf("pool %d recovery stats diverge: serial %+v parallel %+v", i, sr, pr)
		}
	}
}

func TestAddPoolMigratesRecords(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			pools := newPools(2, 4<<20)
			st := openSet(t, pools, testConfig(1))
			s := st.Set
			b := s.Backend()
			const n = 400
			for i := 0; i < n; i++ {
				if err := b.Insert(fmt.Sprintf("user%d", i), rec(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			epoch0 := s.Epoch()

			m, err := st.AddPool(nvm.New(4<<20, nvm.Options{}), shard.AddOptions{Async: async})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Wait(); err != nil {
				t.Fatal(err)
			}
			if s.Pools() != 3 {
				t.Fatalf("pools %d", s.Pools())
			}
			if s.Migrating() {
				t.Fatal("still migrating after Wait")
			}
			if s.Epoch() <= epoch0 {
				t.Fatalf("epoch did not advance: %d -> %d", epoch0, s.Epoch())
			}
			if b.Count() != n {
				t.Fatalf("count %d after migration, want %d", b.Count(), n)
			}
			// Every record must now sit in its 3-pool home.
			for i := 0; i < 3; i++ {
				for _, key := range s.Members()[i].Backend.Caps().Keys.Keys() {
					if home := heap.JumpHash(heap.KeyHash(key), 3); home != i {
						t.Fatalf("key %q left in pool %d, home %d", key, i, home)
					}
				}
			}
			if c := s.Members()[2].Backend.Count(); c == 0 {
				t.Fatal("new pool received no records")
			}
			if s.Obs().MigratedRecords.Load() == 0 {
				t.Fatal("no migrations counted")
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("user%d", i)
				if got, found := readVal(t, b, key); !found || got != fmt.Sprintf("v%d", i) {
					t.Fatalf("%s after migration: found=%v got=%q", key, found, got)
				}
			}
		})
	}
}

// TestSetNeedsTwoPools pins that a set is never a single pool: that is
// the standalone stack (stack.Open keeps the direct backend and no epoch
// table), so shard.Open refuses it.
func TestSetNeedsTwoPools(t *testing.T) {
	single := openSet(t, newPools(1, 4<<20), testConfig(1))
	if single.Set != nil {
		t.Fatal("a single pool opened as a set")
	}
	if _, err := shard.Open(single.Pools); err == nil {
		t.Fatal("shard.Open accepted a one-pool roster")
	}
}

// TestPoolFullFallback fills a record's home pool and verifies the
// insert degrades to a ring-probe fallback instead of failing, that the
// record stays readable, and that the sticky flag survives reopen.
func TestPoolFullFallback(t *testing.T) {
	// Tiny pool 0, roomy pool 1: fill pool 0's arena.
	pools := []*nvm.Pool{
		nvm.New(192<<10, nvm.Options{}),
		nvm.New(4<<20, nvm.Options{}),
	}
	cfg := testConfig(1)
	cfg.LogSlots, cfg.LogSlotSize = 4, 1<<12
	s := openSet(t, pools, cfg).Set
	b := s.Backend()

	// Find keys homed on pool 0 and insert until one falls back.
	var homed []string
	for i := 0; len(homed) < 400; i++ {
		key := fmt.Sprintf("fill%d", i)
		if heap.JumpHash(heap.KeyHash(key), 2) == 0 {
			homed = append(homed, key)
		}
	}
	inserted := []string{}
	for _, key := range homed {
		if err := b.Insert(key, rec("payload-"+key)); err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
		inserted = append(inserted, key)
		if s.Obs().FallbackInserts.Load() > 2 {
			break
		}
	}
	fb := s.Obs().FallbackInserts.Load()
	if fb == 0 {
		t.Fatal("pool 0 never filled — grow the key set or shrink the pool")
	}
	for _, key := range inserted {
		if got, found := readVal(t, b, key); !found || got != "payload-"+key {
			t.Fatalf("%s unreadable after fallback era: found=%v got=%q", key, found, got)
		}
	}
	// Updates and deletes must find off-home records too.
	last := inserted[len(inserted)-1]
	if found, err := b.Update(last, []store.Field{{Name: "field0", Value: []byte("u2")}}); err != nil || !found {
		t.Fatalf("update fallback record: %v found=%v", err, found)
	}
	if got, _ := readVal(t, b, last); got != "u2" {
		t.Fatalf("fallback update lost: %q", got)
	}

	// The sticky flag must survive a crashless reopen: every record still
	// reachable with no migration having run.
	reopened := openSet(t, pools, cfg)
	re := reopened.Set
	rb := re.Backend()
	for _, key := range inserted {
		if _, found := readVal(t, rb, key); !found {
			t.Fatalf("%s lost across reopen", key)
		}
	}
	// And a migration re-homes the strays.
	m, err := reopened.AddPool(nvm.New(4<<20, nvm.Options{}), shard.AddOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, key := range re.Members()[i].Backend.Caps().Keys.Keys() {
			if home := heap.JumpHash(heap.KeyHash(key), 3); home != i {
				t.Fatalf("key %q still off-home after migration (pool %d, home %d)", key, i, home)
			}
		}
	}
}

// TestFreelistExhaustionRacesAddPool churns inserts and deletes hard
// enough to cycle the freelist while a pool addition migrates records
// underneath — the -race build checks the gate, and the final state
// must match each goroutine's model exactly.
func TestFreelistExhaustionRacesAddPool(t *testing.T) {
	pools := newPools(2, 2<<20)
	st := openSet(t, pools, testConfig(2))
	s := st.Set
	b := s.Backend()

	const workers, perWorker = 4, 120
	var wg sync.WaitGroup
	alive := make([]map[string]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := map[string]string{}
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				val := fmt.Sprintf("w%d-v%d", w, i)
				if err := b.Insert(key, rec(val)); err != nil {
					if errors.Is(err, heap.ErrOutOfMemory) {
						continue
					}
					t.Errorf("insert %s: %v", key, err)
					return
				}
				mine[key] = val
				if i%3 == 0 && i > 0 {
					victim := fmt.Sprintf("w%d-k%d", w, i-1)
					if _, err := b.Delete(victim); err != nil {
						t.Errorf("delete %s: %v", victim, err)
						return
					}
					delete(mine, victim)
				}
			}
			alive[w] = mine
		}(w)
	}

	m, err := st.AddPool(nvm.New(2<<20, nvm.Options{}), shard.AddOptions{Async: true, Pacer: &shard.Pacer{BytesPerSec: 64 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}

	total := 0
	for w := 0; w < workers; w++ {
		for key, want := range alive[w] {
			got, found := readVal(t, b, key)
			if !found || got != want {
				t.Fatalf("%s: found=%v got=%q want %q", key, found, got, want)
			}
			total++
		}
	}
	if c := b.Count(); c != total {
		t.Fatalf("count %d, model %d", c, total)
	}
}

// TestTransientReuseAcrossPools drives delete/insert churn over every
// pool concurrently (JPFA allocates raw log blocks through the
// transient pools) and checks each pool recycles only its own blocks.
func TestTransientReuseAcrossPools(t *testing.T) {
	pools := newPools(3, 4<<20)
	s := openSet(t, pools, kindConfig(stack.JPFA)).Set
	b := s.Backend()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				key := fmt.Sprintf("c%d-%d", w, i)
				if err := b.Insert(key, rec("v")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := b.Delete(key); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Count() != 0 {
		t.Fatalf("count %d after churn", b.Count())
	}
	// Churn reached every pool and block recycling happened somewhere;
	// per-pool bump high-waters stay bounded because freed blocks are
	// reused, not bumped fresh.
	snap := s.Snapshot()
	reuse := uint64(0)
	for _, p := range snap.PerPool {
		if p.Heap.ObjAllocs == 0 {
			t.Fatalf("pool %d saw no allocations", p.Index)
		}
		reuse += p.Heap.ReuseAllocs + p.Heap.TransientReuse
	}
	if reuse == 0 {
		t.Fatal("churn recycled no blocks in any pool")
	}
}

// TestSnapshotPerPoolSums verifies Set.Snapshot's per-pool entries sum
// to the direct per-layer totals.
func TestSnapshotPerPoolSums(t *testing.T) {
	pools := newPools(4, 4<<20)
	s := openSet(t, pools, testConfig(1)).Set
	b := s.Backend()
	for i := 0; i < 300; i++ {
		if err := b.Insert(fmt.Sprintf("k%d", i), rec("v")); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap.PerPool) != 4 {
		t.Fatalf("per-pool entries %d", len(snap.PerPool))
	}
	// Fold the breakdown and, independently, the live layers it was taken
	// from (the set is quiescent, so the two reads agree).
	var got, want obs.PoolSnapshot
	for i, p := range snap.PerPool {
		got = got.Add(p)
		want = want.Add(obs.PoolSnapshot{
			Index: i,
			NVM:   pools[i].Obs().Snapshot(),
			Heap:  s.Members()[i].Heap.Mem().ObsSnapshot(),
			FA:    s.Members()[i].Mgr.ObsSnapshot(),
		})
	}
	if got != want {
		t.Fatalf("per-pool sums %+v != layer totals %+v", got, want)
	}
	if got.Heap.ObjAllocs == 0 || got.NVM.PWBs == 0 || got.Heap.Bump == 0 || got.FA.SlotsTotal == 0 {
		t.Fatalf("sums are empty: %+v", got)
	}
}

// TestShardDescriptorFollowsChildren checks that the set's descriptor is
// its pools' (minus Scan), that the grid adopts the read path it names,
// and that the grid drives the routed capability end to end. The full
// kind × pool-count table lives in bench's TestCapabilityTable.
func TestShardDescriptorFollowsChildren(t *testing.T) {
	for _, tc := range []struct {
		name, caps, path string
	}{
		{stack.JPDTLF, "keys,lockfree", "lockfree"},
		{stack.JPDT, "keys,view", "view"},
		{stack.JPFA, "keys,delta", "locked"},
	} {
		be := openSet(t, newPools(2, 4<<20), kindConfig(tc.name)).Set.Backend()
		if got := be.Caps().String(); got != tc.caps {
			t.Fatalf("%s children: set offers [%s], want [%s]", tc.name, got, tc.caps)
		}
		g := store.NewGrid(be, store.Options{})
		if got := g.ReadPath(); got != tc.path {
			t.Fatalf("%s children: grid read path %q, want %q", tc.name, got, tc.path)
		}
		if err := g.Insert("a", rec("1")); err != nil {
			t.Fatal(err)
		}
		var got string
		if err := g.Read("a", func(name string, v []byte) { got = string(v) }); err != nil || got != "1" {
			t.Fatalf("%s children: grid read: %v %q", tc.name, err, got)
		}
		if err := g.Scan("", 1, func(string, string, []byte) {}); err != store.ErrNoScan {
			t.Fatalf("%s children: sharded scan returned %v, want ErrNoScan", tc.name, err)
		}
	}
}

// TestMismatchedPoolIsRefused pins that a pool whose backend offers
// different operations than the set's is an error at Open and at AddPool,
// not a panic on first use.
func TestMismatchedPoolIsRefused(t *testing.T) {
	s := openSet(t, newPools(2, 4<<20), kindConfig(stack.JPDTLF)).Set
	// Members formatted as positions 1 and 2 of a J-PFA set.
	pfa := openSet(t, newPools(3, 4<<20), kindConfig(stack.JPFA)).Pools
	// The grid wires lock-free mode onto every pool; a late joiner gets
	// the wiring replayed, which is where a mismatched backend used to
	// panic.
	g := store.NewGrid(s.Backend(), store.Options{})
	_, err := s.AddPool(pfa[2], shard.AddOptions{})
	if err == nil || !strings.Contains(err.Error(), "keys,delta") {
		t.Fatalf("a J-PFA joiner on a J-PDT-LF set: err = %v, want a descriptor mismatch", err)
	}
	if s.Pools() != 2 || s.Migrating() {
		t.Fatalf("refused joiner changed the set: %d pools, migrating %v", s.Pools(), s.Migrating())
	}
	if err := g.Insert("a", rec("1")); err != nil {
		t.Fatalf("set unusable after refusing a joiner: %v", err)
	}
	if _, err := shard.Open([]shard.Member{s.Members()[0], pfa[1]}); err == nil {
		t.Fatal("Open accepted pools with different descriptors")
	}
}

// TestAbsentCapabilityMethodsAreSafe reaches the routing type's methods
// the way a caller that type-asserts the backend does (the pinned
// benchmark harness asserts its delta interface): the one type has every
// capability's methods, so the ones its descriptor leaves out must answer
// absent instead of dereferencing a nil child capability.
func TestAbsentCapabilityMethodsAreSafe(t *testing.T) {
	type everything interface {
		AddDelta(key, field string, delta int64) (bool, error)
		Keys() []string
		EnableLockFree(rs *obs.ReadStats)
		ReadView(key string, hint uint32, gen *atomic.Uint64, g1 uint64,
			consume func(name string, value []byte)) (found, valid, ok bool)
	}
	view := openSet(t, newPools(2, 4<<20), kindConfig(stack.JPDT)).Backend
	if err := view.Insert("a", rec("1")); err != nil {
		t.Fatal(err)
	}
	if view.Caps().Delta != nil {
		t.Fatal("a J-PDT set advertises delta folding")
	}
	if ok, err := view.(everything).AddDelta("a", "field0", 1); ok || err == nil {
		t.Fatalf("AddDelta on a J-PDT set: ok=%v err=%v, want an error", ok, err)
	}
	view.(everything).EnableLockFree(nil)

	locked := openSet(t, newPools(2, 4<<20), kindConfig(stack.JPFA)).Backend
	if err := locked.Insert("a", rec("1")); err != nil {
		t.Fatal(err)
	}
	var gen atomic.Uint64
	if _, _, ok := locked.(everything).ReadView("a", 0, &gen, 0, func(string, []byte) {}); ok {
		t.Fatal("ReadView on a J-PFA set claimed the unlocked path")
	}
	if keys := locked.(everything).Keys(); len(keys) != 1 {
		t.Fatalf("keys %v", keys)
	}
}
