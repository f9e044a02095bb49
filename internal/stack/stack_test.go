package stack

import (
	"fmt"
	"testing"

	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/shard"
	"repro/internal/store"
)

func pools(n int) []*nvm.Pool {
	ps := make([]*nvm.Pool, n)
	for i := range ps {
		ps[i] = nvm.New(4<<20, nvm.Options{})
	}
	return ps
}

func rec(v string) *store.Record {
	return &store.Record{Fields: []store.Field{{Name: "f", Value: []byte(v)}}}
}

// TestOpenShapes pins what Open builds from the pool count and the
// backend kind: one pool is the direct backend with a standalone
// superblock, several are a set, and no kind is a bare heap.
func TestOpenShapes(t *testing.T) {
	one, err := Open(pools(1), Config{Backend: JPFA})
	if err != nil {
		t.Fatal(err)
	}
	if one.Set != nil || one.Backend != one.Pools[0].Backend {
		t.Fatal("a single pool must keep the direct backend, not a one-pool set")
	}
	if mem := one.Pools[0].Heap.Mem(); mem.PoolIndex() != 0 || mem.PoolCount() != 0 {
		t.Fatalf("single pool formatted as set position %d/%d", mem.PoolIndex(), mem.PoolCount())
	}

	three, err := Open(pools(3), Config{Backend: JPFA, Commit: "async"})
	if err != nil {
		t.Fatal(err)
	}
	if three.Set == nil || len(three.Pools) != 3 || three.Backend.Name() != "J-PFA×shard" {
		t.Fatalf("three pools opened as %d pools, set %v, backend %s", len(three.Pools), three.Set != nil, three.Backend.Name())
	}
	for i, m := range three.Pools {
		if m.Mgr.CommitMode() != fa.CommitAsync {
			t.Fatalf("pool %d manager in mode %v", i, m.Mgr.CommitMode())
		}
	}

	bare, err := Open(pools(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Backend != nil || bare.Pools[0].Heap == nil || bare.Pools[0].Mgr == nil {
		t.Fatalf("bare stack: backend %v, member %+v", bare.Backend, bare.Pools[0])
	}

	for name, open := range map[string]func() (*Stack, error){
		"no pools":        func() (*Stack, error) { return Open(nil, Config{Backend: JPDT}) },
		"unknown backend": func() (*Stack, error) { return Open(pools(1), Config{Backend: "FS"}) },
		"bare sharded":    func() (*Stack, error) { return Open(pools(2), Config{}) },
		"sync alias":      func() (*Stack, error) { return Open(pools(1), Config{Backend: JPFA, Commit: "sync"}) },
	} {
		if _, err := open(); err == nil {
			t.Errorf("%s: Open succeeded", name)
		}
	}
}

// TestParseCommit pins the one commit vocabulary.
func TestParseCommit(t *testing.T) {
	for s, want := range map[string]fa.CommitMode{
		"": fa.CommitPerTx, "per-tx": fa.CommitPerTx, "group": fa.CommitGroup, "async": fa.CommitAsync,
	} {
		if got, err := ParseCommit(s); err != nil || got != want {
			t.Errorf("ParseCommit(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

// TestReopenAndGrow recovers a sharded stack from its pools, grows it
// online and checks the per-pool list and the data follow.
func TestReopenAndGrow(t *testing.T) {
	ps := pools(2)
	cfg := Config{Backend: JPDT, LogSlots: 16, LogSlotSize: 1 << 14}
	st, err := Open(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Backend.Insert(fmt.Sprintf("k%03d", i), rec("v")); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st, err = Open(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Backend.Count(); got != n {
		t.Fatalf("recovered %d of %d records", got, n)
	}
	if rs := st.Recovery(); len(rs) != 2 {
		t.Fatalf("%d recovery snapshots for 2 pools", len(rs))
	}
	third := nvm.New(4<<20, nvm.Options{})
	mig, err := st.AddPool(third, shard.AddOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(st.Pools) != 3 || st.Pools[2].Pool != third || st.Pools[2].Backend.Count() == 0 {
		t.Fatalf("after AddPool: %d pools, new pool holds %d records", len(st.Pools), st.Pools[2].Backend.Count())
	}
	if got := st.Backend.Count(); got != n {
		t.Fatalf("%d of %d records after migration", got, n)
	}
	if sn := st.Snapshot(); sn.Shard == nil || len(sn.Shard.PerPool) != 3 || sn.NVM.PWBs == 0 {
		t.Fatalf("snapshot misses the grown roster: %+v", sn.Shard)
	}

	single, err := Open(pools(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.AddPool(nvm.New(4<<20, nvm.Options{}), shard.AddOptions{}); err == nil {
		t.Fatal("a single-pool stack grew")
	}
}

// TestParkedResourcesNeverStarveTheGrid: a commit's slot and the objects
// it freed stay parked until later fences retire it (DESIGN.md §11), so
// the grid must make progress when they are all there is — with two log
// slots, and in a pool whose arena only fits the records if every update's
// frees come back.
func TestParkedResourcesNeverStarveTheGrid(t *testing.T) {
	for _, commit := range []string{"per-tx", "group", "async"} {
		pool := nvm.New(1<<20, nvm.Options{})
		st, err := Open([]*nvm.Pool{pool}, Config{Backend: JPFA, Commit: commit, LogSlots: 2, LogSlotSize: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		g := store.NewGrid(st.Backend, store.Options{})
		value := func(i int) []byte { return []byte(fmt.Sprintf("%0300d", i)) } // two blocks
		const keys = 8
		for k := 0; k < keys; k++ {
			if err := g.Insert(fmt.Sprintf("k%d", k), &store.Record{Fields: []store.Field{{Name: "f", Value: value(k)}}}); err != nil {
				t.Fatal(err)
			}
		}
		st.DrainDurable()
		// Leave the arena three blocks: one update's worth, so the next
		// one fits only once the parked commit's frees are forced back.
		mem := st.Pools[0].Heap.Mem()
		for {
			bumped, free, total := mem.Stats()
			if total-bumped+free <= 3 {
				break
			}
			if _, err := mem.AllocRaw(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			if err := g.Update(fmt.Sprintf("k%d", i%keys), []store.Field{{Name: "f", Value: value(i)}}); err != nil {
				t.Fatalf("%s: update %d: %v", commit, i, err)
			}
		}
		st.AwaitDurable()
		for k := 0; k < keys; k++ {
			want := value(1000 - keys + k)
			err := g.Read(fmt.Sprintf("k%d", (1000-keys+k)%keys), func(_ string, v []byte) {
				if string(v) != string(want) {
					t.Errorf("%s: key %d reads %q", commit, k, v)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
