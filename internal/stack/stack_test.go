package stack

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/store"
)

func memPool() *nvm.Pool { return nvm.New(4<<20, nvm.Options{}) }

// TestOpenShapes pins what Open and OpenGrid build from the backend kind:
// a J-NVM kind is its backend over the pool, in the configured commit
// mode, under a grid that reads through the view path; no kind is a bare
// heap with no grid; an FS-family kind is a grid with no pool, inert like
// the empty stack; and every name in Kinds opens.
func TestOpenShapes(t *testing.T) {
	for _, kind := range []string{JPFA, JPDT} {
		st, err := Open(memPool(), Config{Backend: kind, Commit: "async"})
		if err != nil {
			t.Fatal(err)
		}
		if st.Grid == nil || st.Grid.Backend().Name() != kind || st.Grid.ReadPath() != "view" || st.Mgr.CommitMode() != fa.CommitAsync {
			t.Fatalf("%s stack: grid %v, manager in mode %v", kind, st.Grid, st.Mgr.CommitMode())
		}
		if rs := st.Recovery(); len(rs) != 1 {
			t.Fatalf("%d recovery snapshots for one pool", len(rs))
		}
		if sn := st.Snapshot(); sn.NVM == nil || sn.Heap == nil || sn.FA == nil || sn.Grid == nil {
			t.Fatalf("snapshot lacks a layer: %+v", sn)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	bare, err := Open(memPool(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Grid != nil || bare.Heap == nil || bare.Mgr == nil {
		t.Fatalf("bare stack: %+v", bare)
	}

	inert := func(name string, st *Stack) {
		st.DrainDurable()
		st.AwaitDurable()
		sn := st.Snapshot()
		if err := st.Close(); err != nil || st.Recovery() != nil || sn.NVM != nil || sn.Heap != nil || sn.FA != nil {
			t.Errorf("%s is not inert", name)
		}
	}
	var empty Stack
	inert("the empty stack", &empty)
	if *empty.Snapshot() != (obs.StackSnapshot{}) {
		t.Error("the empty stack's snapshot is not empty")
	}
	for _, kind := range Kinds {
		st, err := OpenGrid(GridConfig{Backend: kind, Records: 16, FieldCount: 1, FieldLen: 8, FenceNs: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if st.Grid == nil || st.Snapshot().Grid == nil {
			t.Fatalf("%s: no grid", kind)
		}
		if _, nvmKind := backends[kind]; nvmKind {
			st.Close()
			continue
		}
		if st.Pool != nil || st.Grid.ReadPath() != "locked" {
			t.Fatalf("%s: pool %v, read path %s", kind, st.Pool, st.Grid.ReadPath())
		}
		inert(kind, st)
	}

	for name, open := range map[string]func() (*Stack, error){
		"FS over a pool":  func() (*Stack, error) { return Open(memPool(), Config{Backend: FS}) },
		"sync alias":      func() (*Stack, error) { return Open(memPool(), Config{Backend: JPFA, Commit: "sync"}) },
		"unknown backend": func() (*Stack, error) { return OpenGrid(GridConfig{Backend: "bogus"}) },
	} {
		if _, err := open(); err == nil {
			t.Errorf("%s: opened", name)
		}
	}
}

// TestFSGridReopensItsDir: an FS grid written on a Dir, dropped and
// opened again on that Dir rebuilds its key set from the files: it counts
// every record and reads each back, the update and the delete included.
// Close leaves a caller's Dir in place.
func TestFSGridReopensItsDir(t *testing.T) {
	dir := t.TempDir()
	open := func() *Stack {
		st, err := OpenGrid(GridConfig{Backend: FS, Dir: dir, CacheEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	const n = 600 // more keys than shards
	st := open()
	for i := 0; i < n; i++ {
		rec := &store.Record{Fields: []store.Field{{Name: "v", Value: []byte(fmt.Sprint(i))}}}
		if err := st.Grid.Insert(fmt.Sprintf("k%03d", i), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Grid.Update("k007", []store.Field{{Name: "v", Value: []byte("seven")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Grid.Delete("k009"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = open()
	defer st.Close()
	if c := st.Grid.Count(); c != n-1 {
		t.Fatalf("reopened grid counts %d records, want %d", c, n-1)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprint(i)
		if i == 7 {
			want = "seven"
		}
		var got string
		err := st.Grid.Read(fmt.Sprintf("k%03d", i), func(_ string, v []byte) { got = string(v) })
		if i == 9 {
			if !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("deleted k009 after reopen: %v", err)
			}
			continue
		}
		if err != nil || got != want {
			t.Fatalf("k%03d after reopen: %q, %v; want %q", i, got, err, want)
		}
	}
}

// TestEstimatePoolBytes: the pool estimate grows with the record count
// and with the field size.
func TestEstimatePoolBytes(t *testing.T) {
	small := EstimatePoolBytes(1000, 10, 100)
	big := EstimatePoolBytes(10000, 10, 100)
	if big <= small {
		t.Fatal("estimate not monotonic in records")
	}
	if EstimatePoolBytes(1000, 10, 10_000) <= small {
		t.Fatal("estimate not monotonic in field size")
	}
}

// TestOpenGridClosesPoolOnError: a served stack that cannot open — here
// over a pool file in a heap format every build refuses — must not leave
// the pool's file descriptor and MAP_SHARED mapping behind.
func TestOpenGridClosesPoolOnError(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps:", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pool-0.nvm")
	cfg := GridConfig{Backend: JPFA, Records: 16, FieldCount: 1, FieldLen: 8, DataDir: dir}
	pool, err := nvm.OpenFile(path, EstimatePoolBytes(cfg.Records, cfg.FieldCount, cfg.FieldLen), nvm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heap.Format(pool, heap.Options{LogSlots: 2, LogSlotSize: 4096}); err != nil {
		t.Fatal(err)
	}
	pool.WriteUint64(8, 1) // the superblock's format-version word: version 1
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(maps), path) {
		t.Fatal("pool still mapped before OpenGrid ran")
	}
	if _, err := OpenGrid(cfg); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("OpenGrid over a version-1 pool: %v", err)
	}
	if maps, err = os.ReadFile("/proc/self/maps"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(maps), path) {
		t.Fatalf("OpenGrid failed but left %s mapped", path)
	}
}

// TestParseCommit pins the one commit vocabulary: two protocols, and the
// removed sync group mode refused with an error naming both.
func TestParseCommit(t *testing.T) {
	for s, want := range map[string]fa.CommitMode{
		"": fa.CommitPerTx, "per-tx": fa.CommitPerTx, "async": fa.CommitAsync,
	} {
		if got, err := ParseCommit(s); err != nil || got != want {
			t.Errorf("ParseCommit(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseCommit("group"); err == nil || !strings.Contains(err.Error(), "per-tx") || !strings.Contains(err.Error(), "async") {
		t.Errorf(`ParseCommit("group") = %v; want an error naming per-tx and async`, err)
	}
}

// TestParkedResourcesNeverStarveTheGrid: a commit's slot and the objects
// it freed stay parked until later fences retire it (DESIGN.md §11), so
// the grid must make progress when they are all there is — with two log
// slots, and in a pool whose arena only fits the records if every update's
// frees come back.
func TestParkedResourcesNeverStarveTheGrid(t *testing.T) {
	for _, commit := range []string{"per-tx", "async"} {
		pool := nvm.New(1<<20, nvm.Options{})
		st, err := Open(pool, Config{Backend: JPFA, Commit: commit, LogSlots: 2, LogSlotSize: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		g := st.Grid
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
		mem := st.Heap.Mem()
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
