package stack

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/store"
)

func newPool() *nvm.Pool { return nvm.New(4<<20, nvm.Options{}) }

// TestOpenShapes pins what Open builds from the backend kind: a kind is
// its backend over the pool, in the configured commit mode; no kind is a
// bare heap; and the empty stack of a poolless backend is inert.
func TestOpenShapes(t *testing.T) {
	st, err := Open(newPool(), Config{Backend: JPFA, Commit: "async"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend == nil || st.Backend.Name() != JPFA || st.Mgr.CommitMode() != fa.CommitAsync {
		t.Fatalf("J-PFA stack: backend %v, manager in mode %v", st.Backend, st.Mgr.CommitMode())
	}
	if rs := st.Recovery(); len(rs) != 1 {
		t.Fatalf("%d recovery snapshots for one pool", len(rs))
	}
	if sn := st.Snapshot(); sn.NVM == nil || sn.Heap == nil || sn.FA == nil {
		t.Fatalf("snapshot lacks a layer: %+v", sn)
	}

	bare, err := Open(newPool(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Backend != nil || bare.Heap == nil || bare.Mgr == nil {
		t.Fatalf("bare stack: %+v", bare)
	}

	var empty Stack
	empty.DrainDurable()
	empty.AwaitDurable()
	if err := empty.Close(); err != nil || empty.Recovery() != nil || *empty.Snapshot() != (obs.StackSnapshot{}) {
		t.Fatal("the empty stack is not inert")
	}

	for name, open := range map[string]func() (*Stack, error){
		"unknown backend": func() (*Stack, error) { return Open(newPool(), Config{Backend: "FS"}) },
		"sync alias":      func() (*Stack, error) { return Open(newPool(), Config{Backend: JPFA, Commit: "sync"}) },
	} {
		if _, err := open(); err == nil {
			t.Errorf("%s: Open succeeded", name)
		}
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
		g := store.NewGrid(st.Backend)
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
