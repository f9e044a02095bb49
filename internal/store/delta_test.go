package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fa"
	"repro/internal/nvm"
)

func counterRecord(v int64) *Record {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return &Record{Fields: []Field{
		{Name: "score", Value: append([]byte(nil), buf[:]...)},
		{Name: "tag", Value: []byte("leaderboard-entry")},
	}}
}

func readCounter(t *testing.T, g *Grid, key, field string) int64 {
	t.Helper()
	var got []byte
	if err := g.Read(key, func(name string, value []byte) {
		if name == field {
			got = append([]byte(nil), value...)
		}
	}); err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	if len(got) != 8 {
		t.Fatalf("field %s: %d bytes, want 8", field, len(got))
	}
	return int64(binary.LittleEndian.Uint64(got))
}

// TestGridAddDeltaAsyncFolds is the end-to-end tentpole check: zipfian
// increments through Grid.AddDelta fold in the ledger from the first op
// on (the counter is the value word of its field, nothing to upgrade), a
// read observes every acknowledged increment, and the epoch cost is one
// materialized entry per hot key, not one per op. It also pins the
// fa.Manager.Settle split: the counter word lives in the record's block,
// so an ADDDELTA that settled the block's deltas on its way to the field
// table would drain its own key's ledger entry on every op and
// materialize n entries here instead of one.
func TestGridAddDeltaAsyncFolds(t *testing.T) {
	h, mgr, _ := openStoreHeap(t, 1<<23, false)
	b, err := NewJPFABackend(h, mgr, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	if err := g.Insert("hot", counterRecord(100)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	mgr.AwaitDurable(mgr.IssuedTickets())
	snapBefore, allocsBefore := mgr.ObsSnapshot(), h.Mem().ObsSnapshot().ObjAllocs
	const n = 40
	for i := 0; i < n; i++ {
		if err := g.AddDelta("hot", "score", 2); err != nil {
			t.Fatal(err)
		}
	}
	mgr.AwaitDurable(mgr.IssuedTickets())
	snap := mgr.ObsSnapshot().Sub(snapBefore)
	if snap.DeltaOps != n {
		t.Fatalf("delta ops = %d, want %d", snap.DeltaOps, n)
	}
	if snap.DeltaEntries != 1 || snap.LogEntries != 1 {
		t.Fatalf("%d ADDDELTAs between two AwaitDurables materialized %d fold entries, %d log entries; want 1, 1",
			n, snap.DeltaEntries, snap.LogEntries)
	}
	if a := h.Mem().ObsSnapshot().ObjAllocs - allocsBefore; a != 0 {
		t.Fatalf("ADDDELTA allocated %d objects, want 0", a)
	}
	// A read before the next drain must see every acknowledged delta.
	if err := g.AddDelta("hot", "score", 1); err != nil {
		t.Fatal(err)
	}
	if v := readCounter(t, g, "hot", "score"); v != 100+2*n+1 {
		t.Fatalf("score = %d, want %d", v, 100+2*n+1)
	}
	// The other field is untouched.
	var tag []byte
	if err := g.Read("hot", func(name string, value []byte) {
		if name == "tag" {
			tag = append([]byte(nil), value...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if string(tag) != "leaderboard-entry" {
		t.Fatalf("tag = %q, corrupted by folds", tag)
	}
	mgr.DrainDurable()
}

// TestGridAddDeltaPerTxFallback: outside async mode the same API works
// through the transactional slow path.
func TestGridAddDeltaPerTxFallback(t *testing.T) {
	h, mgr, _ := openStoreHeap(t, 1<<23, false)
	b, err := NewJPFABackend(h, mgr, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	if err := g.Insert("k", counterRecord(-5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := g.AddDelta("k", "score", 4); err != nil {
			t.Fatal(err)
		}
	}
	if v := readCounter(t, g, "k", "score"); v != 7 {
		t.Fatalf("score = %d, want 7", v)
	}
	if err := g.AddDelta("missing", "score", 1); err != ErrNotFound {
		t.Fatalf("missing key err = %v, want ErrNotFound", err)
	}
	if err := g.AddDelta("k", "nosuch", 1); err == nil {
		t.Fatal("missing field accepted")
	}
	if err := g.AddDelta("k", "tag", 1); err == nil {
		t.Fatal("non-counter field accepted")
	}
}

// TestGridAddDeltaGenericBackend: a backend without the DeltaAdder
// capability gets the read-modify-write fallback (here J-PDT behind the
// record cache, which forwards no capability), including the cache's patch
// path.
func TestGridAddDeltaGenericBackend(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<23, false)
	b, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(Cached(b, 64))
	if err := g.Insert("k", counterRecord(10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := g.AddDelta("k", "score", -2); err != nil {
			t.Fatal(err)
		}
	}
	if v := readCounter(t, g, "k", "score"); v != 0 {
		t.Fatalf("score = %d, want 0", v)
	}
}

// TestGridAddDeltaConcurrent races folds, updates and reads on a small
// hot set under async mode; the final counters must be exact sums. Run
// under -race in CI.
func TestGridAddDeltaConcurrent(t *testing.T) {
	h, mgr, _ := openStoreHeap(t, 1<<23, false)
	b, err := NewJPFABackend(h, mgr, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	const nkeys = 4
	for i := 0; i < nkeys; i++ {
		if err := g.Insert(fmt.Sprintf("k%d", i), counterRecord(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.SetGroupCommit(fa.GroupOptions{}); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k%d", (w+i)%nkeys)
				if i%10 == 9 {
					// Interleave reads: must never see a torn counter.
					var got []byte
					if err := g.Read(key, func(name string, value []byte) {
						if name == "score" {
							got = append([]byte(nil), value...)
						}
					}); err != nil {
						t.Error(err)
						return
					}
					if len(got) != 8 {
						t.Errorf("torn counter: %d bytes", len(got))
						return
					}
				} else if err := g.AddDelta(key, "score", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	mgr.DrainDurable()
	var total int64
	for i := 0; i < nkeys; i++ {
		total += readCounter(t, g, fmt.Sprintf("k%d", i), "score")
	}
	want := int64(workers * (perWorker - perWorker/10))
	if total != want {
		t.Fatalf("sum = %d, want %d", total, want)
	}
}

// TestGridAddDeltaCrashRecovers: acknowledged-and-drained deltas survive
// a crash; the recovered counter equals the folded sum.
func TestGridAddDeltaCrashRecovers(t *testing.T) {
	h, mgr, pool := openStoreHeap(t, 1<<23, true)
	b, err := NewJPFABackend(h, mgr, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	if err := g.Insert("k", counterRecord(1000)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := g.AddDelta("k", "score", 10); err != nil {
			t.Fatal(err)
		}
	}
	mgr.DrainDurable()
	img := pool.CrashImage(nvm.CrashAll, nil)
	h2, mgr2, _ := reopenStoreHeap(t, img)
	b2, err := NewJPFABackend(h2, mgr2, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGrid(b2)
	if v := readCounter(t, g2, "k", "score"); v != 1250 {
		t.Fatalf("recovered score = %d, want 1250", v)
	}
}

// A read under the async pipeline must not hand out a view of a value
// block that a queued update of the same record is about to free. Before
// the fix JPFABackend.Read looked at the record raw: it saw the pre-epoch
// value ref, and a drain running while the consumer still held the view —
// here the consumer's own, on the server another connection's — freed the
// block under it; the next allocation of that size recycled it and the
// reader saw another record's bytes.
func TestAsyncReadViewSurvivesDrainAndReuse(t *testing.T) {
	h, mgr, _ := openStoreHeap(t, 1<<23, false)
	b, err := NewJPFABackend(h, mgr, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	val := func(c byte) []byte { return bytes.Repeat([]byte{c}, 100) }
	// Two keys on different stripes: the consumer updates the second one
	// while the read holds the first one's lock.
	k, other := "k", "other"
	if fnv32(k)%gridStripes == fnv32(other)%gridStripes {
		t.Fatal("test keys share a stripe")
	}
	for _, key := range []string{k, other} {
		if err := g.Insert(key, &Record{Fields: []Field{{Name: "f", Value: val('a')}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}

	// Queue, do not drain, an update of k.
	if err := g.Update(k, []Field{{Name: "f", Value: val('b')}}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = g.Read(k, func(name string, value []byte) {
		calls++
		seen := append([]byte(nil), value...)
		// Everything queued becomes durable — freeing whatever the update
		// of k replaced — and a same-sized value is allocated right after,
		// which is where the allocator hands the freed slot out again.
		mgr.DrainDurable()
		if err := g.Update(other, []Field{{Name: "f", Value: val('z')}}); err != nil {
			t.Error(err)
		}
		mgr.DrainDurable()
		if !bytes.Equal(value, seen) {
			t.Errorf("view changed under the reader: %q... became %q...", seen[:4], value[:4])
		}
		if !bytes.Equal(seen, val('b')) {
			t.Errorf("read saw %q..., want the queued update's %q...", seen[:4], "bbbb")
		}
	})
	if err != nil || calls != 1 {
		t.Fatalf("read: err %v, %d fields", err, calls)
	}
}
