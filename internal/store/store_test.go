package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/pdt"
)

func openStoreHeap(t testing.TB, size int, tracked bool) (*core.Heap, *fa.Manager, *nvm.Pool) {
	t.Helper()
	pool := nvm.New(size, nvm.Options{Tracked: tracked})
	return reopenStoreHeap(t, pool)
}

func reopenStoreHeap(t testing.TB, pool *nvm.Pool) (*core.Heap, *fa.Manager, *nvm.Pool) {
	t.Helper()
	mgr := fa.NewManager()
	classes := append(pdt.Classes(), Classes()...)
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 8, LogSlotSize: 1 << 14},
		Classes:     classes,
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, mgr, pool
}

func testRecord(n int, tag string) *Record {
	rec := &Record{}
	for i := 0; i < n; i++ {
		rec.Fields = append(rec.Fields, Field{
			Name:  fmt.Sprintf("field%d", i),
			Value: []byte(fmt.Sprintf("%s-value-%d", tag, i)),
		})
	}
	return rec
}

func readAll(t *testing.T, b Backend, key string) (*Record, bool) {
	t.Helper()
	rec := &Record{}
	ok, err := b.Read(key, func(name string, val []byte) {
		rec.Fields = append(rec.Fields, Field{Name: name, Value: val})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, ok
}

func TestMarshalRoundTrip(t *testing.T) {
	rec := testRecord(10, "x")
	rec.Fields = append(rec.Fields, Field{Name: "", Value: nil}) // edge: empty
	got, err := Unmarshal(Marshal(rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fields) != len(rec.Fields) {
		t.Fatalf("field count %d", len(got.Fields))
	}
	for i := range rec.Fields {
		if got.Fields[i].Name != rec.Fields[i].Name || !bytes.Equal(got.Fields[i].Value, rec.Fields[i].Value) {
			t.Fatalf("field %d mismatch", i)
		}
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	buf := Marshal(testRecord(3, "x"))
	for _, cut := range []int{0, 3, 5, len(buf) / 2, len(buf) - 1} {
		if _, err := Unmarshal(buf[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(names []string, vals [][]byte) bool {
		rec := &Record{}
		for i := range names {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			rec.Fields = append(rec.Fields, Field{Name: names[i], Value: v})
		}
		got, err := Unmarshal(Marshal(rec))
		if err != nil || len(got.Fields) != len(rec.Fields) {
			return false
		}
		for i := range rec.Fields {
			if got.Fields[i].Name != rec.Fields[i].Name || !bytes.Equal(got.Fields[i].Value, rec.Fields[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// backendConformance exercises the full Backend contract.
func backendConformance(t *testing.T, b Backend) {
	t.Helper()
	if _, ok := readAll(t, b, "missing"); ok {
		t.Fatal("read of missing key succeeded")
	}
	if ok, _ := b.Update("missing", []Field{{Name: "field0", Value: []byte("x")}}); ok {
		t.Fatal("update of missing key succeeded")
	}
	if ok, _ := b.Delete("missing"); ok {
		t.Fatal("delete of missing key succeeded")
	}

	if err := b.Insert("k1", testRecord(10, "k1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("k2", testRecord(10, "k2")); err != nil {
		t.Fatal(err)
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d", b.Count())
	}
	rec, ok := readAll(t, b, "k1")
	if !ok || len(rec.Fields) != 10 {
		t.Fatalf("read k1: %v fields=%d", ok, len(rec.Fields))
	}
	if v, _ := rec.Get("field3"); string(v) != "k1-value-3" {
		t.Fatalf("field3 = %q", v)
	}

	// Subset update leaves other fields alone. Its key is a buffer the
	// caller then reuses, as ycsb.Run's is, so a backend that
	// keeps the key must keep a copy.
	kbuf := []byte("k1")
	if ok, err := b.Update(unsafe.String(&kbuf[0], len(kbuf)), []Field{{Name: "field3", Value: []byte("patched")}}); !ok || err != nil {
		t.Fatalf("update: %v %v", ok, err)
	}
	copy(kbuf, "k2")
	rec, _ = readAll(t, b, "k1")
	if v, _ := rec.Get("field3"); string(v) != "patched" {
		t.Fatalf("patched field3 = %q", v)
	}
	if v, _ := rec.Get("field4"); string(v) != "k1-value-4" {
		t.Fatalf("untouched field4 = %q", v)
	}
	// k2 unaffected.
	rec2, _ := readAll(t, b, "k2")
	if v, _ := rec2.Get("field3"); string(v) != "k2-value-3" {
		t.Fatalf("k2 field3 = %q", v)
	}

	if ok, err := b.Delete("k1"); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, ok := readAll(t, b, "k1"); ok {
		t.Fatal("deleted key still readable")
	}
	if b.Count() != 1 {
		t.Fatalf("Count after delete = %d", b.Count())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBackendConformance(t *testing.T) {
	t.Run("volatile", func(t *testing.T) { backendConformance(t, NewVolatileBackend()) })
	t.Run("tmpfs", func(t *testing.T) { backendConformance(t, NewTmpFSBackend()) })
	t.Run("fs", func(t *testing.T) {
		b, err := NewFSBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		backendConformance(t, b)
	})
	t.Run("jpdt", func(t *testing.T) {
		h, _, _ := openStoreHeap(t, 1<<23, false)
		b, err := NewJPDTBackend(h, "kv")
		if err != nil {
			t.Fatal(err)
		}
		backendConformance(t, b)
	})
	t.Run("jpfa", func(t *testing.T) {
		h, mgr, _ := openStoreHeap(t, 1<<23, false)
		b, err := NewJPFABackend(h, mgr, "kv")
		if err != nil {
			t.Fatal(err)
		}
		backendConformance(t, b)
	})
	t.Run("pcj", func(t *testing.T) {
		h, _, _ := openStoreHeap(t, 1<<23, false)
		b, err := NewPCJBackend(h, "kv")
		if err != nil {
			t.Fatal(err)
		}
		b.CrossingNs = 1 // keep the test fast
		backendConformance(t, b)
	})
}

func TestNullFSSemantics(t *testing.T) {
	b := NewNullFSBackend()
	if _, ok := readAll(t, b, "k"); ok {
		t.Fatal("empty nullfs served a read")
	}
	if err := b.Insert("k", testRecord(10, "k")); err != nil {
		t.Fatal(err)
	}
	// Reads pay the unmarshal and produce a right-shaped record.
	rec, ok := readAll(t, b, "k")
	if !ok || len(rec.Fields) != 10 {
		t.Fatalf("nullfs read: %v %d fields", ok, len(rec.Fields))
	}
	// The template rule: a read unmarshals the last record written, so
	// after an update every known key reads with the updated shape.
	if err := b.Insert("k2", testRecord(10, "k2")); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.Update("k", []Field{{Name: "field0", Value: []byte("x")}, {Name: "extra", Value: []byte("y")}}); !ok || err != nil {
		t.Fatal("nullfs update")
	}
	for _, k := range []string{"k", "k2"} {
		rec, ok := readAll(t, b, k)
		if v, _ := rec.Get("field0"); !ok || len(rec.Fields) != 11 || string(v) != "x" {
			t.Fatalf("nullfs read of %s after the update: %v %d fields, field0 %q", k, ok, len(rec.Fields), v)
		}
	}
	if ok, _ := b.Delete("k2"); !ok {
		t.Fatal("nullfs delete")
	}
	if ok, _ := b.Delete("k"); !ok {
		t.Fatal("nullfs delete")
	}
	if b.Count() != 0 {
		t.Fatal("count after delete")
	}
}

func TestJPDTPersistsAcrossReopen(t *testing.T) {
	h, _, pool := openStoreHeap(t, 1<<23, false)
	b, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := b.Insert(fmt.Sprintf("key%02d", i), testRecord(5, fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b.Update("key07", []Field{{Name: "field2", Value: []byte("updated")}})
	b.Delete("key09")
	h.PSync()

	h2, _, _ := reopenStoreHeap(t, pool)
	b2, err := NewJPDTBackend(h2, "kv")
	if err != nil {
		t.Fatal(err)
	}
	if b2.Count() != 29 {
		t.Fatalf("Count after reopen = %d", b2.Count())
	}
	rec, ok := readAll(t, b2, "key07")
	if !ok {
		t.Fatal("key07 lost")
	}
	if v, _ := rec.Get("field2"); string(v) != "updated" {
		t.Fatalf("update lost: %q", v)
	}
	if _, ok := readAll(t, b2, "key09"); ok {
		t.Fatal("deleted key survived reopen")
	}
}

func TestJPDTDeleteReclaimsStorage(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<23, false)
	b, _ := NewJPDTBackend(h, "kv")
	if err := b.Insert("k", testRecord(10, "k")); err != nil {
		t.Fatal(err)
	}
	bumpedBefore, freeBefore, _ := h.Mem().Stats()
	for i := 0; i < 20; i++ {
		if err := b.Insert("tmp", testRecord(10, "tmp")); err != nil {
			t.Fatal(err)
		}
		if ok, err := b.Delete("tmp"); !ok || err != nil {
			t.Fatal("delete failed")
		}
	}
	bumpedAfter, freeAfter, _ := h.Mem().Stats()
	// Insert/delete churn must recycle blocks, not leak them: net block
	// consumption stays small (slot-pool chunks may pin a few).
	if bumpedAfter-bumpedBefore > 40+(freeAfter-freeBefore) {
		t.Fatalf("churn leaked blocks: bump +%d free +%d",
			bumpedAfter-bumpedBefore, freeAfter-freeBefore)
	}
}

func TestJPFACrashAtomicUpdate(t *testing.T) {
	h, mgr, pool := openStoreHeap(t, 1<<23, true)
	b, err := NewJPFABackend(h, mgr, "kv")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("k", testRecord(3, "orig")); err != nil {
		t.Fatal(err)
	}
	h.PSync()

	// Crash right after an update returns: the committed log guarantees
	// the update survives even a strict crash.
	if ok, err := b.Update("k", []Field{{Name: "field1", Value: []byte("committed")}}); !ok || err != nil {
		t.Fatal(err)
	}
	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(1)))
	h2, mgr2, _ := reopenStoreHeap(t, img)
	b2, err := NewJPFABackend(h2, mgr2, "kv")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := readAll(t, b2, "k")
	if !ok {
		t.Fatal("record lost")
	}
	if v, _ := rec.Get("field1"); string(v) != "committed" {
		t.Fatalf("committed update lost: %q", v)
	}
	if v, _ := rec.Get("field2"); string(v) != "orig-value-2" {
		t.Fatalf("other field corrupt: %q", v)
	}
}

func TestGridCacheServesReads(t *testing.T) {
	inner := NewTmpFSBackend()
	if Cached(inner, 0) != Backend(inner) {
		t.Fatal("Cached(b, 0) wrapped b")
	}
	b := &countingBackend{Backend: inner}
	c := Cached(b, 10)
	if caps := c.Caps(); caps != (Caps{}) {
		t.Fatalf("Cached forwards capabilities %+v", caps)
	}
	g := NewGrid(c)
	if err := g.Insert("k", testRecord(3, "k")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := g.Read("k", func(string, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.reads.Load(); n != 0 {
		t.Fatalf("%d of 5 reads reached the backend, want 0", n)
	}
}

func TestGridWriteThroughKeepsCacheCoherent(t *testing.T) {
	b := NewTmpFSBackend()
	g := NewGrid(Cached(b, 10))
	g.Insert("k", testRecord(3, "k"))
	g.Read("k", func(string, []byte) {}) // warm cache
	if err := g.Update("k", []Field{{Name: "field1", Value: []byte("new")}}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	g.Read("k", func(name string, val []byte) {
		if name == "field1" {
			got = val
		}
	})
	if string(got) != "new" {
		t.Fatalf("cached read after update = %q", got)
	}
	// Backend has it too (write-through).
	rec, _ := readAll(t, b, "k")
	if v, _ := rec.Get("field1"); string(v) != "new" {
		t.Fatal("backend missed write-through update")
	}
}

func TestGridReadModifyWrite(t *testing.T) {
	g := NewGrid(NewVolatileBackend())
	g.Insert("k", testRecord(2, "k"))
	err := g.ReadModifyWrite("k", func(rec *Record) []Field {
		v, _ := rec.Get("field0")
		return []Field{{Name: "field0", Value: append(v, '!')}}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	g.Read("k", func(name string, val []byte) {
		if name == "field0" {
			got = val
		}
	})
	if string(got) != "k-value-0!" {
		t.Fatalf("rmw result %q", got)
	}
}

func TestGridNotFound(t *testing.T) {
	g := NewGrid(Cached(NewVolatileBackend(), 4))
	if err := g.Read("nope", func(string, []byte) {}); err != ErrNotFound {
		t.Fatalf("Read err = %v", err)
	}
	if err := g.Update("nope", nil); err != ErrNotFound {
		t.Fatalf("Update err = %v", err)
	}
	if err := g.Delete("nope"); err != ErrNotFound {
		t.Fatalf("Delete err = %v", err)
	}
	if err := g.ReadModifyWrite("nope", func(*Record) []Field { return nil }); err != ErrNotFound {
		t.Fatalf("RMW err = %v", err)
	}
}

func TestGridConcurrentMixedOps(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<24, false)
	b, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	for i := 0; i < 64; i++ {
		if err := g.Insert(fmt.Sprintf("key%d", i), testRecord(4, "init")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("key%d", rng.Intn(64))
				switch rng.Intn(3) {
				case 0:
					if err := g.Read(key, func(string, []byte) {}); err != nil {
						errCh <- fmt.Errorf("read %s: %w", key, err)
						return
					}
				case 1:
					err := g.Update(key, []Field{{Name: "field1", Value: []byte(fmt.Sprintf("w%d-%d", w, i))}})
					if err != nil {
						errCh <- fmt.Errorf("update %s: %w", key, err)
						return
					}
				case 2:
					err := g.ReadModifyWrite(key, func(rec *Record) []Field {
						v, _ := rec.Get("field2")
						return []Field{{Name: "field2", Value: append(append([]byte{}, v...), 'x')}}
					})
					if err != nil {
						errCh <- fmt.Errorf("rmw %s: %w", key, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if g.Count() != 64 {
		t.Fatalf("Count = %d", g.Count())
	}
}

// TestGridAsyncUpdatesShareEpoch: under manual drains, two updates of
// different fields of one record hold different words of its table, so
// they share one epoch and both land; two updates of the same field hold
// the same value word, so the second drains the first before it runs.
func TestGridAsyncUpdatesShareEpoch(t *testing.T) {
	for _, tc := range []struct {
		name           string
		second         string
		epochs, forced uint64
	}{
		{"OtherField", "g", 1, 0},
		{"SameField", "f", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, mgr, _ := openStoreHeap(t, 1<<23, false)
			b, err := NewJPFABackend(h, mgr, "kv")
			if err != nil {
				t.Fatal(err)
			}
			g := NewGrid(b)
			val := func(c byte) []byte { return bytes.Repeat([]byte{c}, 100) }
			if err := g.Insert("k", &Record{Fields: []Field{{Name: "f", Value: val('a')}, {Name: "g", Value: val('a')}}}); err != nil {
				t.Fatal(err)
			}
			if err := mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true}); err != nil {
				t.Fatal(err)
			}
			before := mgr.ObsSnapshot()
			if err := g.Update("k", []Field{{Name: "f", Value: val('b')}}); err != nil {
				t.Fatal(err)
			}
			if err := g.Update("k", []Field{{Name: tc.second, Value: val('c')}}); err != nil {
				t.Fatal(err)
			}
			mgr.DrainDurable()
			d := mgr.ObsSnapshot().Sub(before)
			if d.Epochs != tc.epochs || d.EpochsConflict != tc.forced || d.EpochTxs != 2 {
				t.Fatalf("two updates drained in %d epochs, %d forced by a conflict, %d commits; want %d, %d, 2",
					d.Epochs, d.EpochsConflict, d.EpochTxs, tc.epochs, tc.forced)
			}
			want := map[string]string{"f": string(val('b')), "g": string(val('a'))}
			want[tc.second] = string(val('c'))
			got := map[string]string{}
			if err := g.Read("k", func(name string, value []byte) { got[name] = string(value) }); err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got["f"] != want["f"] || got["g"] != want["g"] {
				t.Fatalf("after the drain: f=%.4q... g=%.4q..., want f=%.4q... g=%.4q...", got["f"], got["g"], want["f"], want["g"])
			}
			if n := FsckRecords(h, func(msg string) { t.Error(msg) }); n != 0 {
				t.Fatalf("fsck: %d errors", n)
			}
		})
	}
}
