package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// captureRead performs a grid read and keeps the exact slices handed to the
// consumer (what a caching client would retain).
func captureRead(t *testing.T, g *Grid, key string) *Record {
	t.Helper()
	rec := &Record{}
	err := g.Read(key, func(name string, val []byte) {
		rec.Fields = append(rec.Fields, Field{Name: name, Value: val})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// countingBackend counts the reads that reach the wrapped backend and
// streams every value through a buffer it scribbles over once the consumer
// returns, the way a J-NVM backend's views go stale after the call.
type countingBackend struct {
	Backend
	reads atomic.Int64
}

func (b *countingBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	b.reads.Add(1)
	return b.Backend.Read(key, func(name string, value []byte) {
		buf := append([]byte(nil), value...)
		consume(name, buf)
		for i := range buf {
			buf[i] = '#'
		}
	})
}

// TestGridCachedReadSurvivesBlockReuse is the aliasing test: the cache
// must deep-copy what a backend streams on a fill. The inner backend
// overwrites every value it hands out once the call returns, and J-PDT
// beneath it frees and recycles the blocks it viewed on the update,
// delete and churn below; a read served by the cache must keep its bytes.
func TestGridCachedReadSurvivesBlockReuse(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<23, false)
	jb, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	b := &countingBackend{Backend: jb}
	// Populate behind the cache so the first grid read takes the fill
	// path rather than Insert's clone.
	if err := b.Insert("victim", testRecord(5, "victim")); err != nil {
		t.Fatal(err)
	}
	g := NewGrid(Cached(b, 16))

	// The first read fills the cache; the second is served by it —
	// capture exactly what it hands out.
	captureRead(t, g, "victim")
	got := captureRead(t, g, "victim")
	if n := b.reads.Load(); n != 1 {
		t.Fatalf("%d reads reached the backend, want 1: second read was not a cache hit", n)
	}
	want := testRecord(5, "victim")

	if err := g.Update("victim", []Field{{Name: "field1", Value: []byte("patched")}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Delete("victim"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := g.Insert(fmt.Sprintf("churn%d", i), testRecord(5, fmt.Sprintf("CHURN%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The previously served read result must be unchanged.
	for i, f := range want.Fields {
		if got.Fields[i].Name != f.Name {
			t.Fatalf("field %d name changed: %q", i, got.Fields[i].Name)
		}
		if !bytes.Equal(got.Fields[i].Value, f.Value) {
			t.Fatalf("cached read result changed under it: field %d = %q, want %q",
				i, got.Fields[i].Value, f.Value)
		}
	}
}

// TestGridCacheCoherentAfterPartialUpdate: a backend update that fails
// half-way (unknown second field) has already swung the first field and
// freed its old value object. The grid must not keep serving the cached
// record as if nothing happened.
func TestGridCacheCoherentAfterPartialUpdate(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<23, false)
	b, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("k", testRecord(3, "k")); err != nil {
		t.Fatal(err)
	}
	g := NewGrid(Cached(b, 16))
	captureRead(t, g, "k") // warm cache

	err = g.Update("k", []Field{
		{Name: "field0", Value: []byte("half-applied")},
		{Name: "no-such-field", Value: []byte("x")},
	})
	if err == nil {
		t.Fatal("update with unknown field should error")
	}
	// Churn so any dangling cached views get recycled.
	for i := 0; i < 8; i++ {
		if err := g.Insert(fmt.Sprintf("churn%d", i), testRecord(3, fmt.Sprintf("C%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The grid must now agree with the backend.
	truth, ok := readAll(t, b, "k")
	if !ok {
		t.Fatal("backend lost the record")
	}
	got := captureRead(t, g, "k")
	for _, f := range truth.Fields {
		v, ok := got.Get(f.Name)
		if !ok || !bytes.Equal(v, f.Value) {
			t.Fatalf("grid read diverged from backend after failed update: %s = %q, want %q",
				f.Name, v, f.Value)
		}
	}
}

// TestGridCachedConcurrentReadersWriters hammers a grid over a cached J-PDT
// backend with concurrent readers and writers. Designed for -race: a cache
// that kept backend views, or patched a record a reader is streaming,
// races the writers.
func TestGridCachedConcurrentReadersWriters(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<24, false)
	b, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(Cached(b, 32))
	const keys = 16
	for i := 0; i < keys; i++ {
		if err := g.Insert(fmt.Sprintf("key%d", i), testRecord(4, "init")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // writers: update and delete+reinsert churn
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key%d", rng.Intn(keys))
				if rng.Intn(4) == 0 {
					if err := g.Delete(key); err != nil && err != ErrNotFound {
						errCh <- err
						return
					}
					if err := g.Insert(key, testRecord(4, fmt.Sprintf("w%d-%d", w, i))); err != nil {
						errCh <- err
						return
					}
					continue
				}
				err := g.Update(key, []Field{{Name: "field1", Value: []byte(fmt.Sprintf("w%d-%d", w, i))}})
				if err != nil && err != ErrNotFound {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { // readers: touch every byte served
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			sink := 0
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("key%d", rng.Intn(keys))
				err := g.Read(key, func(_ string, val []byte) {
					for _, c := range val {
						sink += int(c)
					}
				})
				if err != nil && err != ErrNotFound {
					errCh <- err
					return
				}
			}
			_ = sink
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestGridShardedCacheServesAllStripes fills more keys than there are
// cache shards and re-reads each: with per-shard capacity rounded up from
// the requested size, every read must be a hit whichever shard the key
// hashed to, and the patch on a successful update must keep every shard
// coherent.
func TestGridShardedCacheServesAllStripes(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<24, false)
	jb, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	b := &countingBackend{Backend: jb}
	const keys = 4 * gridStripes // several keys per shard on average
	g := NewGrid(Cached(b, 16*gridStripes))
	for i := 0; i < keys; i++ {
		if err := g.Insert(fmt.Sprintf("key%04d", i), testRecord(3, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Insert cloned every record into its shard; all reads must hit.
	for i := 0; i < keys; i++ {
		captureRead(t, g, fmt.Sprintf("key%04d", i))
	}
	if n := b.reads.Load(); n != 0 {
		t.Fatalf("sharded cache: %d of %d reads reached the backend, want 0", n, keys)
	}
	// Patch a field on every key and verify the cached copy follows.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key%04d", i)
		want := []byte(fmt.Sprintf("patched%d", i))
		if err := g.Update(key, []Field{{Name: "field1", Value: want}}); err != nil {
			t.Fatal(err)
		}
		rec := captureRead(t, g, key)
		got, ok := rec.Get("field1")
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: cached field1 = %q, want %q", key, got, want)
		}
	}
	if n := b.reads.Load(); n != 0 {
		t.Fatalf("%d reads after patches reached the backend, want 0", n)
	}
}
