package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// memBackend is a minimal map-backed Backend for batch tests.
type memBackend struct {
	mu sync.Mutex
	m  map[string][]Field
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[string][]Field)} }

func (b *memBackend) Name() string { return "mem" }
func (b *memBackend) Insert(key string, rec *Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[key]; ok {
		return fmt.Errorf("mem: duplicate key %q", key)
	}
	fs := make([]Field, len(rec.Fields))
	for i, f := range rec.Fields {
		fs[i] = Field{Name: f.Name, Value: append([]byte(nil), f.Value...)}
	}
	b.m[key] = fs
	return nil
}
func (b *memBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fs, ok := b.m[key]
	if !ok {
		return false, nil
	}
	for _, f := range fs {
		consume(f.Name, f.Value)
	}
	return true, nil
}
func (b *memBackend) Update(key string, fields []Field) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fs, ok := b.m[key]
	if !ok {
		return false, nil
	}
	for _, nf := range fields {
		for i := range fs {
			if fs[i].Name == nf.Name {
				fs[i].Value = append([]byte(nil), nf.Value...)
			}
		}
	}
	return true, nil
}
func (b *memBackend) Delete(key string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[key]
	delete(b.m, key)
	return ok, nil
}
func (b *memBackend) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}
func (b *memBackend) Close() error { return nil }
func (b *memBackend) Caps() Caps   { return Caps{} }

func TestApplyBatchOrderAndResults(t *testing.T) {
	g := NewGrid(newMemBackend())
	ops := []BatchOp{
		{Kind: BatchInsert, Key: "a", Fields: []Field{{Name: "f", Value: []byte("1")}}},
		{Kind: BatchRead, Key: "a"},
		{Kind: BatchUpdate, Key: "a", Fields: []Field{{Name: "f", Value: []byte("2")}}},
		{Kind: BatchRead, Key: "a"},
		{Kind: BatchRMW, Key: "a", Fields: []Field{{Name: "f", Value: []byte("3")}}},
		{Kind: BatchDelete, Key: "a"},
		{Kind: BatchRead, Key: "a"},
		{Kind: BatchUpdate, Key: "missing", Fields: []Field{{Name: "f", Value: []byte("x")}}},
	}
	res := make([]BatchResult, len(ops))
	g.ApplyBatch(ops, res)

	for i, wantErr := range []bool{false, false, false, false, false, false, true, true} {
		if (res[i].Err != nil) != wantErr {
			t.Fatalf("op %d: err = %v, want error %v", i, res[i].Err, wantErr)
		}
	}
	if got := string(res[1].Fields[0].Value); got != "1" {
		t.Fatalf("read after insert saw %q, want 1", got)
	}
	if got := string(res[3].Fields[0].Value); got != "2" {
		t.Fatalf("read after update saw %q, want 2", got)
	}
	if !errors.Is(res[6].Err, ErrNotFound) {
		t.Fatalf("read after delete: %v, want ErrNotFound", res[6].Err)
	}
	if !errors.Is(res[7].Err, ErrNotFound) {
		t.Fatalf("update of missing key: %v, want ErrNotFound", res[7].Err)
	}
}

// Batch read results must be deep copies: mutating the backend after the
// batch returns must not change them.
func TestApplyBatchReadCopies(t *testing.T) {
	g := NewGrid(newMemBackend())
	ins := []BatchOp{{Kind: BatchInsert, Key: "k", Fields: []Field{{Name: "f", Value: []byte("before")}}}}
	res := make([]BatchResult, 1)
	g.ApplyBatch(ins, res)

	rd := []BatchOp{{Kind: BatchRead, Key: "k"}}
	g.ApplyBatch(rd, res)
	got := res[0].Fields

	upd := []BatchOp{{Kind: BatchUpdate, Key: "k", Fields: []Field{{Name: "f", Value: []byte("after!")}}}}
	var res2 [1]BatchResult
	g.ApplyBatch(upd, res2[:])

	if string(got[0].Value) != "before" {
		t.Fatalf("batch read result aliased backend storage: %q", got[0].Value)
	}
}

// Concurrent batches with disjoint keys: every op runs under its key's
// stripe lock, the backend serializing inserts and deletes on its own.
// Run under -race.
func TestApplyBatchConcurrent(t *testing.T) {
	g := NewGrid(newMemBackend())
	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("w%d-%d", w, r)
				ops := []BatchOp{
					{Kind: BatchInsert, Key: key, Fields: []Field{{Name: "f", Value: []byte(key)}}},
					{Kind: BatchRead, Key: key},
					{Kind: BatchUpdate, Key: key, Fields: []Field{{Name: "f", Value: []byte("v2")}}},
					{Kind: BatchDelete, Key: key},
				}
				res := make([]BatchResult, len(ops))
				g.ApplyBatch(ops, res)
				for i, r := range res {
					if r.Err != nil {
						t.Errorf("worker %d op %d: %v", w, i, r.Err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := g.Count(); n != 0 {
		t.Fatalf("%d records left after delete-all", n)
	}
}

// TestStructuralOpsConcurrent: concurrent inserts and deletes of disjoint
// keys on the J-NVM stacks, through the direct Grid methods and through
// Apply, which takes no lock beyond the stripe locks; the persistent map
// serializes the shared array itself. Every worker deletes half of what
// it inserts, so the array both grows and frees bindings under
// contention. Run under -race.
func TestStructuralOpsConcurrent(t *testing.T) {
	const workers, rounds = 4, 120
	backends := jnvmBackends(t)
	for _, name := range []string{"jpdt", "jpfa", "jpfa-async"} {
		for _, viaApply := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/apply=%v", name, viaApply), func(t *testing.T) {
				b, _, mgr, _ := backends[name]()
				g := NewGrid(b)
				insert, del := g.Insert, g.Delete
				if viaApply {
					insert = func(key string, rec *Record) error {
						return g.Apply(&BatchOp{Kind: BatchInsert, Key: key, Fields: rec.Fields}, nil)
					}
					del = func(key string) error { return g.Apply(&BatchOp{Kind: BatchDelete, Key: key}, nil) }
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							key := fmt.Sprintf("w%d-%d", w, r)
							if err := insert(key, &Record{Fields: []Field{{Name: "f", Value: []byte(key)}}}); err != nil {
								t.Errorf("insert %s: %v", key, err)
								return
							}
							if r%2 == 1 {
								if err := del(fmt.Sprintf("w%d-%d", w, r-1)); err != nil {
									t.Errorf("delete: %v", err)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				mgr.DrainDurable()
				if n := g.Count(); n != workers*rounds/2 {
					t.Fatalf("%d records, want %d", n, workers*rounds/2)
				}
				for w := 0; w < workers; w++ {
					for r := 0; r < rounds; r++ {
						key := fmt.Sprintf("w%d-%d", w, r)
						var got string
						err := g.Read(key, func(_ string, v []byte) { got = string(v) })
						if r%2 == 0 && !errors.Is(err, ErrNotFound) {
							t.Fatalf("deleted %s: err %v", key, err)
						}
						if r%2 == 1 && (err != nil || got != key) {
							t.Fatalf("%s = %q (%v), want itself", key, got, err)
						}
					}
				}
			})
		}
	}
}

// Apply streams a read to the caller's consumer (no copy of its own) and
// never calls it for any other kind.
func TestApplyStreamsReadOnly(t *testing.T) {
	g := NewGrid(newMemBackend())
	calls := 0
	consume := func(name string, value []byte) {
		calls++
		if name != "f" || string(value) != "2" {
			t.Errorf("streamed field %q=%q, want f=2", name, value)
		}
	}
	for _, op := range []BatchOp{
		{Kind: BatchInsert, Key: "a", Fields: []Field{{Name: "f", Value: []byte("1")}}},
		{Kind: BatchUpdate, Key: "a", Fields: []Field{{Name: "f", Value: []byte("2")}}},
		{Kind: BatchRMW, Key: "a", Fields: []Field{{Name: "f", Value: []byte("2")}}},
	} {
		if err := g.Apply(&op, consume); err != nil {
			t.Fatalf("kind %d: %v", op.Kind, err)
		}
	}
	if calls != 0 {
		t.Fatalf("consume called %d times by non-read kinds", calls)
	}
	if err := g.Apply(&BatchOp{Kind: BatchRead, Key: "a"}, consume); err != nil || calls != 1 {
		t.Fatalf("read: err %v, %d consume calls, want 1", err, calls)
	}
	if err := g.Apply(&BatchOp{Kind: BatchRead, Key: "nope"}, consume); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of missing key: %v, want ErrNotFound", err)
	}
}
