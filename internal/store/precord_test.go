package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/nvm"
)

// jnvmBackends opens each J-NVM backend over its own fresh heap.
func jnvmBackends(t *testing.T) map[string]func() (Backend, *core.Heap, *fa.Manager, *nvm.Pool) {
	t.Helper()
	open := func(mk func(h *core.Heap, mgr *fa.Manager) (Backend, error), async bool) func() (Backend, *core.Heap, *fa.Manager, *nvm.Pool) {
		return func() (Backend, *core.Heap, *fa.Manager, *nvm.Pool) {
			h, mgr, pool := openStoreHeap(t, 1<<23, false)
			b, err := mk(h, mgr)
			if err != nil {
				t.Fatal(err)
			}
			if async {
				if err := mgr.SetGroupCommit(fa.GroupOptions{Mode: fa.CommitAsync}); err != nil {
					t.Fatal(err)
				}
			}
			return b, h, mgr, pool
		}
	}
	jpdt := func(h *core.Heap, _ *fa.Manager) (Backend, error) { return NewJPDTBackend(h, "kv") }
	jpfa := func(h *core.Heap, mgr *fa.Manager) (Backend, error) { return NewJPFABackend(h, mgr, "kv") }
	return map[string]func() (Backend, *core.Heap, *fa.Manager, *nvm.Pool){
		"jpdt": open(jpdt, false), "jpfa": open(jpfa, false), "jpfa-async": open(jpfa, true),
	}
}

// reopenBackend recovers pool and reopens the same kind of backend.
func reopenBackend(t *testing.T, name string, pool *nvm.Pool) (Backend, *core.Heap) {
	t.Helper()
	h, mgr, _ := reopenStoreHeap(t, pool)
	var b Backend
	var err error
	if strings.HasPrefix(name, "jpfa") {
		b, err = NewJPFABackend(h, mgr, "kv")
	} else {
		b, err = NewJPDTBackend(h, "kv")
	}
	if err != nil {
		t.Fatal(err)
	}
	return b, h
}

// readCopy reads a record, copying what the backend hands out.
func readCopy(t *testing.T, b Backend, key string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ok, err := b.Read(key, func(name string, val []byte) {
		out[strings.Clone(name)] = append([]byte{}, val...)
	})
	if err != nil || !ok {
		t.Fatalf("read %s: %v %v", key, ok, err)
	}
	return out
}

func wantFields(t *testing.T, step string, got map[string][]byte, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d fields, want %d (%v)", step, len(got), len(want), got)
	}
	for n, v := range want {
		if !bytes.Equal(got[n], v) {
			t.Fatalf("%s: field %s = %q, want %q", step, n, got[n], v)
		}
	}
}

// tableOf resolves key's record table through the backend's map.
func tableOf(t *testing.T, b Backend, h *core.Heap, key string) *pRecord {
	t.Helper()
	var ref core.Ref
	switch b := b.(type) {
	case *JPDTBackend:
		ref = b.m.GetRef(key)
	case *JPFABackend:
		ref = b.m.GetRef(key)
	}
	if ref == 0 {
		t.Fatalf("no table for %s", key)
	}
	return &pRecord{Object: h.Inspect(ref)}
}

// TestRecordRepresentations drives every value representation and every
// change between them through each J-NVM backend, and reads the record
// back live and after a recovery at each step: a value of at most 8
// bytes lives in the table, a zero counter is a value and not a nullified
// field, and only real references are listed for the recovery GC.
func TestRecordRepresentations(t *testing.T) {
	for name, open := range jnvmBackends(t) {
		t.Run(name, func(t *testing.T) {
			b, h, mgr, pool := open()
			want := map[string][]byte{
				"zero":  make([]byte, 8), // a counter at 0
				"empty": {},
				"short": []byte("abc"),
				"eight": []byte("12345678"),
				"nine":  []byte("123456789"),
				"long":  bytes.Repeat([]byte("v"), 100),
			}
			rec := &Record{}
			for _, n := range []string{"zero", "empty", "short", "eight", "nine", "long"} {
				rec.Fields = append(rec.Fields, Field{Name: n, Value: want[n]})
			}
			if err := b.Insert("k", rec); err != nil {
				t.Fatal(err)
			}
			wantFields(t, "insert", readCopy(t, b, "k"), want)
			if refs := recordRefs(tableOf(t, b, h, "k").Object); len(refs) != 2 {
				t.Fatalf("table lists %d references, want 2 (nine, long)", len(refs))
			}

			steps := []struct {
				what  string
				name  string
				value []byte
			}{
				{"inline in place", "eight", []byte("abcdefgh")},
				{"inline to reference", "short", bytes.Repeat([]byte("s"), 40)},
				{"reference to inline", "long", []byte("tiny")},
				{"inline length change", "zero", []byte{1, 2, 3}},
				{"inline to empty", "eight", []byte{}},
				{"empty to inline", "empty", []byte("e")},
				{"reference in place", "nine", bytes.Repeat([]byte("n"), 60)},
				{"back to a zero counter", "zero", make([]byte, 8)},
			}
			for _, s := range steps {
				if ok, err := b.Update("k", []Field{{Name: s.name, Value: s.value}}); !ok || err != nil {
					t.Fatalf("%s: %v %v", s.what, ok, err)
				}
				want[s.name] = s.value
				wantFields(t, s.what, readCopy(t, b, "k"), want)
			}
			// One update, several fields, several representation changes.
			multi := []Field{
				{Name: "short", Value: []byte("x")},
				{Name: "long", Value: bytes.Repeat([]byte("L"), 30)},
				{Name: "nine", Value: []byte("99")},
			}
			if ok, err := b.Update("k", multi); !ok || err != nil {
				t.Fatalf("multi: %v %v", ok, err)
			}
			for _, f := range multi {
				want[f.Name] = f.Value
			}
			wantFields(t, "multi", readCopy(t, b, "k"), want)
			if ok, err := b.Update("k", []Field{{Name: "nosuch", Value: []byte("x")}}); ok || err == nil {
				t.Fatalf("update of a missing field: %v %v", ok, err)
			}

			mgr.DrainDurable()
			b2, h2 := reopenBackend(t, name, pool)
			wantFields(t, "recovered", readCopy(t, b2, "k"), want)
			if n := h2.RecoveryStats.NullifiedRefs; n != 0 {
				t.Fatalf("recovery nullified %d references of an intact record", n)
			}
			if n := FsckRecords(h2, func(m string) { t.Log(m) }); n != 0 {
				t.Fatalf("fsck: %d issues", n)
			}
			if ok, err := b2.Delete("k"); !ok || err != nil {
				t.Fatalf("delete: %v %v", ok, err)
			}
		})
	}
}

// TestRecordIsOneObject is the layout claim: a record of small values
// under interned names is its table and nothing else, whatever the
// backend, and the names are stored once.
func TestRecordIsOneObject(t *testing.T) {
	for name, open := range jnvmBackends(t) {
		t.Run(name, func(t *testing.T) {
			b, h, mgr, _ := open()
			rec := func(i int) *Record {
				return &Record{Fields: []Field{
					{Name: "hits", Value: make([]byte, 8)},
					{Name: "flag", Value: []byte{byte(i)}},
				}}
			}
			if err := b.Insert("warm", rec(0)); err != nil { // interns the names, carves chunks
				t.Fatal(err)
			}
			mgr.DrainDurable()
			before := h.Mem().ObsSnapshot()
			const n = 50
			for i := 0; i < n; i++ {
				if err := b.Insert(fmt.Sprintf("k%03d", i), rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			mgr.DrainDurable()
			d := h.Mem().ObsSnapshot().Sub(before)
			// Per record: the table, plus what the map keeps per binding
			// (a pooled key; now and then a bigger binding array). No
			// name, no value and no per-binding block objects.
			if perRec := float64(d.ObjAllocs) / n; perRec > 1.5 {
				t.Fatalf("%.2f block objects allocated per record, want the table and a share of the map's array", perRec)
			}
			if perRec := float64(d.SmallAllocs) / n; perRec > 1 {
				t.Fatalf("%.2f pooled objects allocated per record, want at most the map's key", perRec)
			}
		})
	}
}

// TestNameDictionaryBounded: past the cap a record keeps its names as
// its own objects, through the reference encoding of the name word;
// both kinds of field read, update, fold and delete alike, DELETE frees
// the per-record names and never a dictionary name, and the dictionary
// (ids, cap and all) survives a reopen.
func TestNameDictionaryBounded(t *testing.T) {
	defer func(n int) { maxNames = n }(maxNames)
	maxNames = 3
	for name, open := range jnvmBackends(t) {
		t.Run(name, func(t *testing.T) {
			b, h, mgr, pool := open()
			names := func(b Backend) *nameDict {
				if b, ok := b.(*JPFABackend); ok {
					return b.names
				}
				return b.(*JPDTBackend).names
			}
			in := &Record{Fields: []Field{
				{Name: "a", Value: []byte("1")},
				{Name: "b", Value: make([]byte, 8)},
				{Name: "c", Value: bytes.Repeat([]byte("c"), 50)},
			}}
			if err := b.Insert("in", in); err != nil {
				t.Fatal(err)
			}
			if n := names(b).arr.Len(); n != 3 {
				t.Fatalf("dictionary holds %d names, want 3", n)
			}
			over := &Record{Fields: []Field{
				{Name: "a", Value: []byte("2")},         // interned, inline
				{Name: "x", Value: make([]byte, 8)},     // per-record name, referenced counter
				{Name: "y", Value: []byte("yy")},        // per-record name, referenced value
				{Name: "c", Value: []byte("short now")}, // interned, referenced
			}}
			want := map[string][]byte{}
			for _, f := range over.Fields {
				want[f.Name] = f.Value
			}
			if err := b.Insert("over", over); err != nil {
				t.Fatal(err)
			}
			if n := names(b).arr.Len(); n != 3 {
				t.Fatalf("dictionary grew to %d names past its cap of 3", n)
			}
			wantFields(t, "over", readCopy(t, b, "over"), want)
			r := tableOf(t, b, h, "over")
			for i, interned := range []bool{true, false, false, true} {
				if nw := r.ReadUint64(fieldNameOff(i)); (nw&nameInterned != 0) != interned {
					t.Fatalf("field %d: name word %#x, interned want %v", i, nw, interned)
				}
			}
			if refs := recordRefs(r.Object); len(refs) != 5 { // x, y: name + value; c: value
				t.Fatalf("table lists %d references, want 5", len(refs))
			}
			// Updates and folds address a per-record name like any other.
			if ok, err := b.Update("over", []Field{{Name: "y", Value: []byte("y2")}, {Name: "a", Value: []byte("3")}}); !ok || err != nil {
				t.Fatalf("update: %v %v", ok, err)
			}
			want["y"], want["a"] = []byte("y2"), []byte("3")
			g := NewGrid(b)
			for _, f := range []string{"x", "x"} {
				if err := g.AddDelta("over", f, 21); err != nil {
					t.Fatalf("delta on %s: %v", f, err)
				}
			}
			want["x"] = binary.LittleEndian.AppendUint64(nil, 42)
			wantFields(t, "updated", readCopy(t, b, "over"), want)
			if err := g.AddDelta("over", "y", 1); err == nil {
				t.Fatal("delta on a 2-byte field accepted")
			}

			mgr.DrainDurable()
			b, h = reopenBackend(t, name, pool)
			if n := names(b).arr.Len(); n != 3 {
				t.Fatalf("reopened dictionary holds %d names, want 3", n)
			}
			wantFields(t, "recovered", readCopy(t, b, "over"), want)
			if n := FsckRecords(h, func(m string) { t.Log(m) }); n != 0 {
				t.Fatalf("fsck: %d issues", n)
			}

			// DELETE frees the two per-record names with the record, and
			// nothing of the dictionary.
			before := h.Mem().ObsSnapshot()
			if ok, err := b.Delete("over"); !ok || err != nil {
				t.Fatalf("delete: %v %v", ok, err)
			}
			if fb, ok := b.(*JPFABackend); ok {
				fb.mgr.Retire() // a block's frees reach the allocator when its commit retires
			}
			h.Mem().ReclaimBarrier()
			d := h.Mem().ObsSnapshot().Sub(before)
			// Pooled: names x and y, the values of x, y and c, the map's
			// key.
			if d.SmallFrees != 6 {
				t.Fatalf("delete freed %d pooled objects, want 6", d.SmallFrees)
			}
			for i, n := range []string{"a", "b", "c"} {
				if got, ok := names(b).name(uint32(i)); !ok || got != n {
					t.Fatalf("dictionary id %d = %q after the delete, want %q", i, got, n)
				}
				if ref := names(b).arr.Get(i); !h.Mem().Valid(ref) {
					t.Fatalf("dictionary name %q freed by a record's delete", n)
				}
			}
			wantFields(t, "in", readCopy(t, b, "in"), map[string][]byte{"a": []byte("1"), "b": make([]byte, 8), "c": bytes.Repeat([]byte("c"), 50)})
		})
	}
}

// TestReadRefusesOversizedInline: a name word that declares an inline
// value longer than the 8-byte value word is corrupt. The locked read used
// to view that many bytes past the word (the value, then the next field's
// words) and return them as the field; it must fail naming key and field.
func TestReadRefusesOversizedInline(t *testing.T) {
	for name, open := range jnvmBackends(t) {
		t.Run(name, func(t *testing.T) {
			b, h, mgr, _ := open()
			rec := &Record{Fields: []Field{
				{Name: "a", Value: []byte("1")},
				{Name: "b", Value: []byte("bb")},
			}}
			if err := b.Insert("k", rec); err != nil {
				t.Fatal(err)
			}
			mgr.DrainDurable()
			r := tableOf(t, b, h, "k")
			nw := r.ReadUint64(fieldNameOff(0))
			r.WriteUint64(fieldNameOff(0), internedWord(wordID(nw), repInline+40))
			g := NewGrid(b)
			var got []string
			err := g.Read("k", func(name string, value []byte) {
				got = append(got, fmt.Sprintf("%s=%q", name, value))
			})
			if err == nil {
				t.Fatalf("read of a 40-byte inline value succeeded: %v", got)
			}
			if msg := err.Error(); !strings.Contains(msg, `"k"`) || !strings.Contains(msg, `"a"`) {
				t.Fatalf("error %q does not name key and field", msg)
			}
			// A fold reads the same word: an error too, never a panic.
			if err := g.AddDelta("k", "a", 1); err == nil {
				t.Fatal("fold into a 40-byte inline value succeeded")
			}
		})
	}
}

// TestInlineReadersNeverTorn flips an inline field between two 8-byte
// patterns (and a sibling referenced field between two values) while
// unlocked readers — the J-PDT seqlock path — check that every value
// they are handed is whole and stays whole for the duration of the
// consume call. Run under -race.
func TestInlineReadersNeverTorn(t *testing.T) {
	patterns := [2][]byte{bytes.Repeat([]byte{0xAA}, 8), bytes.Repeat([]byte{0x55}, 8)}
	long := [2][]byte{bytes.Repeat([]byte{0xAA}, 64), bytes.Repeat([]byte{0x55}, 64)}
	t.Run("jpdt", func(t *testing.T) {
		b, _, _, _ := jnvmBackends(t)["jpdt"]()
		g := NewGrid(b) // cache off: zero-copy mode
		if err := g.Insert("k", &Record{Fields: []Field{
			{Name: "word", Value: patterns[0]},
			{Name: "blob", Value: long[0]},
		}}); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var reads atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				whole := func(v []byte) bool {
					for _, c := range v {
						if c != v[0] {
							return false
						}
					}
					return v[0] == 0xAA || v[0] == 0x55
				}
				for !stop.Load() {
					err := g.Read("k", func(name string, v []byte) {
						want := 8
						if name == "blob" {
							want = 64
						}
						first := append([]byte{}, v...)
						if len(v) != want || !whole(v) || !bytes.Equal(first, v) {
							select {
							case errs <- fmt.Errorf("%s = %x", name, v):
							default:
							}
						}
					})
					if err != nil {
						select {
						case errs <- err:
						default:
						}
					}
					reads.Add(1)
				}
			}()
		}
		// At least 4000 flips, and on until the readers have had their
		// share of a busy host (bounded, in case they never do).
		for i := 1; i <= 4000 || (reads.Load() < 2000 && i < 4_000_000); i++ {
			f := Field{Name: "word", Value: patterns[i%2]}
			if i%8 == 0 {
				f = Field{Name: "blob", Value: long[i/8%2]}
			}
			if err := g.Update("k", []Field{f}); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if z := g.ObsSnapshot(); z.ZeroCopyHits == 0 {
			t.Fatal("no read took the zero-copy path")
		}
	})
}
