package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fa"
)

// versionRecord builds a record whose every field value encodes version v
// redundantly: 32 bytes, all equal to the version's low byte. A torn read
// — bytes from two versions in one value, or fields from two versions in
// one record — is detectable (the single sequential writer never has two
// in-flight versions 256 apart).
func versionRecord(fields, v int) *Record {
	rec := &Record{}
	for i := 0; i < fields; i++ {
		rec.Fields = append(rec.Fields, Field{Name: fmt.Sprintf("field%d", i), Value: versionValue(v)})
	}
	return rec
}

func versionValue(v int) []byte {
	val := make([]byte, 32)
	for j := range val {
		val[j] = byte(v)
	}
	return val
}

// decodeVersion checks one value for internal consistency and returns its
// version byte.
func decodeVersion(t *testing.T, key string, val []byte) byte {
	if len(val) != 32 {
		t.Errorf("%s: value length %d", key, len(val))
		return 0
	}
	tag := val[0]
	for j, b := range val {
		if b != tag {
			t.Errorf("%s: torn value: byte %d is %d, head is %d", key, j, b, tag)
			return tag
		}
	}
	return tag
}

// viewConfigs are the J-NVM configurations the zero-copy read path
// serves: J-PDT, and J-PFA in both commit modes (jnvmBackends).
var viewConfigs = []string{"jpdt", "jpfa", "jpfa-async"}

// viewGrid opens a fresh cache-less grid over the named configuration and
// checks that it adopted the zero-copy read path.
func viewGrid(t *testing.T, name string) *Grid {
	t.Helper()
	b, _, _, _ := jnvmBackends(t)[name]()
	g := NewGrid(b)
	if g.ReadPath() != "view" {
		t.Fatalf("%s: grid read path %q, want view", name, g.ReadPath())
	}
	return g
}

// TestGridZeroCopyReadNeverTorn is the seqlock regression test
// (DESIGN.md §14): with the zero-copy read path active (no record cache),
// concurrent readers must observe every record as a whole — all fields
// from one version, every value internally consistent — while writers
// update all fields, delete/re-insert records (forcing block reuse
// through the allocator), and churn unrelated keys.
func TestGridZeroCopyReadNeverTorn(t *testing.T) {
	for _, name := range viewConfigs {
		t.Run(name, func(t *testing.T) {
			g := viewGrid(t, name)
			zeroCopyReadNeverTorn(t, g)
		})
	}
}

func zeroCopyReadNeverTorn(t *testing.T, g *Grid) {
	const (
		fields  = 5
		keys    = 8
		rounds  = 400
		readers = 4
	)
	for i := 0; i < keys; i++ {
		if err := g.Insert(fmt.Sprintf("key%d", i), versionRecord(fields, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Updater: bumps every field of every key in one Update per round, so
	// any mixed-version read is a real atomicity violation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for v := 1; v <= rounds; v++ {
			for i := 0; i < keys; i++ {
				rec := versionRecord(fields, v)
				if err := g.Update(fmt.Sprintf("key%d", i), rec.Fields); err != nil {
					t.Errorf("update v%d: %v", v, err)
					return
				}
			}
		}
	}()

	// Churner: deletes and re-inserts an unrelated key so freed value
	// blocks flow back through the allocator and get recycled while
	// readers hold views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			key := fmt.Sprintf("churn%d", i%4)
			if err := g.Insert(key, versionRecord(fields, i)); err != nil {
				t.Errorf("churn insert: %v", err)
				return
			}
			if err := g.Delete(key); err != nil {
				t.Errorf("churn delete: %v", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			// Minimum iteration count: the writer may finish before the
			// readers are scheduled, and the fast path must still be
			// exercised.
			for it := 0; it < 2000 || !stop.Load(); it++ {
				key := fmt.Sprintf("key%d", rng.Intn(keys))
				var versions []byte
				err := g.Read(key, func(name string, val []byte) {
					versions = append(versions, decodeVersion(t, key, val))
				})
				if err != nil {
					t.Errorf("read %s: %v", key, err)
					return
				}
				if len(versions) != fields {
					t.Errorf("%s: %d fields streamed", key, len(versions))
					return
				}
				for _, v := range versions[1:] {
					if v != versions[0] {
						t.Errorf("%s: mixed-version record: %v", key, versions)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	snap := g.ObsSnapshot()
	t.Logf("zero-copy=%d fallbacks=%d retries=%d", snap.ZeroCopyHits, snap.CopyFallbacks, snap.SeqlockRetries)
	if snap.ZeroCopyHits == 0 {
		t.Error("zero-copy fast path never taken under contention")
	}
}

// TestGridZeroCopyDeleteRace drives readers against delete/re-insert of
// the same key: a read must cleanly return the record or ErrNotFound,
// never an error or a partial record.
func TestGridZeroCopyDeleteRace(t *testing.T) {
	for _, name := range viewConfigs {
		t.Run(name, func(t *testing.T) {
			g := viewGrid(t, name)
			zeroCopyDeleteRace(t, g)
		})
	}
}

func zeroCopyDeleteRace(t *testing.T, g *Grid) {
	const fields = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for v := 0; v < 500; v++ {
			if err := g.Insert("flick", versionRecord(fields, v)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if err := g.Delete("flick"); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n := 0
				err := g.Read("flick", func(name string, val []byte) {
					decodeVersion(t, "flick", val)
					n++
				})
				switch err {
				case nil:
					if n != fields {
						t.Errorf("partial record: %d fields", n)
						return
					}
				case ErrNotFound:
				default:
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadViewMatchesLockedRead cross-checks the two read paths on the
// same records, including shapes the view reader must refuse (chained
// values) and a record with many fields.
func TestReadViewMatchesLockedRead(t *testing.T) {
	for _, name := range viewConfigs {
		t.Run(name, func(t *testing.T) {
			g := viewGrid(t, name)
			readViewMatchesLockedRead(t, g)
		})
	}
}

func readViewMatchesLockedRead(t *testing.T, g *Grid) {
	shapes := map[string]*Record{
		"small":   testRecord(3, "s"),                                     // pooled values
		"block":   {Fields: []Field{{Name: "f", Value: versionValue(7)}}}, // single value
		"chained": {Fields: []Field{{Name: "big", Value: make([]byte, 600)}}},
		"empty":   {Fields: []Field{{Name: "z", Value: nil}}},
	}
	for key, rec := range shapes {
		if err := g.Insert(key, rec); err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
	}
	for key, want := range shapes {
		got := &Record{}
		err := g.Read(key, func(name string, val []byte) {
			got.Fields = append(got.Fields, Field{
				Name:  string(append([]byte(nil), name...)),
				Value: append([]byte(nil), val...),
			})
		})
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if len(got.Fields) != len(want.Fields) {
			t.Fatalf("%s: %d fields, want %d", key, len(got.Fields), len(want.Fields))
		}
		for i := range want.Fields {
			if got.Fields[i].Name != want.Fields[i].Name {
				t.Fatalf("%s field %d name %q", key, i, got.Fields[i].Name)
			}
			if string(got.Fields[i].Value) != string(want.Fields[i].Value) {
				t.Fatalf("%s field %d value mismatch", key, i)
			}
		}
	}
	snap := g.ObsSnapshot()
	if snap.ZeroCopyHits == 0 || snap.CopyFallbacks == 0 {
		t.Fatalf("expected both paths exercised: zc=%d fb=%d", snap.ZeroCopyHits, snap.CopyFallbacks)
	}
}

// TestReadViewAllReaderSlotsPinned holds every EBR reader slot and reads:
// the zero-copy path cannot pin, so it must hand the read to the locked
// path (which returns the record) rather than read unpinned. Once the
// slots are free again the same read goes zero-copy.
func TestReadViewAllReaderSlotsPinned(t *testing.T) {
	h, _, _ := openStoreHeap(t, 1<<24, false)
	b, err := NewJPDTBackend(h, "kv")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	if err := g.Insert("k", versionRecord(2, 9)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		t.Helper()
		n := 0
		if err := g.Read("k", func(name string, val []byte) {
			if v := decodeVersion(t, "k", val); v != 9 {
				t.Errorf("field %s: version %d, want 9", name, v)
			}
			n++
		}); err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("%d fields streamed, want 2", n)
		}
	}
	mem := h.Mem()
	var pinned []int
	for {
		slot := mem.PinReader(uint32(len(pinned)))
		if slot < 0 {
			break
		}
		pinned = append(pinned, slot)
	}
	before := g.ObsSnapshot()
	read()
	mid := g.ObsSnapshot()
	if mid.ZeroCopyHits != before.ZeroCopyHits || mid.CopyFallbacks != before.CopyFallbacks+1 {
		t.Fatalf("with %d slots pinned: zero-copy %d→%d, fallbacks %d→%d (want the locked path)",
			len(pinned), before.ZeroCopyHits, mid.ZeroCopyHits, before.CopyFallbacks, mid.CopyFallbacks)
	}
	for _, slot := range pinned {
		mem.UnpinReader(slot)
	}
	read()
	if after := g.ObsSnapshot(); after.ZeroCopyHits != mid.ZeroCopyHits+1 {
		t.Fatalf("after unpinning: zero-copy hits %d→%d, want one more", mid.ZeroCopyHits, after.ZeroCopyHits)
	}
}

// TestReadViewAsyncAcknowledgedWrites: in async commit mode an
// acknowledged write may still sit in the epoch queue (drains are manual
// here, so it does until something drains it). A queued insert has no
// value word yet, so the view reader hands the read to the locked path,
// whose drain finds it; a queued update of a bound record is settled
// before the views are collected, so the zero-copy read sees it; so does
// a read after AwaitDurable.
func TestReadViewAsyncAcknowledgedWrites(t *testing.T) {
	h, mgr, _ := openStoreHeap(t, 1<<23, false)
	b, err := NewJPFABackend(h, mgr, "kv")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true}); err != nil {
		t.Fatal(err)
	}
	g := NewGrid(b)
	read := func(want int, zeroCopy bool) {
		t.Helper()
		before := g.ObsSnapshot()
		n := 0
		if err := g.Read("k", func(name string, val []byte) {
			if v := decodeVersion(t, "k", val); v != byte(want) {
				t.Errorf("field %s: version %d, want %d", name, v, want)
			}
			n++
		}); err != nil {
			t.Fatalf("read of version %d: %v", want, err)
		}
		if n != 3 {
			t.Fatalf("%d fields streamed, want 3", n)
		}
		after := g.ObsSnapshot()
		if hit := after.ZeroCopyHits == before.ZeroCopyHits+1; hit != zeroCopy {
			t.Fatalf("version %d: zero-copy hits %d→%d, fallbacks %d→%d; want zero-copy=%v",
				want, before.ZeroCopyHits, after.ZeroCopyHits, before.CopyFallbacks, after.CopyFallbacks, zeroCopy)
		}
	}
	if err := g.Insert("k", versionRecord(3, 1)); err != nil {
		t.Fatal(err)
	}
	read(1, false) // queued insert: the locked path drains and finds it
	if err := g.Update("k", versionRecord(3, 2).Fields); err != nil {
		t.Fatal(err)
	}
	read(2, true) // queued update: settled before the views are collected
	if err := g.Update("k", versionRecord(3, 3).Fields); err != nil {
		t.Fatal(err)
	}
	mgr.AwaitDurable(mgr.IssuedTickets())
	read(3, true)
	if err := g.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := g.Read("k", func(string, []byte) { t.Error("deleted record streamed") }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after a queued delete: %v, want ErrNotFound", err)
	}
}
