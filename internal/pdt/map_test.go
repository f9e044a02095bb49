package pdt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
)

var allKinds = []MirrorKind{MirrorHash, MirrorTree, MirrorSkip}

func kindName(k MirrorKind) string {
	return map[MirrorKind]string{MirrorHash: "hash", MirrorTree: "tree", MirrorSkip: "skip"}[k]
}

func newTestMap(t testing.TB, h *core.Heap, kind MirrorKind, name string) *Map {
	t.Helper()
	m, err := NewMap(h, kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Root().Put(name, m); err != nil {
		t.Fatal(err)
	}
	return m
}

func putStr(t testing.TB, h *core.Heap, m *Map, key, val string) {
	t.Helper()
	v, err := NewBytes(h, []byte(val))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(key, v); err != nil {
		t.Fatal(err)
	}
}

func getStr(t testing.TB, m *Map, key string) (string, bool) {
	t.Helper()
	po, err := m.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if po == nil {
		return "", false
	}
	return string(po.(*PBytes).Value()), true
}

func TestMapBasicOps(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kindName(kind), func(t *testing.T) {
			h, _, _ := openPDT(t, 1<<22, false)
			m := newTestMap(t, h, kind, "m")
			if m.Len() != 0 || m.Contains("a") {
				t.Fatal("fresh map not empty")
			}
			putStr(t, h, m, "a", "1")
			putStr(t, h, m, "b", "2")
			putStr(t, h, m, "c", "3")
			if m.Len() != 3 {
				t.Fatalf("Len = %d", m.Len())
			}
			if v, ok := getStr(t, m, "b"); !ok || v != "2" {
				t.Fatalf("Get(b) = %q %v", v, ok)
			}
			if _, ok := getStr(t, m, "zz"); ok {
				t.Fatal("phantom key")
			}
			// Update replaces and frees the old value.
			oldRef := m.GetRef("b")
			putStr(t, h, m, "b", "22")
			if v, _ := getStr(t, m, "b"); v != "22" {
				t.Fatal("update lost")
			}
			if h.Mem().Valid(oldRef) {
				t.Fatal("old value not freed on update")
			}
			if !m.Delete("a") || m.Delete("a") {
				t.Fatal("delete semantics")
			}
			if m.Len() != 2 || m.Contains("a") {
				t.Fatal("delete did not remove")
			}
			keys := m.Keys()
			if len(keys) != 2 || keys[0] != "b" || keys[1] != "c" {
				t.Fatalf("Keys = %v", keys)
			}
		})
	}
}

func TestMapGrowth(t *testing.T) {
	h, _, _ := openPDT(t, 1<<22, false)
	m := newTestMap(t, h, MirrorHash, "m")
	const n = 200 // way past the 16-slot initial array
	for i := 0; i < n; i++ {
		putStr(t, h, m, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := getStr(t, m, fmt.Sprintf("k%04d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d = %q %v", i, v, ok)
		}
	}
}

func TestMapReopenRebuildsMirror(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kindName(kind), func(t *testing.T) {
			h, _, pool := openPDT(t, 1<<22, false)
			m := newTestMap(t, h, kind, "m")
			for i := 0; i < 60; i++ {
				putStr(t, h, m, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
			}
			m.Delete("k07")
			h.PSync()

			h2, _, _ := reopenPDT(t, pool)
			po, err := h2.Root().Get("m")
			if err != nil {
				t.Fatal(err)
			}
			m2 := po.(*Map)
			if m2.kind != kind {
				t.Fatalf("kind lost: %d", m2.kind)
			}
			if m2.Len() != 59 {
				t.Fatalf("Len after reopen = %d", m2.Len())
			}
			if m2.Contains("k07") {
				t.Fatal("deleted key resurrected")
			}
			if v, ok := getStr(t, m2, "k42"); !ok || v != "v42" {
				t.Fatalf("k42 = %q %v", v, ok)
			}
			// Free slots must be reusable after reopen.
			putStr(t, h2, m2, "fresh", "f")
			if v, _ := getStr(t, m2, "fresh"); v != "f" {
				t.Fatal("insert after reopen")
			}
		})
	}
}

func TestMapAscendOrdered(t *testing.T) {
	for _, kind := range []MirrorKind{MirrorTree, MirrorSkip} {
		t.Run(kindName(kind), func(t *testing.T) {
			h, _, _ := openPDT(t, 1<<22, false)
			m := newTestMap(t, h, kind, "m")
			for i := 0; i < 50; i++ {
				putStr(t, h, m, fmt.Sprintf("%03d", i), "v")
			}
			var got []string
			err := m.Ascend("020", func(k string, _ core.PObject) bool {
				got = append(got, k)
				return len(got) < 5
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 5 || got[0] != "020" || got[4] != "024" {
				t.Fatalf("Ascend: %v", got)
			}
		})
	}
}

func TestMapAscendHashRejected(t *testing.T) {
	h, _, _ := openPDT(t, 1<<22, false)
	m := newTestMap(t, h, MirrorHash, "m")
	if err := m.Ascend("", func(string, core.PObject) bool { return true }); err == nil {
		t.Fatal("hash mirror should reject Ascend")
	}
}

func TestMapForEach(t *testing.T) {
	h, _, _ := openPDT(t, 1<<22, false)
	m := newTestMap(t, h, MirrorHash, "m")
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		putStr(t, h, m, k, v)
		want[k] = v
	}
	got := map[string]string{}
	err := m.ForEach(func(k string, v core.PObject) bool {
		got[k] = string(v.(*PBytes).Value())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d", len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %q", k, got[k])
		}
	}
}

func TestMapCacheModesAvoidResurrection(t *testing.T) {
	h, _, pool := openPDT(t, 1<<22, false)
	m := newTestMap(t, h, MirrorHash, "m")
	for i := 0; i < 32; i++ {
		putStr(t, h, m, fmt.Sprintf("k%d", i), "v")
	}
	h.PSync()

	// Base: every Get resurrects.
	h2, _, _ := reopenPDT(t, pool)
	po, _ := h2.Root().Get("m")
	base := po.(*Map)
	before := h2.Resurrections()
	for r := 0; r < 3; r++ {
		for i := 0; i < 32; i++ {
			base.Get(fmt.Sprintf("k%d", i))
		}
	}
	baseCost := h2.Resurrections() - before
	if baseCost < 96 {
		t.Fatalf("base mode resurrected only %d times", baseCost)
	}

	// Cached: one resurrection per key.
	if err := base.SetCacheMode(CacheOnDemand); err != nil {
		t.Fatal(err)
	}
	before = h2.Resurrections()
	for r := 0; r < 3; r++ {
		for i := 0; i < 32; i++ {
			base.Get(fmt.Sprintf("k%d", i))
		}
	}
	cachedCost := h2.Resurrections() - before
	if cachedCost != 32 {
		t.Fatalf("cached mode resurrected %d times, want 32", cachedCost)
	}

	// Eager: zero on the read path.
	if err := base.SetCacheMode(CacheEager); err != nil {
		t.Fatal(err)
	}
	before = h2.Resurrections()
	for i := 0; i < 32; i++ {
		base.Get(fmt.Sprintf("k%d", i))
	}
	if got := h2.Resurrections() - before; got != 0 {
		t.Fatalf("eager mode resurrected %d times on reads", got)
	}
}

func TestMapPutTxDeleteTx(t *testing.T) {
	h, mgr, _ := openPDT(t, 1<<22, false)
	m := newTestMap(t, h, MirrorHash, "m")
	err := mgr.Run(func(tx *fa.Tx) error {
		v, err := NewBytesTx(tx, []byte("txval"))
		if err != nil {
			return err
		}
		return m.PutTx(tx, "k", v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := getStr(t, m, "k"); !ok || v != "txval" {
		t.Fatalf("after commit: %q %v", v, ok)
	}
	// Transactional update frees the old value at commit.
	oldRef := m.GetRef("k")
	err = mgr.Run(func(tx *fa.Tx) error {
		v, err := NewBytesTx(tx, []byte("txval2"))
		if err != nil {
			return err
		}
		return m.PutTx(tx, "k", v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Mem().Valid(oldRef) {
		t.Fatal("old value survived transactional update")
	}
	if v, _ := getStr(t, m, "k"); v != "txval2" {
		t.Fatal("tx update lost")
	}
	// Transactional delete.
	err = mgr.Run(func(tx *fa.Tx) error {
		ok, err := m.DeleteTx(tx, "k")
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("key vanished")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Contains("k") {
		t.Fatal("tx delete did not remove")
	}
}

func TestMapCrashDuringPutIsConsistent(t *testing.T) {
	// A strict crash taken at an arbitrary moment between Puts must leave
	// the map resurrectable with every binding intact or cleanly absent.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, _, pool := openPDT(t, 1<<22, true)
		m := newTestMap(t, h, MirrorHash, "m")
		fenced := map[string]string{}
		n := 5 + rng.Intn(15)
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
			putStr(t, h, m, k, v)
			if rng.Intn(2) == 0 {
				h.PSync()
				fenced[k] = v
			}
			if rng.Intn(4) == 0 {
				victim := fmt.Sprintf("k%d", rng.Intn(i+1))
				m.Delete(victim)
				h.PSync()
				delete(fenced, victim)
			}
		}
		policy := []nvm.CrashPolicy{nvm.CrashStrict, nvm.CrashRandom}[rng.Intn(2)]
		img := pool.CrashImage(policy, rng)
		h2, _, _ := reopenPDT(t, img)
		po, err := h2.Root().Get("m")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m2 := po.(*Map)
		// Every fenced binding must be present with the right content
		// (deletes were fenced too, so fenced reflects durable truth).
		for k, v := range fenced {
			got, ok := getStr(t, m2, k)
			if !ok {
				t.Fatalf("seed %d (%v): fenced binding %s lost", seed, policy, k)
			}
			if got != v {
				t.Fatalf("seed %d: binding %s corrupt: %q vs %q", seed, k, got, v)
			}
		}
		// Every surviving binding must be fully readable (no torn pairs).
		m2.ForEach(func(k string, vpo core.PObject) bool {
			_ = vpo.(*PBytes).Value()
			return true
		})
	}
}

func TestMapTxCrashAtomicity(t *testing.T) {
	// An uncommitted transactional put disappears wholesale.
	h, mgr, pool := openPDT(t, 1<<22, true)
	m := newTestMap(t, h, MirrorHash, "m")
	putStr(t, h, m, "stable", "1")
	h.PSync()

	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewBytesTx(tx, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PutTx(tx, "doomed", v); err != nil {
		t.Fatal(err)
	}
	// Crash without commit.
	img := pool.CrashImage(nvm.CrashStrict, rand.New(rand.NewSource(5)))
	h2, _, _ := reopenPDT(t, img)
	po, _ := h2.Root().Get("m")
	m2 := po.(*Map)
	if m2.Contains("doomed") {
		t.Fatal("uncommitted tx binding survived")
	}
	if v, ok := getStr(t, m2, "stable"); !ok || v != "1" {
		t.Fatal("stable binding damaged")
	}
}

func TestSetBasics(t *testing.T) {
	h, _, pool := openPDT(t, 1<<22, false)
	s, err := NewSet(h, MirrorTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Root().Put("set", s); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"beta", "alpha", "gamma", "alpha"} {
		if err := s.Add(k); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 || !s.Contains("alpha") || s.Contains("delta") {
		t.Fatalf("set state: len=%d", s.Len())
	}
	members := s.Members()
	if len(members) != 3 || members[0] != "alpha" || members[2] != "gamma" {
		t.Fatalf("Members = %v", members)
	}
	if !s.Delete("beta") || s.Delete("beta") {
		t.Fatal("delete semantics")
	}
	h.PSync()

	h2, _, _ := reopenPDT(t, pool)
	po, _ := h2.Root().Get("set")
	s2 := AsSet(po.(*Map))
	if s2.Len() != 2 || !s2.Contains("gamma") || s2.Contains("beta") {
		t.Fatal("set state lost across reopen")
	}
	count := 0
	s2.ForEach(func(string) bool { count++; return true })
	if count != 2 {
		t.Fatalf("ForEach visited %d", count)
	}
}

func TestSetAddTx(t *testing.T) {
	h, mgr, _ := openPDT(t, 1<<22, false)
	s, _ := NewSet(h, MirrorHash)
	h.Root().Put("set", s)
	if err := mgr.Run(func(tx *fa.Tx) error { return AsSet(s.Map()).AddTx(tx, "x") }); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("x") {
		t.Fatal("AddTx lost")
	}
}

// Property: the persistent map agrees with a volatile oracle across a
// random workload with periodic clean reopens.
func TestMapOracleWithReopens(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kindName(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind) * 977))
			h, _, pool := openPDT(t, 1<<23, false)
			m := newTestMap(t, h, kind, "m")
			oracle := map[string]string{}
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(60))
				switch rng.Intn(4) {
				case 0, 1: // put
					v := fmt.Sprintf("v%d", i)
					putStr(t, h, m, k, v)
					oracle[k] = v
				case 2: // delete
					want := false
					if _, ok := oracle[k]; ok {
						want = true
					}
					if got := m.Delete(k); got != want {
						t.Fatalf("op %d: Delete(%s)=%v want %v", i, k, got, want)
					}
					delete(oracle, k)
				case 3: // reopen
					h.PSync()
					h, _, pool = reopenPDT(t, pool)
					po, err := h.Root().Get("m")
					if err != nil {
						t.Fatal(err)
					}
					m = po.(*Map)
				}
				if m.Len() != len(oracle) {
					t.Fatalf("op %d: Len %d vs oracle %d", i, m.Len(), len(oracle))
				}
			}
			for k, v := range oracle {
				if got, ok := getStr(t, m, k); !ok || got != v {
					t.Fatalf("final: %s = %q,%v want %q", k, got, ok, v)
				}
			}
		})
	}
}

// Regression: with async group commit the slot writes of queued epochs live
// in redo logs targeting the *old* array's blocks. A growth that copied the
// array with direct reads missed them, and after the arrp swing the drain
// applied them to the orphaned old array — the bindings were lost forever.
// takeSlotLocked now settles each slot through the transaction while
// copying.
func TestMapAsyncGrowthKeepsQueuedBindings(t *testing.T) {
	h, mgr, _ := openPDT(t, 1<<23, false)
	m := newTestMap(t, h, MirrorHash, "m")
	if err := mgr.SetGroupCommit(fa.GroupOptions{}); err != nil {
		t.Fatal(err)
	}
	const n = 100 // crosses two array growths (cap 32 -> 64 -> 128)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%03d", i)
		err := mgr.Run(func(tx *fa.Tx) error {
			v, err := NewBytesTx(tx, []byte("v"+key))
			if err != nil {
				return err
			}
			return m.PutTx(tx, key, v)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mgr.DrainDurable()
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%03d", i)
		if v, ok := getStr(t, m, key); !ok || v != "v"+key {
			t.Fatalf("binding %q lost across growth: %q %v", key, v, ok)
		}
	}
}

// TestMapTxStructuralChurnConcurrent hammers PutTx/DeleteTx from several
// goroutines over distinct keys whose array slots share cache lines, in
// both commit modes. wmu serializes the bodies, but what makes a body's
// array writes visible to the next writer comes after wmu is released: the
// per-Tx apply, or the async enqueue that puts the array block under
// waitClear. Before the gateWait/gateArm ordering covered both, the next
// writer could copy the pre-commit array block and commit it back over the
// predecessor's slot swing (resurrected deletes / lost inserts, or a
// DeleteTx reading a zero key word).
func TestMapTxStructuralChurnConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode fa.CommitMode
	}{{"per-tx", fa.CommitPerTx}, {"async", fa.CommitAsync}} {
		t.Run(tc.name, func(t *testing.T) { structuralChurn(t, tc.mode) })
	}
}

func structuralChurn(t *testing.T, mode fa.CommitMode) {
	mgr := fa.NewManager()
	h, err := core.Open(nvm.New(1<<23, nvm.Options{}), core.Config{
		// One open block per writer, plus queued async commits and the
		// slot async reserves for delta materialization.
		HeapOptions: heap.Options{LogSlots: 16, LogSlotSize: 1 << 14},
		Classes:     Classes(),
		LogHandler:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode == fa.CommitAsync {
		if err := mgr.SetGroupCommit(fa.GroupOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	m := newTestMap(t, h, MirrorHash, "m")
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				err := mgr.Run(func(tx *fa.Tx) error {
					v, err := NewBytesTx(tx, []byte("v"+key))
					if err != nil {
						return err
					}
					return m.PutTx(tx, key, v)
				})
				if err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				if i == 0 {
					continue
				}
				prev := fmt.Sprintf("w%d-%d", w, i-1)
				err = mgr.Run(func(tx *fa.Tx) error {
					ok, err := m.DeleteTx(tx, prev)
					if err == nil && !ok {
						return fmt.Errorf("delete %s: binding lost", prev)
					}
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	mgr.DrainDurable()
	if m.Len() != workers {
		t.Fatalf("Len = %d after churn, want %d", m.Len(), workers)
	}
	for w := 0; w < workers; w++ {
		key := fmt.Sprintf("w%d-%d", w, rounds-1)
		if v, ok := getStr(t, m, key); !ok || v != "v"+key {
			t.Fatalf("survivor %q: %q %v", key, v, ok)
		}
		if _, ok := getStr(t, m, fmt.Sprintf("w%d-%d", w, rounds-2)); ok {
			t.Fatalf("deleted binding w%d-%d resurrected", w, rounds-2)
		}
	}
}
