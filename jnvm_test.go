package jnvm

import (
	"fmt"
	"path/filepath"
	"testing"
)

// The facade tests exercise the public surface end to end: open, persist,
// close, reopen from the backing file, run failure-atomic blocks.

func TestOpenInMemory(t *testing.T) {
	db, err := Open(Options{Size: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Root() == nil {
		t.Fatal("no root map")
	}
}

func TestFileBackedLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.pmem")
	db, err := Open(Options{Path: path, Size: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewString(db, "persisted across processes")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Root().Put("msg", s); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path, Size: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	po, err := db2.Root().Get("msg")
	if err != nil {
		t.Fatal(err)
	}
	if po.(*PString).Value() != "persisted across processes" {
		t.Fatal("content lost across reopen")
	}
}

func TestFacadeMapAndFA(t *testing.T) {
	db, err := Open(Options{Size: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := NewMap(db, MirrorTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Root().Put("m", m); err != nil {
		t.Fatal(err)
	}
	err = db.RunFA(func(tx *Tx) error {
		v, err := NewBytesTx(tx, []byte("in-a-block"))
		if err != nil {
			return err
		}
		return m.PutTx(tx, "k", v)
	})
	if err != nil {
		t.Fatal(err)
	}
	po, err := m.Get("k")
	if err != nil || po == nil {
		t.Fatalf("get: %v %v", po, err)
	}
	if string(po.(*PBytes).Value()) != "in-a-block" {
		t.Fatal("FA put lost")
	}
	// Aborted block leaves no trace.
	boom := fmt.Errorf("boom")
	if err := db.RunFA(func(tx *Tx) error {
		v, _ := NewBytesTx(tx, []byte("doomed"))
		m.PutTx(tx, "doomed", v)
		return boom
	}); err != boom {
		t.Fatalf("err = %v", err)
	}
	if m.Contains("doomed") {
		t.Fatal("aborted put visible")
	}
}

func TestFacadeCustomClass(t *testing.T) {
	cls := &Class{
		Name:    "example.point",
		Factory: func(o *Object) PObject { return o },
	}
	db, err := Open(Options{Size: 1 << 22, Classes: []*Class{cls}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	po, err := db.Alloc(cls, 16)
	if err != nil {
		t.Fatal(err)
	}
	o := po.Core()
	o.WriteInt64(0, 3)
	o.WriteInt64(8, 4)
	o.PWB()
	if err := db.Root().Put("pt", po); err != nil {
		t.Fatal(err)
	}
	got, err := db.Root().Get("pt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Core().ReadInt64(0) != 3 || got.Core().ReadInt64(8) != 4 {
		t.Fatal("fields lost")
	}
}

func TestFacadeArraysAndSets(t *testing.T) {
	db, err := Open(Options{Size: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	la, err := NewLongArray(db, 10)
	if err != nil {
		t.Fatal(err)
	}
	la.Set(3, 42)
	if la.Get(3) != 42 {
		t.Fatal("long array")
	}
	ea, err := NewExtArray(db)
	if err != nil {
		t.Fatal(err)
	}
	ea.Validate()
	s, _ := NewString(db, "x")
	if err := ea.Append(s); err != nil {
		t.Fatal(err)
	}
	if ea.Len() != 1 {
		t.Fatal("ext array")
	}
	set, err := NewSet(db, MirrorHash)
	if err != nil {
		t.Fatal(err)
	}
	set.Add("member")
	if !set.Contains("member") {
		t.Fatal("set")
	}
}

func TestFacadeCrashRecovery(t *testing.T) {
	// End-to-end through the public API: tracked pool, committed FA work,
	// strict crash, reopen via OpenPool, verify.
	pool := NewTrackedPool(1 << 22)
	db, err := OpenPool(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMap(db, MirrorHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Root().Put("m", m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		err := db.RunFA(func(tx *Tx) error {
			v, err := NewBytesTx(tx, []byte(fmt.Sprintf("v%d", i)))
			if err != nil {
				return err
			}
			return m.PutTx(tx, fmt.Sprintf("k%d", i), v)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	img := CrashImageStrict(pool)
	db2, err := OpenPool(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	po, err := db2.Root().Get("m")
	if err != nil {
		t.Fatal(err)
	}
	m2 := po.(*Map)
	if m2.Len() != 10 {
		t.Fatalf("recovered %d bindings, want 10", m2.Len())
	}
	for i := 0; i < 10; i++ {
		vpo, err := m2.Get(fmt.Sprintf("k%d", i))
		if err != nil || vpo == nil {
			t.Fatalf("k%d lost: %v", i, err)
		}
		if string(vpo.(*PBytes).Value()) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d corrupt", i)
		}
	}
}

// TestFacadeHeaderScanRecovery reopens a strict crash image with
// SkipGraphGC, the header-scan recovery of J-PFA-nogc: values published
// through failure-atomic blocks read back, and an object freed by a block
// (a map delete, a pooled slot) and one freed directly (db.Free, a block)
// stay dead.
func TestFacadeHeaderScanRecovery(t *testing.T) {
	pool := NewTrackedPool(1 << 22)
	db, err := OpenPool(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMap(db, MirrorHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Root().Put("m", m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		err := db.RunFA(func(tx *Tx) error {
			v, err := NewBytesTx(tx, []byte(fmt.Sprintf("v%d", i)))
			if err != nil {
				return err
			}
			return m.PutTx(tx, fmt.Sprintf("k%d", i), v)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	deleted, err := m.Get("k3")
	if err != nil {
		t.Fatal(err)
	}
	freed := []Ref{deleted.Core().Ref()}
	if err := db.RunFA(func(tx *Tx) error {
		_, err := m.DeleteTx(tx, "k3")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	garbage, err := NewBytes(db, make([]byte, 200)) // a block, not a pooled slot
	if err != nil {
		t.Fatal(err)
	}
	freed = append(freed, garbage.Core().Ref())
	db.Free(garbage)
	db.PSync()

	traced, err := OpenPool(CrashImageStrict(pool), Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := OpenPool(CrashImageStrict(pool), Options{SkipGraphGC: true})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing valid is unreachable here, so the scan must find exactly the
	// objects the traversal reaches: a freed object it kept would show.
	scan, graph := db2.RecoveryStats, traced.RecoveryStats
	if scan.GraphTraversed || scan.LiveObjects != graph.LiveObjects || scan.LiveBlocks != graph.LiveBlocks {
		t.Fatalf("header scan %+v, graph traversal %+v: want the same live objects and blocks", scan, graph)
	}
	po, err := db2.Root().Get("m")
	if err != nil {
		t.Fatal(err)
	}
	m2 := po.(*Map)
	if m2.Len() != 9 {
		t.Fatalf("recovered %d bindings, want 9", m2.Len())
	}
	for i := 0; i < 10; i++ {
		vpo, err := m2.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if vpo != nil {
				t.Fatal("deleted k3 came back")
			}
			continue
		}
		if vpo == nil || string(vpo.(*PBytes).Value()) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d lost or corrupt", i)
		}
	}
	for _, r := range freed {
		if db2.Mem().Valid(r) {
			t.Fatalf("freed object %#x is valid after header-scan recovery", r)
		}
	}
}
