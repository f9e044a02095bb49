package pdt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fa"
)

// Additional J-PDT coverage: large tx strings, Remove semantics, set
// aborts, array edge cases, and blob view aliasing rules.

func TestNewStringTxLargeUsesBlocks(t *testing.T) {
	h, mgr, _ := openPDT(t, 1<<22, false)
	var ref core.Ref
	err := mgr.Run(func(tx *fa.Tx) error {
		s, err := NewStringTx(tx, strings.Repeat("y", 2000))
		if err != nil {
			return err
		}
		ref = s.Ref()
		if !h.Mem().IsBlockRef(ref) {
			t.Error("large tx string should be block allocated")
		}
		return h.Root().WPut("big", s)
	})
	if err != nil {
		t.Fatal(err)
	}
	po, err := h.Resurrect(ref)
	if err != nil {
		t.Fatal(err)
	}
	if po.(*PString).Len() != 2000 {
		t.Fatal("large tx string content lost")
	}
}

func TestMapRemoveHandsValueBack(t *testing.T) {
	h, _, _ := openPDT(t, 1<<22, false)
	m := newTestMap(t, h, MirrorHash, "m")
	putStr(t, h, m, "k", "keepme")
	ref := m.Remove("k")
	if ref == 0 {
		t.Fatal("Remove did not hand the value back")
	}
	po, err := h.Resurrect(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(po.(*PBytes).Value()) != "keepme" {
		t.Fatal("Remove did not hand the value back")
	}
	if !po.Core().Valid() {
		t.Fatal("Remove freed the value")
	}
	if m.Contains("k") {
		t.Fatal("Remove left the binding")
	}
	// Missing key.
	if ref := m.Remove("missing"); ref != 0 {
		t.Fatalf("Remove(missing) = %#x", ref)
	}
}

func TestSetAddTxAbortRollsBackMirror(t *testing.T) {
	h, mgr, _ := openPDT(t, 1<<22, false)
	s, err := NewSet(h, MirrorHash)
	if err != nil {
		t.Fatal(err)
	}
	h.Root().Put("set", s)
	boom := fmt.Errorf("boom")
	err = mgr.Run(func(tx *fa.Tx) error {
		if err := s.AddTx(tx, "ghost"); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatal(err)
	}
	if s.Contains("ghost") {
		t.Fatal("aborted AddTx left the mirror entry")
	}
	// The slot must be reusable.
	if err := s.Add("real"); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("real") || s.Len() != 1 {
		t.Fatal("set state after abort")
	}
}

func TestPExtArrayBoundsPanics(t *testing.T) {
	h, _, _ := openPDT(t, 1<<21, false)
	e, err := NewExtArray(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { e.Get(0) },
		func() { e.Get(-1) },
		func() { s, _ := NewString(h, "x"); e.Set(0, s) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReadBlobVariants(t *testing.T) {
	h, _, _ := openPDT(t, 1<<22, false)
	// Pooled (small), single-block (medium), chained (large).
	for _, n := range []int{10, 200, 2000} {
		content := strings.Repeat("z", n)
		s, err := NewString(h, content)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(ReadBlob(h, s.Ref())); got != content {
			t.Fatalf("ReadBlob(%d) lost content", n)
		}
		if got := string(ReadBlobView(h, s.Ref())); got != content {
			t.Fatalf("ReadBlobView(%d) lost content", n)
		}
	}
	// Views alias NVMM for contiguous layouts: a write through the object
	// shows up in a previously-taken view (documented aliasing).
	b, _ := NewBytes(h, []byte("aaaa"))
	view := ReadBlobView(h, b.Ref())
	b.WriteUint8(4, 'Z') // first payload byte
	if view[0] != 'Z' {
		t.Fatal("view did not alias NVMM")
	}
}

func TestMapEagerModeSurvivesChurn(t *testing.T) {
	h, _, pool := openPDT(t, 1<<22, false)
	m := newTestMap(t, h, MirrorTree, "m")
	for i := 0; i < 20; i++ {
		putStr(t, h, m, fmt.Sprintf("k%02d", i), "v")
	}
	h.PSync()
	h2, _, _ := reopenPDT(t, pool)
	po, _ := h2.Root().Get("m")
	m2 := po.(*Map)
	if err := m2.SetCacheMode(CacheEager); err != nil {
		t.Fatal(err)
	}
	// Churn through the eager cache: updates, deletes, reinserts.
	putStr(t, h2, m2, "k05", "updated")
	if v, _ := getStr(t, m2, "k05"); v != "updated" {
		t.Fatal("eager cache served a stale value after update")
	}
	m2.Delete("k06")
	if v, ok := getStr(t, m2, "k06"); ok {
		t.Fatalf("deleted key served from eager cache: %q", v)
	}
	putStr(t, h2, m2, "k06", "back")
	if v, _ := getStr(t, m2, "k06"); v != "back" {
		t.Fatal("reinsert after delete")
	}
}

func TestLongArrayNegativeAndFlushPaths(t *testing.T) {
	h, _, _ := openPDT(t, 1<<21, false)
	a, err := NewLongArray(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.Set(0, -1)
	a.Set(3, 1<<62)
	a.FlushElem(0)
	a.Flush()
	if a.Get(0) != -1 || a.Get(3) != 1<<62 {
		t.Fatal("extreme values lost")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative index must panic")
			}
		}()
		a.Get(-1)
	}()
}

func TestRefArrayPublish(t *testing.T) {
	h, _, _ := openPDT(t, 1<<21, false)
	arr, err := NewRefArray(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	arr.Validate()
	s, _ := NewString(h, "target")
	arr.PublishRef(2, s)
	if !s.Valid() {
		t.Fatal("PublishRef did not validate")
	}
	if arr.GetRef(2) != s.Ref() {
		t.Fatal("PublishRef did not write the slot")
	}
	// Capacity is the rounded-up block payload (31 slots for one block);
	// only indexes beyond it panic.
	if arr.Cap() < 4 {
		t.Fatalf("Cap = %d", arr.Cap())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("OOB publish must panic")
			}
		}()
		arr.PublishRef(arr.Cap(), s)
	}()
}
