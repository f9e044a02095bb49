package pdt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fa"
)

// PLongArray is a fixed-size persistent array of int64 (§4.3.1).
//
// Layout: length (8) | values (8 each).
type PLongArray struct{ *core.Object }

// NewLongArray allocates an invalid, zeroed array of n elements.
func NewLongArray(h *core.Heap, n int) (*PLongArray, error) {
	po, err := h.Alloc(mustClass(h, ClassLongArr), 8+uint64(n)*8)
	if err != nil {
		return nil, err
	}
	a := po.(*PLongArray)
	a.WriteUint64(0, uint64(n))
	a.PWB()
	return a, nil
}

// Len returns the element count.
func (a *PLongArray) Len() int { return int(a.ReadUint64(0)) }

func (a *PLongArray) slot(i int) uint64 {
	if i < 0 || i >= a.Len() {
		panic(fmt.Sprintf("pdt: index %d out of array bounds %d", i, a.Len()))
	}
	return 8 + uint64(i)*8
}

// Get loads element i.
func (a *PLongArray) Get(i int) int64 { return a.ReadInt64(a.slot(i)) }

// Set stores element i (unflushed; see FlushElem / Flush).
func (a *PLongArray) Set(i int, v int64) { a.WriteInt64(a.slot(i), v) }

// GetTx loads element i through a failure-atomic transaction, observing
// any uncommitted write the same transaction already made.
func (a *PLongArray) GetTx(tx *fa.Tx, i int) (int64, error) {
	return tx.ReadInt64(a.Object, a.slot(i))
}

// SetTx stores element i through a failure-atomic transaction: the write
// lands in the redo log and reaches the array only at commit, so a group
// of elements updated in one transaction flips together or not at all.
// The pool epoch table (DESIGN.md §17) relies on this to change the shard
// topology atomically.
func (a *PLongArray) SetTx(tx *fa.Tx, i int, v int64) error {
	return tx.WriteInt64(a.Object, a.slot(i), v)
}

// FlushElem flushes the cache line holding element i (the per-element
// flush method of §4.3.1).
func (a *PLongArray) FlushElem(i int) { a.PWBField(a.slot(i), 8) }

// Flush flushes the whole array.
func (a *PLongArray) Flush() { a.PWB() }

// PRefArray is a fixed-size persistent array of object references, the
// building block of the map recipe (§4.3.2). Its capacity is derived from
// the allocation size; every slot is a root for the recovery traversal.
//
// Layout: refs only (capacity = size/8).
type PRefArray struct{ *core.Object }

// NewRefArray allocates an invalid, zeroed (all-null) array of n slots.
func NewRefArray(h *core.Heap, n int) (*PRefArray, error) {
	po, err := h.Alloc(mustClass(h, ClassRefArr), uint64(n)*8)
	if err != nil {
		return nil, err
	}
	a := po.(*PRefArray)
	a.PWB()
	return a, nil
}

// Cap returns the slot capacity.
func (a *PRefArray) Cap() int { return int(a.Size() / 8) }

func (a *PRefArray) slot(i int) uint64 {
	if i < 0 || i >= a.Cap() {
		panic(fmt.Sprintf("pdt: slot %d out of array capacity %d", i, a.Cap()))
	}
	return uint64(i) * 8
}

// GetRef loads slot i.
func (a *PRefArray) GetRef(i int) core.Ref { return a.ReadRef(a.slot(i)) }

// SetRef stores slot i and flushes it. The write is a single word, so the
// structure stays consistent whatever the crash point (§4.3.2).
func (a *PRefArray) SetRef(i int, r core.Ref) {
	off := a.slot(i)
	a.WriteRef(off, r)
	a.PWBField(off, 8)
}

// GetRefAtomic loads slot i with an atomic load when the slot word is
// 8-aligned in the pool (always, for block-backed arrays). The lock-free
// read path uses it to observe slots concurrently published or nullified
// by SetRefAtomic without tearing.
func (a *PRefArray) GetRefAtomic(i int) core.Ref { return a.ReadRefAtomic(a.slot(i)) }

// SetRefAtomic stores slot i with an atomic store and flushes it.
func (a *PRefArray) SetRefAtomic(i int, r core.Ref) {
	off := a.slot(i)
	a.WriteRefAtomic(off, r)
	a.PWBField(off, 8)
}

// PublishRef atomically publishes object po in slot i with the §4.1.6
// discipline: validate, fence, then the slot write.
func (a *PRefArray) PublishRef(i int, po core.PObject) {
	a.slot(i) // bounds check first
	a.AtomicUpdateRef(uint64(i)*8, po)
}

// PExtArray is the extensible array of §4.3.1, the analogue of ArrayList:
// a small header object pointing to a PRefArray that is atomically
// replaced by a doubled copy when full (§4.1.6 update methods).
//
// Header layout: arrRef (8) | count (8).
//
// One crash window is deliberately tolerated: a failure between the slot
// write and the count bump leaves an out-of-range slot holding a live
// reference. The next Append overwrites the slot, unreaching the orphan,
// and the following recovery reclaims it — a bounded, self-healing leak.
// The opposite order is not tolerable (a durable count over a slot that
// never reached NVMM reads back as a null element), so Append fences
// between the two.
type PExtArray struct {
	*core.Object
	arr *PRefArray // cached proxy for the current backing array
}

const (
	extArrRef = 0
	extCount  = 8

	extInitialCap = 8
)

// NewExtArray allocates an invalid, empty extensible array.
func NewExtArray(h *core.Heap) (*PExtArray, error) {
	arr, err := NewRefArray(h, extInitialCap)
	if err != nil {
		return nil, err
	}
	po, err := h.Alloc(mustClass(h, ClassExtArr), 16)
	if err != nil {
		return nil, err
	}
	e := po.(*PExtArray)
	e.WriteRef(extArrRef, arr.Ref())
	e.WriteUint64(extCount, 0)
	e.PWB()
	arr.Validate()
	e.arr = arr
	return e, nil
}

// OnResurrect rebinds the cached backing-array proxy.
func (e *PExtArray) OnResurrect() {
	ref := e.ReadRef(extArrRef)
	e.arr = &PRefArray{Object: e.Heap().Inspect(ref)}
}

// Len returns the number of appended elements.
func (e *PExtArray) Len() int { return int(e.ReadUint64(extCount)) }

// Cap returns the current backing capacity.
func (e *PExtArray) Cap() int { return e.arr.Cap() }

// Get loads element i.
func (e *PExtArray) Get(i int) core.Ref {
	if i < 0 || i >= e.Len() {
		panic(fmt.Sprintf("pdt: index %d out of ext-array length %d", i, e.Len()))
	}
	return e.arr.GetRef(i)
}

// GetObject resurrects element i.
func (e *PExtArray) GetObject(i int) (core.PObject, error) {
	return e.Heap().Resurrect(e.Get(i))
}

// Append publishes po at the end of the array: the element is validated
// and fenced before becoming reachable, and its slot is fenced before the
// count advances over it. The count itself is flushed, not fenced.
func (e *PExtArray) Append(po core.PObject) error {
	n := e.Len()
	if n == e.arr.Cap() {
		if err := e.grow(); err != nil {
			return err
		}
	}
	e.arr.PublishRef(n, po)
	e.PFence()
	e.WriteUint64(extCount, uint64(n)+1)
	e.PWBField(extCount, 8)
	return nil
}

// Set replaces element i, atomically freeing the previous element (§4.1.6
// second helper).
func (e *PExtArray) Set(i int, po core.PObject) {
	if i < 0 || i >= e.Len() {
		panic(fmt.Sprintf("pdt: index %d out of ext-array length %d", i, e.Len()))
	}
	e.arr.AtomicReplaceRef(uint64(i)*8, po)
}

func (e *PExtArray) grow() error {
	h := e.Heap()
	bigger, err := NewRefArray(h, e.arr.Cap()*2)
	if err != nil {
		return err
	}
	for i := 0; i < e.arr.Cap(); i++ {
		bigger.WriteRef(uint64(i)*8, e.arr.GetRef(i))
	}
	bigger.PWB()
	// Atomic swing frees the old backing array (§4.1.6).
	e.AtomicReplaceRef(extArrRef, bigger)
	e.arr = bigger
	return nil
}
