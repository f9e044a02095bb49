// Package pdt is J-PDT, the stand-alone library of persistent data types
// built on the low-level interface (§4.3): strings, byte arrays, fixed and
// extensible arrays, and maps/sets that pair a persistent reference array
// with a volatile mirror. None of these types rely on failure-atomic
// blocks internally, yet all remain consistent across crashes; they are
// what makes the J-PDT backend up to 65% faster than J-PFA in Figure 7.
package pdt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
)

// Persistent class names. Register Classes() with core.Open before using
// any type of this package.
const (
	ClassString  = "pdt.string"
	ClassBytes   = "pdt.bytes"
	ClassLongArr = "pdt.longarray"
	ClassRefArr  = "pdt.refarray"
	ClassExtArr  = "pdt.extarray"
	// ClassMap's /2 is the layout version: bindings are words of the
	// map's array (map.go).
	ClassMap = "pdt.map/2"
)

func mustClass(h *core.Heap, name string) *core.Class {
	c, ok := h.Class(name)
	if !ok {
		panic(fmt.Sprintf("pdt: class %s not registered; pass pdt.Classes() to core.Open", name))
	}
	return c
}

// PString is the drop-in persistent replacement for string (the PString of
// Figure 3). It is immutable: small instances are packed into pool-
// allocated slots (§4.4), large ones use a chained block object.
//
// Layout: length (4) | bytes.
type PString struct{ *core.Object }

// NewString allocates an invalid PString holding s. The constructor
// flushes the content; the caller validates (and fences) when publishing,
// or relies on a container such as Map to do so.
func NewString(h *core.Heap, s string) (*PString, error) {
	po, err := newBlob(h, ClassString, []byte(s))
	if err != nil {
		return nil, err
	}
	return po.(*PString), nil
}

// NewStringTx allocates a PString inside a failure-atomic block; it
// becomes valid if and only if the block commits.
func NewStringTx(tx *fa.Tx, s string) (*PString, error) {
	ref, err := NewStringRefTx(tx, s)
	if err != nil {
		return nil, err
	}
	return tx.Proxy(mustClass(tx.Heap(), ClassString), ref).(*PString), nil
}

// NewStringRefTx is NewStringTx for a caller that keeps no proxy.
func NewStringRefTx(tx *fa.Tx, s string) (core.Ref, error) {
	return newBlobTx(tx, ClassString, []byte(s))
}

// newBlob allocates an object of the PString/PBytes layout holding b, a
// pooled slot when it fits one, and flushes it.
func newBlob(h *core.Heap, class string, b []byte) (core.PObject, error) {
	size := 4 + uint64(len(b))
	alloc := h.Alloc
	if heap.FitsSmall(size) {
		alloc = h.AllocSmall
	}
	po, err := alloc(mustClass(h, class), size)
	if err != nil {
		return nil, err
	}
	fillBlob(po.Core(), b)
	po.Core().PWB()
	return po, nil
}

// newBlobTx is newBlob inside tx, by reference and unflushed: the object
// is written directly, and is invalid until the block commits.
func newBlobTx(tx *fa.Tx, class string, b []byte) (core.Ref, error) {
	ref, err := tx.AllocRef(mustClass(tx.Heap(), class), 4+uint64(len(b)))
	if err == nil {
		o := new(core.Object) // on the stack: no proxy
		tx.Heap().InspectInto(o, ref)
		fillBlob(o, b)
	}
	return ref, err
}

func fillBlob(o *core.Object, b []byte) {
	o.WriteUint32(0, uint32(len(b)))
	o.WriteBytes(4, b)
}

// Len returns the string length in bytes.
func (s *PString) Len() int { return int(s.ReadUint32(0)) }

// Value reads the string content out of NVMM.
func (s *PString) Value() string { return string(s.ReadBytes(4, uint64(s.Len()))) }

// Equals compares against a volatile string without allocating.
func (s *PString) Equals(v string) bool {
	if s.Len() != len(v) {
		return false
	}
	return s.Value() == v
}

// String implements fmt.Stringer.
func (s *PString) String() string { return s.Value() }

// PBytes is an immutable persistent byte array with the same layout and
// pooling behavior as PString.
type PBytes struct{ *core.Object }

// NewBytes allocates an invalid PBytes holding b (see NewString for the
// publication discipline).
func NewBytes(h *core.Heap, b []byte) (*PBytes, error) {
	po, err := newBlob(h, ClassBytes, b)
	if err != nil {
		return nil, err
	}
	return po.(*PBytes), nil
}

// NewBytesTx allocates a PBytes inside a failure-atomic block.
func NewBytesTx(tx *fa.Tx, b []byte) (*PBytes, error) {
	ref, err := NewBytesRefTx(tx, b)
	if err != nil {
		return nil, err
	}
	return tx.Proxy(mustClass(tx.Heap(), ClassBytes), ref).(*PBytes), nil
}

// NewBytesRefTx is NewBytesTx for a caller that keeps no proxy.
func NewBytesRefTx(tx *fa.Tx, b []byte) (core.Ref, error) {
	return newBlobTx(tx, ClassBytes, b)
}

// Len returns the payload length.
func (b *PBytes) Len() int { return int(b.ReadUint32(0)) }

// Value copies the payload out of NVMM.
func (b *PBytes) Value() []byte { return b.ReadBytes(4, uint64(b.Len())) }

// readStringAt decodes a PString/PBytes-layout object at ref without
// building a typed proxy (hot path of map mirror rebuilds and lookups).
// Pooled slots and single-block objects are read straight from the pool.
func readStringAt(h *core.Heap, ref core.Ref) string {
	return string(ReadBlob(h, ref))
}

// ReadBlobView is ReadBlob without the copy: for pooled slots and
// single-block objects (every YCSB-sized field) it returns a window
// straight into NVMM — the paper's "direct access with read instructions".
// The view is read-only and must not outlive the referenced object.
func ReadBlobView(h *core.Heap, ref core.Ref) []byte {
	mem := h.Mem()
	pool := h.Pool()
	if !mem.IsBlockRef(ref) {
		n := uint64(pool.ReadUint32(ref + 8))
		return pool.View(ref+8+4, n)
	}
	if _, _, next := heap.UnpackHeader(mem.Header(ref)); next == 0 {
		data := ref + heap.HeaderSize
		n := uint64(pool.ReadUint32(data))
		return pool.View(data+4, n)
	}
	return ReadBlob(h, ref)
}

// BlobView is ReadBlobView for callers that cannot tolerate the chained-
// object copy: it returns ok=false (instead of allocating) when the blob
// spans blocks, and it bounds-checks the stored length against the
// containing slot or block so a racing reader never builds an
// out-of-range view. Callers run under an EBR reader pin, which keeps the
// referenced object's memory stable.
func BlobView(h *core.Heap, ref core.Ref) ([]byte, bool) {
	mem := h.Mem()
	pool := h.Pool()
	if !mem.IsBlockRef(ref) { // pooled slot: contiguous after mini-header
		n := uint64(pool.ReadUint32(ref + 8))
		if n+4 > heap.SlotPayloadMax {
			return nil, false
		}
		return pool.View(ref+8+4, n), true
	}
	if _, _, next := heap.UnpackHeader(mem.HeaderAtomic(ref)); next != 0 {
		return nil, false
	}
	data := ref + heap.HeaderSize
	n := uint64(pool.ReadUint32(data))
	if n+4 > heap.Payload {
		return nil, false
	}
	return pool.View(data+4, n), true
}

// BlobEquals compares the blob at ref against a volatile string without
// allocating: pooled slots and single-block objects compare straight
// against the NVMM view; only chained objects fall back to a copy. Hot
// path of the store's record field lookup.
func BlobEquals(h *core.Heap, ref core.Ref, v string) bool {
	return string(ReadBlobView(h, ref)) == v
}

// ReadBlob decodes the [len u32 | bytes] layout shared by PString and
// PBytes directly from NVMM, through a core on the stack. This is the
// zero-conversion read path that §5.2 credits for the YCSB gap.
func ReadBlob(h *core.Heap, ref core.Ref) []byte {
	o := new(core.Object)
	h.InspectInto(o, ref)
	return o.ReadBytes(4, uint64(o.ReadUint32(0)))
}
