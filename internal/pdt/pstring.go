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
	size := 4 + uint64(len(s))
	var po core.PObject
	var err error
	if heap.FitsSmall(size) {
		po, err = h.AllocSmall(mustClass(h, ClassString), size)
	} else {
		po, err = h.Alloc(mustClass(h, ClassString), size)
	}
	if err != nil {
		return nil, err
	}
	ps := po.(*PString)
	ps.WriteUint32(0, uint32(len(s)))
	ps.WriteBytes(4, []byte(s))
	ps.PWB()
	return ps, nil
}

// NewStringTx allocates a PString inside a failure-atomic block; it
// becomes valid if and only if the block commits.
func NewStringTx(tx *fa.Tx, s string) (*PString, error) {
	h := tx.Manager().Heap()
	size := 4 + uint64(len(s))
	var po core.PObject
	var err error
	if heap.FitsSmall(size) {
		po, err = tx.AllocSmall(mustClass(h, ClassString), size)
	} else {
		po, err = tx.Alloc(mustClass(h, ClassString), size)
	}
	if err != nil {
		return nil, err
	}
	ps := po.(*PString)
	// Direct writes: the object is invalid until commit.
	ps.WriteUint32(0, uint32(len(s)))
	ps.WriteBytes(4, []byte(s))
	return ps, nil
}

// NewStringValid allocates a PString holding s that is born valid: the
// content is written, the valid bit set unflushed, and one whole-extent
// flush covers both (DESIGN.md §16). The object is NOT fenced — callers
// publish it behind their own ordering point (the lock-free insert fence),
// exactly as with NewString+Validate but one pwb cheaper.
func NewStringValid(h *core.Heap, s string) (*PString, error) {
	size := 4 + uint64(len(s))
	var po core.PObject
	var err error
	if heap.FitsSmall(size) {
		po, err = h.AllocSmall(mustClass(h, ClassString), size)
	} else {
		po, err = h.Alloc(mustClass(h, ClassString), size)
	}
	if err != nil {
		return nil, err
	}
	ps := po.(*PString)
	ps.WriteUint32(0, uint32(len(s)))
	ps.WriteBytes(4, []byte(s))
	ps.ValidateDeferred()
	ps.PWB()
	return ps, nil
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
	size := 4 + uint64(len(b))
	var po core.PObject
	var err error
	if heap.FitsSmall(size) {
		po, err = h.AllocSmall(mustClass(h, ClassBytes), size)
	} else {
		po, err = h.Alloc(mustClass(h, ClassBytes), size)
	}
	if err != nil {
		return nil, err
	}
	pb := po.(*PBytes)
	pb.WriteUint32(0, uint32(len(b)))
	pb.WriteBytes(4, b)
	pb.PWB()
	return pb, nil
}

// NewBytesTx allocates a PBytes inside a failure-atomic block.
func NewBytesTx(tx *fa.Tx, b []byte) (*PBytes, error) {
	h := tx.Manager().Heap()
	size := 4 + uint64(len(b))
	var po core.PObject
	var err error
	if heap.FitsSmall(size) {
		po, err = tx.AllocSmall(mustClass(h, ClassBytes), size)
	} else {
		po, err = tx.Alloc(mustClass(h, ClassBytes), size)
	}
	if err != nil {
		return nil, err
	}
	pb := po.(*PBytes)
	pb.WriteUint32(0, uint32(len(b)))
	pb.WriteBytes(4, b)
	return pb, nil
}

// NewBytesValid allocates a born-valid PBytes (see NewStringValid).
func NewBytesValid(h *core.Heap, b []byte) (*PBytes, error) {
	size := 4 + uint64(len(b))
	var po core.PObject
	var err error
	if heap.FitsSmall(size) {
		po, err = h.AllocSmall(mustClass(h, ClassBytes), size)
	} else {
		po, err = h.Alloc(mustClass(h, ClassBytes), size)
	}
	if err != nil {
		return nil, err
	}
	pb := po.(*PBytes)
	pb.WriteUint32(0, uint32(len(b)))
	pb.WriteBytes(4, b)
	pb.ValidateDeferred()
	pb.PWB()
	return pb, nil
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
	o := h.Inspect(ref)
	n := uint64(o.ReadUint32(0))
	return o.ReadBytes(4, n)
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
	if _, _, next := heap.UnpackHeader(mem.Header(ref)); next != 0 {
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
	mem := h.Mem()
	pool := h.Pool()
	if !mem.IsBlockRef(ref) {
		n := uint64(pool.ReadUint32(ref + 8))
		return n == uint64(len(v)) && string(pool.View(ref+8+4, n)) == v
	}
	if _, _, next := heap.UnpackHeader(mem.Header(ref)); next == 0 {
		data := ref + heap.HeaderSize
		n := uint64(pool.ReadUint32(data))
		return n == uint64(len(v)) && string(pool.View(data+4, n)) == v
	}
	return string(ReadBlob(h, ref)) == v
}

// ReadBlob decodes the [len u32 | bytes] layout shared by PString and
// PBytes directly from NVMM, without allocating a proxy. This is the
// zero-conversion read path that §5.2 credits for the YCSB gap.
func ReadBlob(h *core.Heap, ref core.Ref) []byte {
	mem := h.Mem()
	pool := h.Pool()
	if !mem.IsBlockRef(ref) { // pooled slot: contiguous after mini-header
		n := uint64(pool.ReadUint32(ref + 8))
		return pool.ReadBytes(ref+8+4, n)
	}
	if _, _, next := heap.UnpackHeader(mem.Header(ref)); next == 0 {
		data := ref + heap.HeaderSize
		n := uint64(pool.ReadUint32(data))
		return pool.ReadBytes(data+4, n)
	}
	o := h.Inspect(ref)
	n := uint64(o.ReadUint32(0))
	return o.ReadBytes(4, n)
}
