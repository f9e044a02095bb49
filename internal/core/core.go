// Package core implements the primary contribution of the J-NVM paper: the
// decoupling principle between a persistent data structure, which lives
// off-heap in NVMM, and a volatile proxy, which is an ordinary Go value
// that intermediates every access to it (§2.1, §3).
//
// A persistent object is live when it is both reachable from the root map
// and valid (§3.2.3). There is no runtime garbage collector for persistent
// objects; a recovery-time GC (§4.1.3) runs when a heap is reopened:
// committed failure-atomic logs are replayed first, then the object graph
// is traversed from the root map, references to invalid objects are
// nullified, per-object Recover hooks run, and everything unreachable is
// swept back to the free queue.
package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/nvm"
)

// Ref is a persistent reference (pool offset of a master block or pooled
// slot); 0 is the persistent null.
type Ref = heap.Ref

// PObject is the interface of every persistent proxy, the analogue of the
// paper's PObject marker. Durability is attached to the *type*, never the
// instance: the class-centric model of §2.3.
type PObject interface {
	// Core returns the proxy core holding the association between this
	// proxy and its persistent data structure.
	Core() *Object
}

// Resurrector is implemented by proxies that derive transient state from
// the persistent state when a proxy is created for an existing data
// structure (§3.1, the resurrect constructor).
type Resurrector interface {
	OnResurrect()
}

// Recoverer is implemented by proxies that must repair their persistent
// state after a crash when they do not use failure-atomic blocks (§3.2.1).
// Recover is called for each live object during the recovery traversal.
type Recoverer interface {
	Recover()
}

// Class describes a persistent type to the runtime. It plays the role of
// the metadata the paper's code generator embeds in rewritten classes.
type Class struct {
	// Name is the stable persistent identity, e.g. "pdt.PString".
	Name string
	// Factory wraps a proxy core into the typed proxy. Called during
	// resurrection; must not touch NVMM beyond reads.
	Factory func(o *Object) PObject
	// Refs reports the data offsets of the persistent reference fields of
	// an instance, for the recovery traversal. May inspect the object
	// (e.g. read a length field). Nil means the class holds no refs.
	Refs func(o *Object) []uint64
	// Supersedes names earlier persistent formats of this class that this
	// build no longer reads. Open refuses a pool whose class table knows
	// one of them: its instances would be misread under the new layout.
	Supersedes []string

	id uint16 // persistent id, assigned at registration
}

// ID returns the persistent class id (valid after registration).
func (c *Class) ID() uint16 { return c.id }

// Object is the proxy core: the volatile half of a persistent object. It
// caches the block-offset array of the data structure so that locating the
// block of a field is a single division (§4.1).
type Object struct {
	h      *Heap
	ref    Ref
	blocks []Ref // nil for pooled slots
	size   uint64
	inline [1]Ref // backing for blocks when the object is single-block
}

// Heap returns the owning heap.
func (o *Object) Heap() *Heap { return o.h }

// Ref returns the persistent reference of the object. Zero after Free.
func (o *Object) Ref() Ref { return o.ref }

// Size returns the capacity of the data area in bytes. For block objects
// this is the rounded-up block capacity; variable-length classes keep
// their logical length in a field.
func (o *Object) Size() uint64 { return o.size }

// Valid reports the persistent valid bit.
func (o *Object) Valid() bool { return o.h.mem.Valid(o.ref) }

// Core implements PObject so bare cores can be stored where a proxy is
// expected (used by infrastructure types).
func (o *Object) Core() *Object { return o }

func (o *Object) live() {
	if o.ref == 0 {
		panic("core: access through a freed proxy")
	}
}

// locate maps a data offset to a pool offset, reporting whether n bytes
// are contiguous there.
func (o *Object) locate(off, n uint64) (uint64, bool) {
	o.live()
	if off+n > o.size {
		panic(fmt.Sprintf("core: field access [%d,+%d) beyond object size %d", off, n, o.size))
	}
	if o.blocks == nil { // pooled slot: contiguous payload after mini-header
		return o.ref + 8 + off, true
	}
	b := off / heap.Payload
	within := off % heap.Payload
	return o.blocks[b] + heap.HeaderSize + within, within+n <= heap.Payload
}

// ReadUint64 loads the 8-byte field at data offset off.
func (o *Object) ReadUint64(off uint64) uint64 {
	if p, ok := o.locate(off, 8); ok {
		return o.h.pool.ReadUint64(p)
	}
	var buf [8]byte
	o.readSpan(off, buf[:])
	return uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
}

// WriteUint64 stores the 8-byte field at data offset off.
func (o *Object) WriteUint64(off, v uint64) {
	if p, ok := o.locate(off, 8); ok {
		o.h.pool.WriteUint64(p, v)
		return
	}
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	o.writeSpan(off, buf[:])
}

// ReadInt64 loads a signed 8-byte field.
func (o *Object) ReadInt64(off uint64) int64 { return int64(o.ReadUint64(off)) }

// WriteInt64 stores a signed 8-byte field.
func (o *Object) WriteInt64(off uint64, v int64) { o.WriteUint64(off, uint64(v)) }

// ReadUint32 loads a 4-byte field.
func (o *Object) ReadUint32(off uint64) uint32 {
	if p, ok := o.locate(off, 4); ok {
		return o.h.pool.ReadUint32(p)
	}
	var buf [4]byte
	o.readSpan(off, buf[:])
	return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
}

// WriteUint32 stores a 4-byte field.
func (o *Object) WriteUint32(off uint64, v uint32) {
	if p, ok := o.locate(off, 4); ok {
		o.h.pool.WriteUint32(p, v)
		return
	}
	var buf [4]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	o.writeSpan(off, buf[:])
}

// ReadUint16 loads a 2-byte field.
func (o *Object) ReadUint16(off uint64) uint16 {
	if p, ok := o.locate(off, 2); ok {
		return o.h.pool.ReadUint16(p)
	}
	var buf [2]byte
	o.readSpan(off, buf[:])
	return uint16(buf[0]) | uint16(buf[1])<<8
}

// WriteUint16 stores a 2-byte field.
func (o *Object) WriteUint16(off uint64, v uint16) {
	if p, ok := o.locate(off, 2); ok {
		o.h.pool.WriteUint16(p, v)
		return
	}
	o.writeSpan(off, []byte{byte(v), byte(v >> 8)})
}

// ReadUint8 loads a 1-byte field.
func (o *Object) ReadUint8(off uint64) byte {
	p, _ := o.locate(off, 1)
	return o.h.pool.ReadUint8(p)
}

// WriteUint8 stores a 1-byte field.
func (o *Object) WriteUint8(off uint64, v byte) {
	p, _ := o.locate(off, 1)
	o.h.pool.WriteUint8(p, v)
}

func (o *Object) readSpan(off uint64, dst []byte) {
	for len(dst) > 0 {
		p, _ := o.locate(off, 1)
		within := uint64(heap.Payload)
		if o.blocks != nil {
			within = heap.Payload - off%heap.Payload
		}
		n := uint64(len(dst))
		if n > within {
			n = within
		}
		o.h.pool.ReadInto(p, dst[:n])
		dst = dst[n:]
		off += n
	}
}

func (o *Object) writeSpan(off uint64, src []byte) {
	for len(src) > 0 {
		p, _ := o.locate(off, 1)
		within := uint64(heap.Payload)
		if o.blocks != nil {
			within = heap.Payload - off%heap.Payload
		}
		n := uint64(len(src))
		if n > within {
			n = within
		}
		o.h.pool.WriteBytes(p, src[:n])
		src = src[n:]
		off += n
	}
}

// ReadInto copies len(dst) bytes of the data area starting at off into
// dst without allocating.
func (o *Object) ReadInto(off uint64, dst []byte) {
	if off+uint64(len(dst)) > o.size {
		panic(fmt.Sprintf("core: byte read [%d,+%d) beyond object size %d", off, len(dst), o.size))
	}
	o.readSpan(off, dst)
}

// ReadBytes copies n bytes of the data area starting at off.
func (o *Object) ReadBytes(off, n uint64) []byte {
	if off+n > o.size {
		panic(fmt.Sprintf("core: byte read [%d,+%d) beyond object size %d", off, n, o.size))
	}
	out := make([]byte, n)
	o.readSpan(off, out)
	return out
}

// WriteBytes stores src into the data area at off.
func (o *Object) WriteBytes(off uint64, src []byte) {
	if off+uint64(len(src)) > o.size {
		panic(fmt.Sprintf("core: byte write [%d,+%d) beyond object size %d", off, len(src), o.size))
	}
	o.writeSpan(off, src)
}

// ReadRef loads a persistent reference field.
func (o *Object) ReadRef(off uint64) Ref { return o.ReadUint64(off) }

// WriteRef stores a persistent reference field. Only refs to persistent
// objects can exist in NVMM, so cross-heap references (§2.3) are ruled out
// by construction: there is no way to name a volatile Go value here.
func (o *Object) WriteRef(off uint64, r Ref) { o.WriteUint64(off, r) }

// ReadRefAtomic loads a reference field with atomic (acquire) semantics
// when the backing word is 8-aligned in the pool, falling back to a plain
// load otherwise. The lock-free read path uses it to observe refs a
// concurrent writer publishes with WriteRefAtomic; misaligned words (only
// the 124-byte slot class produces them) are served by the locked path on
// both sides, so the plain fallback never races an atomic store.
func (o *Object) ReadRefAtomic(off uint64) Ref {
	if p, ok := o.locate(off, 8); ok && p%8 == 0 {
		return o.h.pool.ReadUint64Atomic(p)
	}
	return o.ReadUint64(off)
}

// WriteRefAtomic stores a reference field with atomic (release) semantics
// under the same alignment rule as ReadRefAtomic.
func (o *Object) WriteRefAtomic(off uint64, r Ref) {
	if p, ok := o.locate(off, 8); ok && p%8 == 0 {
		o.h.pool.WriteUint64Atomic(p, r)
		return
	}
	o.WriteUint64(off, r)
}

// ReadObject dereferences the reference field at off, resurrecting a proxy
// for the target (§3.1). Returns nil for a null reference.
func (o *Object) ReadObject(off uint64) (PObject, error) {
	r := o.ReadRef(off)
	if r == 0 {
		return nil, nil
	}
	return o.h.Resurrect(r)
}

// WriteObject stores a reference to the persistent object behind po (nil
// stores the null reference).
func (o *Object) WriteObject(off uint64, po PObject) {
	if po == nil {
		o.WriteRef(off, 0)
		return
	}
	o.WriteRef(off, po.Core().Ref())
}

// ---- Cache-line management (§3.2.2) ----

// PWB flushes all cache lines of the object: header(s) and data, the
// generated pwb() of Figure 4.
func (o *Object) PWB() {
	o.live()
	if o.blocks == nil {
		o.h.pool.PWBRange(o.ref, 8+o.size)
		return
	}
	for _, b := range o.blocks {
		o.h.pool.PWBRange(b, heap.BlockSize)
	}
}

// PWBField flushes the cache lines backing the n-byte field at off, the
// generated pwbX() of Figure 4.
func (o *Object) PWBField(off, n uint64) {
	if n == 0 {
		return
	}
	for n > 0 {
		p, _ := o.locate(off, 1)
		within := uint64(heap.Payload)
		if o.blocks != nil {
			within = heap.Payload - off%heap.Payload
		}
		step := n
		if step > within {
			step = within
		}
		o.h.pool.PWBRange(p, step)
		off += step
		n -= step
	}
}

// PFence orders preceding flushes and stores (exposed on the object for
// parity with the paper's PObject interface).
func (o *Object) PFence() { o.h.pool.PFence() }

// PSync behaves as PFence and drains the write-pending queue.
func (o *Object) PSync() { o.h.pool.PSync() }

// Validate sets the object's valid bit and flushes its header, without
// fencing: §3.2.3 lets callers publish many objects under one fence.
func (o *Object) Validate() {
	o.live()
	o.h.mem.SetValid(o.ref, true)
}

// ValidateDeferred sets the valid bit without flushing the header line.
// Born-valid constructors (DESIGN.md §16) use it right before a single
// whole-extent PWB, saving the separate header write-back that
// construct-then-Validate pays.
func (o *Object) ValidateDeferred() {
	o.live()
	o.h.mem.SetValidDeferred(o.ref, true)
}

// Invalidate clears the valid bit (flushed, unfenced).
func (o *Object) Invalidate() {
	o.live()
	o.h.mem.SetValid(o.ref, false)
}

// AtomicUpdateRef atomically updates the reference field at off to point
// to n (§4.1.6, Figure 6): the new object is validated and fenced before
// becoming reachable, so the recovery pass can never nullify the
// reference. A nil n clears the field. The ref store itself is atomic
// (WriteRefAtomic) so lock-free readers observe either the old or the
// new reference, never a torn word.
func (o *Object) AtomicUpdateRef(off uint64, n PObject) {
	if n == nil {
		o.WriteRefAtomic(off, 0)
		o.PWBField(off, 8)
		return
	}
	n.Core().Validate()
	o.h.pool.PFence()
	o.WriteRefAtomic(off, n.Core().Ref())
	o.PWBField(off, 8)
}

// AtomicReplaceRef is the second generated helper of §4.1.6: it updates
// the reference like AtomicUpdateRef and atomically frees the previously
// referenced object. The free needs no extra fence (§4.1.5).
func (o *Object) AtomicReplaceRef(off uint64, n PObject) {
	old := o.ReadRef(off)
	o.AtomicUpdateRef(off, n)
	if old != 0 && (n == nil || old != n.Core().Ref()) {
		o.h.pool.PFence() // order the unlink before the invalidation
		o.h.mem.FreeObject(old)
	}
}

// CompareAndSwapRef atomically swaps the reference field at off from old
// to new, reporting whether the swap happened. It is the publication
// primitive of the lock-free durable types (DESIGN.md §16): concurrent
// writers race on the same word and losers retry instead of blocking.
// The field must be contiguous and 8-aligned in the pool — true for every
// word of a block-backed object (payloads start 8-aligned and words never
// straddle blocks when the layout keeps them 8-aligned) — and the caller
// flushes and fences per its own protocol.
func (o *Object) CompareAndSwapRef(off uint64, old, new Ref) bool {
	p, ok := o.locate(off, 8)
	if !ok || p%8 != 0 {
		panic("core: CompareAndSwapRef on a non-contiguous or misaligned field")
	}
	return o.h.pool.CompareAndSwapUint64(p, old, new)
}

// ClassID returns the persistent class id from the object's header.
func (o *Object) ClassID() uint16 {
	o.live()
	return o.h.mem.ClassOf(o.ref)
}

// BlockRefs exposes the cached block list (read-only; nil for slots).
func (o *Object) BlockRefs() []Ref { return o.blocks }

// ---- helpers shared with fa ----

// Mem returns the block heap (used by the failure-atomic machinery).
func (h *Heap) Mem() *heap.Heap { return h.mem }

// Pool returns the NVMM pool.
func (h *Heap) Pool() *nvm.Pool { return h.pool }
