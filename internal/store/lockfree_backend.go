package store

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdt"
)

// LockFreeBackend is the optional capability behind the grid's lock-free
// mode: a backend whose insert/read/update/delete are internally
// linearizable and crash-consistent without external mutual exclusion.
// When the record cache is off, the grid detects it and skips its stripe
// locks and seqlock generations for those four operations (RMW keeps the
// stripe lock: its read-then-write window is a grid-level contract).
type LockFreeBackend interface {
	// EnableLockFree switches the backend's heap to epoch-based
	// reclamation and wires the lock-free op counters. Called once by the
	// grid, before traffic.
	EnableLockFree(rs *obs.ReadStats)
}

// JPDTLFBackend is the lock-free J-PDT backend (DESIGN.md §16): records
// live in a pdt.LFMap, every structural write persists only its
// destination cell (one pwb + one fence), and reads run under an EBR pin
// with no locks anywhere — the grid drops its stripe locks and seqlock
// generations entirely for this backend (see LockFreeBackend).
type JPDTLFBackend struct {
	h     *core.Heap
	m     *pdt.LFMap
	names *nameDict
	objs  recordAlloc // validObjects(h), built once
	// reps serializes, per key stripe, an update that changes a field's
	// representation — it publishes a copy of the record's table — against
	// the operations that write the table in place: those hold their
	// stripe shared, the copier exclusively, so no reference it copied is
	// displaced (and freed) under it and no in-place store lands in the
	// table it retires. Reads and inserts never take it.
	reps [repStripes]sync.RWMutex
}

const repStripes = 64

// NewJPDTLFBackend creates (or reopens) the backend's lock-free map
// under the given root name.
func NewJPDTLFBackend(h *core.Heap, rootName string) (*JPDTLFBackend, error) {
	m, err := openOrCreate(h, rootName, func() (*pdt.LFMap, error) { return pdt.NewLFMap(h, 0) })
	if err != nil {
		return nil, err
	}
	names, err := openNameDict(h, rootName)
	if err != nil {
		return nil, err
	}
	return &JPDTLFBackend{h: h, m: m, names: names, objs: validObjects(h)}, nil
}

// Name implements Backend.
func (b *JPDTLFBackend) Name() string { return "J-PDT-LF" }

// Count implements Backend.
func (b *JPDTLFBackend) Count() int { return b.m.Len() }

// Caps implements Backend.
func (b *JPDTLFBackend) Caps() Caps { return Caps{Keys: b, LockFree: b} }

// Keys implements KeyLister (sorted: LFMap iteration is bucket-order).
func (b *JPDTLFBackend) Keys() []string {
	var ks []string
	b.m.ForEach(func(key string, _ core.Ref) bool {
		ks = append(ks, key)
		return true
	})
	sort.Strings(ks)
	return ks
}

// Close implements Backend.
func (b *JPDTLFBackend) Close() error { return nil }

// Map exposes the underlying lock-free map (crash workloads inspect it).
func (b *JPDTLFBackend) Map() *pdt.LFMap { return b.m }

// EnableLockFree implements LockFreeBackend.
func (b *JPDTLFBackend) EnableLockFree(rs *obs.ReadStats) {
	b.h.Mem().EnableEBR()
	b.m.SetReadObs(rs)
}

// Insert implements Backend: the record and all field objects are born
// valid and flushed; the map insert's single fence is the only ordering
// point and its cell pwb the only structural flush.
func (b *JPDTLFBackend) Insert(key string, rec *Record) error {
	r, err := newRecord(b.names, b.objs, rec.Fields)
	if err != nil {
		return err
	}
	return b.m.PutRef(key, r.Ref())
}

// inlineScratch lends readRecordPinned the 8 bytes an inline value is
// copied into; one buffer serves every field of a read, since a consumer
// may keep nothing past its call.
var inlineScratch = sync.Pool{New: func() any { return new([maxInline]byte) }}

// readRecordPinned streams the record's fields to consume while the
// caller's EBR pin is held. Table words are loaded atomically (concurrent
// updaters CAS or store them); blob views come straight out of NVMM, with
// a copy only for chained blobs (never the YCSB shapes) and for inline
// values, which the next update overwrites in place.
func readRecordPinned(d *nameDict, ref core.Ref, consume func(name string, value []byte)) {
	h := d.h
	// Raw atomic loads for a single-block record (the YCSB shapes), the
	// proxy's locator for a chained one.
	var n int
	var word func(off uint64) uint64
	if base, cnt, ok := tableBase(h, ref); ok {
		pool := h.Pool()
		n, word = cnt, func(off uint64) uint64 { return pool.ReadUint64Atomic(base + off) }
	} else {
		o := h.Inspect(ref)
		n, word = tableCount(o.ReadRefAtomic(recCount)), o.ReadRefAtomic
	}
	var scratch *[maxInline]byte
	for i := 0; i < n; i++ {
		nw := word(fieldNameOff(i))
		vw := word(fieldValOff(i))
		name, ok := fieldName(d, nw)
		if !ok {
			continue // nullified by recovery
		}
		if ln, inline := inlineLen(nw); inline {
			if scratch == nil {
				scratch = inlineScratch.Get().(*[maxInline]byte)
			}
			binary.LittleEndian.PutUint64(scratch[:], vw)
			consume(name, scratch[:ln])
			continue
		}
		if vw == 0 {
			continue // nullified by recovery or claimed by a racing delete
		}
		vb, ok := pdt.BlobView(h, vw)
		if !ok {
			vb = pdt.ReadBlobView(h, vw)
		}
		consume(name, vb)
	}
	if scratch != nil {
		inlineScratch.Put(scratch)
	}
}

// Read implements Backend: lock-free, zero-copy, under one EBR pin.
func (b *JPDTLFBackend) Read(key string, consume func(name string, value []byte)) (bool, error) {
	found := b.m.WithValue(key, func(vref core.Ref) {
		readRecordPinned(b.names, vref, consume)
	})
	return found, nil
}

func (b *JPDTLFBackend) stripe(key string) *sync.RWMutex { return &b.reps[fnv32(key)%repStripes] }

// Update implements Backend. A field that keeps its representation is
// updated in place, under the key's shared stripe: a referenced value by
// per-field CAS displacement, an inline value by one atomic 8-byte store.
// An update that changes a representation cannot swing the field's two
// words together, so it retries under the exclusive stripe and replaces
// the record's table with one swing of the map cell.
func (b *JPDTLFBackend) Update(key string, fields []Field) (bool, error) {
	mu := b.stripe(key)
	mu.RLock()
	found, rewrite, err := b.updateInPlace(key, fields)
	mu.RUnlock()
	if !rewrite {
		return found && err == nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	var dropped []core.Ref
	var uerr error
	found = b.m.WithValue(key, func(ref core.Ref) {
		var nr *pRecord
		r := &pRecord{Object: b.h.Inspect(ref)}
		if nr, dropped, uerr = r.rewrite(b.names, b.objs, key, fields); uerr == nil {
			// The stripe keeps deleters and in-place updaters out, so the
			// binding found is the one replaced; the map frees the old
			// table behind its own fence.
			uerr = b.m.PutRef(key, nr.Ref())
		}
	})
	if uerr != nil || !found {
		return false, uerr
	}
	b.h.PFence() // the swing before the invalidations
	for _, ref := range dropped {
		b.h.Mem().FreeObject(ref)
	}
	return true, nil
}

// updateInPlace is Update's shared-stripe path. Each new referenced
// value is born valid and flushed; one fence orders all of them, then
// every field word is swung with a CAS whose loser retries and whose
// displaced reference is freed by the swapper (the ownership rule of
// DESIGN.md §16). A reference word found at zero means a racing delete
// claimed the record: the update linearizes after it and reports
// not-found. Nothing is written when any field would change
// representation (rewrite=true). Single-block records (the YCSB shapes)
// are updated through raw pool offsets — no proxy wrap, no per-op heap
// allocation beyond the new values themselves.
func (b *JPDTLFBackend) updateInPlace(key string, fields []Field) (found, rewrite bool, uerr error) {
	h := b.h
	mem := h.Mem()
	pool := h.Pool()
	vanished := false
	found = b.m.WithValue(key, func(ref core.Ref) {
		var n int
		var load func(off uint64) core.Ref
		var cas func(off uint64, old, new core.Ref) bool
		var store func(off, v uint64)
		var pwb func(off uint64)
		if base, cnt, ok := tableBase(h, ref); ok {
			n = cnt
			load = func(off uint64) core.Ref { return pool.ReadUint64Atomic(base + off) }
			cas = func(off uint64, old, new core.Ref) bool {
				return pool.CompareAndSwapUint64(base+off, uint64(old), uint64(new))
			}
			store = func(off, v uint64) { pool.WriteUint64Atomic(base+off, v) }
			pwb = func(off uint64) { pool.PWBRange(base+off, 8) }
		} else { // chained record: go through the proxy's locator
			o := h.Inspect(ref)
			n = tableCount(o.ReadRefAtomic(recCount))
			load = o.ReadRefAtomic
			cas = o.CompareAndSwapRef
			store = o.WriteRefAtomic
			pwb = func(off uint64) { o.PWBField(off, 8) }
		}
		// One entry per updated field: its value word's offset, the new
		// word, and whether that is a reference this update allocated.
		type swing struct {
			off, vw uint64
			ref     bool
		}
		var arr [8]swing
		swings := arr[:0]
		free := func() {
			for _, s := range swings {
				if s.ref {
					mem.FreeObject(s.vw)
				}
			}
		}
		for _, f := range fields {
			i := fieldIndex(b.names, n, load, f.Name)
			if i < 0 {
				uerr = fmt.Errorf("store: record %q has no field %q", key, f.Name)
				free()
				return
			}
			nw := load(fieldNameOff(i))
			rep, vw, inline := inlineValue(nw&nameInterned != 0, f.Value)
			if rep != wordRep(nw) {
				rewrite = true
				free()
				return
			}
			if !inline {
				vb, err := pdt.NewBytesValid(h, f.Value)
				if err != nil {
					uerr = err
					free()
					return
				}
				vw = vb.Ref()
			}
			swings = append(swings, swing{fieldValOff(i), vw, !inline})
		}
		pool.PFence() // one fence orders every new value's flush
		for _, s := range swings {
			if !s.ref {
				store(s.off, s.vw)
				pwb(s.off)
				continue
			}
			for {
				old := load(s.off)
				if old == 0 {
					// A deleter claimed this record; hand the orphaned
					// new value back and surface the delete.
					mem.FreeObject(s.vw)
					vanished = true
					return
				}
				if cas(s.off, old, s.vw) {
					pwb(s.off) // persist-at-destination: one line
					mem.FreeObject(old)
					break
				}
			}
		}
	})
	return found && !vanished, rewrite, uerr
}

// Delete implements Backend: the record is unlinked by the lock-free
// remove (one pwb on the cell), then each referenced value is claimed
// with a CAS to zero before it is freed — racing updaters that lose the
// claim see the zero and withdraw, so nothing is freed twice. Inline
// values own nothing, and per-record names never change.
func (b *JPDTLFBackend) Delete(key string) (bool, error) {
	mu := b.stripe(key)
	mu.RLock()
	defer mu.RUnlock()
	po, err := b.m.Remove(key)
	if err != nil || po == nil {
		return false, err
	}
	h := b.h
	r := &pRecord{Object: po.Core()}
	for _, off := range recordRefs(r.Object) {
		for {
			ref := r.ReadRefAtomic(off)
			if ref == 0 {
				break
			}
			if r.CompareAndSwapRef(off, ref, 0) {
				h.Mem().FreeObject(ref)
				break
			}
		}
	}
	h.Free(r)
	return true, nil
}
