package store

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/heap"
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
	h *core.Heap
	m *pdt.LFMap
}

// NewJPDTLFBackend creates (or reopens) the backend's lock-free map
// under the given root name.
func NewJPDTLFBackend(h *core.Heap, rootName string) (*JPDTLFBackend, error) {
	m, err := openOrCreate(h, rootName, func() (*pdt.LFMap, error) { return pdt.NewLFMap(h, 0) })
	if err != nil {
		return nil, err
	}
	return &JPDTLFBackend{h: h, m: m}, nil
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
	r, err := newPRecordValid(b.h, rec)
	if err != nil {
		return err
	}
	return b.m.PutRef(key, r.Ref())
}

// readRecordPinned streams the record's fields to consume while the
// caller's EBR pin is held. Field reference words are loaded atomically
// (concurrent updaters CAS them); blob views come straight out of NVMM,
// with a copy only for chained blobs (never the YCSB shapes).
func readRecordPinned(h *core.Heap, ref core.Ref, consume func(name string, value []byte)) {
	mem := h.Mem()
	pool := h.Pool()
	var n int
	var word func(off uint64) core.Ref
	if mem.IsBlockRef(ref) {
		if _, _, next := heap.UnpackHeader(mem.Header(ref)); next == 0 {
			data := ref + heap.HeaderSize
			n = int(pool.ReadUint32(data + recCount))
			if recFields+uint64(n)*16 <= heap.Payload {
				word = func(off uint64) core.Ref { return pool.ReadUint64Atomic(data + off) }
			}
		}
	}
	if word == nil { // chained record: go through the proxy's locator
		o := h.Inspect(ref)
		n = int(o.ReadUint32(recCount))
		word = o.ReadRefAtomic
	}
	for i := 0; i < n; i++ {
		nref := word(fieldNameOff(i))
		vref := word(fieldValOff(i))
		if nref == 0 || vref == 0 {
			continue // nullified by recovery or claimed by a racing delete
		}
		nb, ok := pdt.BlobView(h, nref)
		if !ok {
			nb = pdt.ReadBlobView(h, nref)
		}
		vb, ok := pdt.BlobView(h, vref)
		if !ok {
			vb = pdt.ReadBlobView(h, vref)
		}
		consume(viewString(nb), vb)
	}
}

// Read implements Backend: lock-free, zero-copy, under one EBR pin.
func (b *JPDTLFBackend) Read(key string, consume func(name string, value []byte)) (bool, error) {
	found := b.m.WithValue(key, func(vref core.Ref) {
		readRecordPinned(b.h, vref, consume)
	})
	return found, nil
}

// fieldIndexPinned is fieldIndex with atomic reference loads, safe against
// concurrent field CASes (names are immutable once published, but the
// words next to them move).
func fieldIndexPinned(h *core.Heap, word func(off uint64) core.Ref, n int, name string) int {
	for i := 0; i < n; i++ {
		nref := word(fieldNameOff(i))
		if nref == 0 {
			continue
		}
		if pdt.BlobEquals(h, nref, name) {
			return i
		}
	}
	return -1
}

// Update implements Backend: per-field CAS displacement. Each new value
// is born valid and flushed; one fence orders all of them, then every
// field word is swung with a CAS whose loser retries and whose displaced
// reference is freed by the swapper (the ownership rule of DESIGN.md
// §16). A field word found at zero means a racing delete claimed the
// record: the update linearizes after it and reports not-found.
// Single-block records (the YCSB shapes) are updated through raw pool
// offsets — no proxy wrap, no per-op heap allocation beyond the new
// values themselves.
func (b *JPDTLFBackend) Update(key string, fields []Field) (bool, error) {
	h := b.h
	mem := h.Mem()
	pool := h.Pool()
	var uerr error
	vanished := false
	found := b.m.WithValue(key, func(ref core.Ref) {
		var n int
		var load func(off uint64) core.Ref
		var cas func(off uint64, old, new core.Ref) bool
		var pwb func(off uint64)
		if mem.IsBlockRef(ref) {
			if _, _, next := heap.UnpackHeader(mem.Header(ref)); next == 0 {
				data := ref + heap.HeaderSize
				n = int(pool.ReadUint32(data + recCount))
				if recFields+uint64(n)*16 <= heap.Payload {
					load = func(off uint64) core.Ref { return pool.ReadUint64Atomic(data + off) }
					cas = func(off uint64, old, new core.Ref) bool {
						return pool.CompareAndSwapUint64(data+off, uint64(old), uint64(new))
					}
					pwb = func(off uint64) { pool.PWBRange(data+off, 8) }
				}
			}
		}
		if load == nil { // chained record: go through the proxy's locator
			o := h.Inspect(ref)
			n = int(o.ReadUint32(recCount))
			load = o.ReadRefAtomic
			cas = o.CompareAndSwapRef
			pwb = func(off uint64) { o.PWBField(off, 8) }
		}
		var newsArr [8]*pdt.PBytes
		var idxsArr [8]int
		news, idxs := newsArr[:0], idxsArr[:0]
		if len(fields) > len(newsArr) {
			news = make([]*pdt.PBytes, 0, len(fields))
			idxs = make([]int, 0, len(fields))
		}
		for _, f := range fields {
			i := fieldIndexPinned(h, load, n, f.Name)
			if i < 0 {
				uerr = fmt.Errorf("store: record %q has no field %q", key, f.Name)
				return
			}
			vb, err := pdt.NewBytesValid(h, f.Value)
			if err != nil {
				uerr = err
				return
			}
			news = append(news, vb)
			idxs = append(idxs, i)
		}
		pool.PFence() // one fence orders every new value's flush
		for fi := range news {
			off := fieldValOff(idxs[fi])
			for {
				old := load(off)
				if old == 0 {
					// A deleter claimed this record; hand the orphaned
					// new value back and surface the delete.
					mem.FreeObject(news[fi].Ref())
					vanished = true
					return
				}
				if cas(off, old, news[fi].Ref()) {
					pwb(off) // persist-at-destination: one line
					mem.FreeObject(old)
					break
				}
			}
		}
	})
	if uerr != nil {
		return false, uerr
	}
	return found && !vanished, nil
}

// Delete implements Backend: the record is unlinked by the lock-free
// remove (one pwb on the cell), then each field is claimed with a CAS to
// zero before its referent is freed — racing updaters that lose the claim
// see the zero and withdraw, so nothing is freed twice.
func (b *JPDTLFBackend) Delete(key string) (bool, error) {
	po, err := b.m.Remove(key)
	if err != nil || po == nil {
		return false, err
	}
	h := b.h
	r := &pRecord{Object: po.Core()}
	n := r.fieldCount()
	for i := 0; i < n; i++ {
		if nref := r.ReadRefAtomic(fieldNameOff(i)); nref != 0 {
			h.Mem().FreeObject(nref)
		}
		off := fieldValOff(i)
		for {
			vref := r.ReadRefAtomic(off)
			if vref == 0 {
				break
			}
			if r.CompareAndSwapRef(off, vref, 0) {
				h.Mem().FreeObject(vref)
				break
			}
		}
	}
	h.Free(r)
	return true, nil
}
