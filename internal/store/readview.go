package store

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/pdt"
)

// ViewReader is the optional backend capability behind the grid's
// zero-copy read fast path (DESIGN.md §14). A capable backend serves a
// read without taking the grid's stripe lock: it pins an epoch-based-
// reclamation reader slot (so no object it dereferences is recycled
// mid-read), collects every field as a view straight into NVMM, and only
// delivers the views to the consumer after the grid's seqlock generation
// check proves no writer overlapped the collection. Only J-PDT implements
// it — J-PFA reads share its map, but the paper's comparison keeps each
// backend's read path its own.
type ViewReader interface {
	// EnableViewReads prepares the backend for unlocked readers: it
	// switches the heap to deferred (epoch-based) reclamation and wires
	// the read-path counters. The grid calls it once, before traffic.
	EnableViewReads(rs *obs.ReadStats)

	// ReadView reads the record under an EBR pin, with hint spreading
	// readers across pin slots. gen/g1 are the caller's seqlock stripe
	// and its pre-read generation: the backend re-checks the generation
	// after collecting the field views and before invoking consume, so
	// the consumer only ever observes a write-free snapshot.
	//
	// valid=false reports a generation change (caller retries);
	// ok=false reports a record shape the unlocked reader cannot handle
	// (caller falls back to the locked path). Field names and values
	// passed to consume are views into NVMM, valid only during the call.
	ReadView(key string, hint uint32, gen *atomic.Uint64, g1 uint64,
		consume func(name string, value []byte)) (found, valid, ok bool)
}

// fieldView is one collected field. value is a view into NVMM, immutable
// under the EBR pin; an inline value is overwritten in place by the next
// update, so it is copied out of its table word into inl instead.
type fieldView struct {
	name  string
	value []byte
	inl   [maxInline]byte
	n     int // inline length, -1 when value holds the field
}

func (f *fieldView) bytes() []byte {
	if f.n < 0 {
		return f.value
	}
	return f.inl[:f.n]
}

// viewScratchPool recycles the per-read field-view buffers so the hot
// read loop stays allocation-free.
var viewScratchPool = sync.Pool{
	New: func() any {
		s := make([]fieldView, 0, 16)
		return &s
	},
}

// tableBase returns the pool address of the record table at ref and its
// field count when the table is one block whose words the unlocked paths
// can load atomically at base+offset; ok is false for a chained record, a
// misaligned or overfull table or a foreign object.
func tableBase(h *core.Heap, ref core.Ref) (base uint64, n int, ok bool) {
	mem := h.Mem()
	if !mem.IsBlockRef(ref) {
		return 0, 0, false // records are block objects; anything else is foreign
	}
	base = ref + heap.HeaderSize
	if base%8 != 0 {
		return 0, 0, false // field words would not be atomically loadable
	}
	if _, valid, next := heap.UnpackHeader(mem.Header(ref)); !valid || next != 0 {
		return 0, 0, false
	}
	n = tableCount(h.Pool().ReadUint64Atomic(base + recCount))
	if recordSize(n) > heap.Payload {
		return 0, 0, false // count claims more fields than one block holds
	}
	return base, n, true
}

// appendRecordViews collects the record's fields into out. It mirrors
// pRecord.read but is race-tolerant: the caller holds an EBR pin (memory
// stability) rather than the stripe lock (quiescence), so every table
// word is loaded atomically, an inline value is copied, and anything the
// unlocked reader cannot prove safe — a chained record or blob, an id the
// dictionary does not know — returns ok=false for the locked path to
// handle.
func appendRecordViews(d *nameDict, ref core.Ref, out []fieldView) ([]fieldView, bool) {
	base, n, ok := tableBase(d.h, ref)
	if !ok {
		return out, false
	}
	pool := d.h.Pool()
	for i := 0; i < n; i++ {
		nw := pool.ReadUint64Atomic(base + fieldNameOff(i))
		vw := pool.ReadUint64Atomic(base + fieldValOff(i))
		fv := fieldView{n: -1}
		if nw&nameInterned != 0 {
			if fv.name, ok = d.name(wordID(nw)); !ok {
				return out, false
			}
		} else {
			if nw == 0 {
				continue // recovery-nullified name; the rest stays readable
			}
			nb, ok := pdt.BlobView(d.h, nw)
			if !ok {
				return out, false
			}
			fv.name = viewString(nb)
		}
		if ln, inline := inlineLen(nw); inline {
			if ln > maxInline {
				return out, false
			}
			fv.n = ln
			binary.LittleEndian.PutUint64(fv.inl[:], vw)
		} else {
			if vw == 0 {
				continue // recovery-nullified value
			}
			if fv.value, ok = pdt.BlobView(d.h, vw); !ok {
				return out, false
			}
		}
		out = append(out, fv)
	}
	return out, true
}

// viewString reinterprets a collected name view as a string without
// copying. The string aliases NVMM and is valid only while the EBR pin
// holds, i.e. for the duration of the consume call.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// EnableViewReads implements ViewReader.
func (b *JPDTBackend) EnableViewReads(rs *obs.ReadStats) {
	b.h.Mem().EnableEBR()
	b.m.SetReadObs(rs)
}

// ReadView implements ViewReader.
func (b *JPDTBackend) ReadView(key string, hint uint32, gen *atomic.Uint64, g1 uint64,
	consume func(name string, value []byte)) (found, valid, ok bool) {
	mem := b.h.Mem()
	slot := mem.PinReader(hint)
	ref := b.m.GetRef(key)
	if ref == 0 {
		// Absent — still validate: a concurrent insert may have landed
		// between the caller's generation load and the map lookup.
		mem.UnpinReader(slot)
		return false, gen.Load() == g1, true
	}
	sp := viewScratchPool.Get().(*[]fieldView)
	fields, rok := appendRecordViews(b.names, ref, (*sp)[:0])
	*sp = fields[:0]
	if !rok {
		mem.UnpinReader(slot)
		viewScratchPool.Put(sp)
		return true, true, false
	}
	if gen.Load() != g1 {
		mem.UnpinReader(slot)
		viewScratchPool.Put(sp)
		return true, false, true
	}
	// The snapshot is write-free and, under the pin, every view is
	// immutable: deliver.
	for i := range fields {
		consume(fields[i].name, fields[i].bytes())
	}
	mem.UnpinReader(slot)
	viewScratchPool.Put(sp)
	return true, true, true
}
