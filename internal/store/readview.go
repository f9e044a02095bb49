package store

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
)

// ViewReader is the optional backend capability behind the grid's
// zero-copy read fast path (DESIGN.md §14). A capable backend serves a
// read without taking the grid's stripe lock: it pins an epoch-based-
// reclamation reader slot (so no object it dereferences is recycled
// mid-read), collects every field as a view straight into NVMM, and only
// delivers the views to the consumer after the grid's seqlock generation
// check proves no writer overlapped the collection. Both J-NVM backends
// implement it with one reader (readView).
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
	// A sampled read times its stages into the ReadStats of
	// EnableViewReads.
	ReadView(key string, hint uint32, gen *atomic.Uint64, g1 uint64, sampled bool,
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

// tableHeader reports whether ref is a valid block object of class cls,
// the record class, and whether it spans more than one block.
func tableHeader(mem *heap.Heap, cls uint16, ref core.Ref) (chained, ok bool) {
	if !mem.IsBlockRef(ref) {
		return false, false // records are block objects; anything else is foreign
	}
	c, valid, next := heap.UnpackHeader(mem.HeaderAtomic(ref))
	return next != 0, valid && c == cls
}

// tableBase returns the pool address of the record table at ref and its
// field count when the table is one block whose words the unlocked reader
// can load atomically at base+offset; ok is false for a chained record, a
// misaligned or overfull table or a foreign object.
func (rm *recordMap) tableBase(ref core.Ref) (base uint64, n int, ok bool) {
	if chained, ok := tableHeader(rm.h.Mem(), rm.cls, ref); !ok || chained {
		return 0, 0, false
	}
	base = ref + heap.HeaderSize
	if base%8 != 0 {
		return 0, 0, false // field words would not be atomically loadable
	}
	n = tableCount(rm.h.Pool().ReadUint64Atomic(base + recCount))
	if recordSize(n) > heap.Payload {
		return 0, 0, false // count claims more fields than one block holds
	}
	return base, n, true
}

// touchValues loads every field's value word and, for a referenced value,
// the length word both value layouts keep 8 bytes in (after a pooled
// slot's mini-header or a block's header). The loads are independent, so
// their cache misses overlap instead of queueing one per field behind the
// walk's checks; the walk then finds the lines resident. A word past the
// pool's end is left to the walk's checks. The sum is returned so the
// loads are not dead code, and noinline keeps the caller from discarding it.
//
//go:noinline
func touchValues(pool *nvm.Pool, base uint64, n int) uint32 {
	var sum uint32
	size := pool.Size()
	for i := 0; i < n; i++ {
		nw := pool.ReadUint64Atomic(base + fieldNameOff(i))
		vw := pool.ReadUint64Atomic(base + fieldValOff(i))
		if wordRep(nw) == repRef && vw != 0 && vw <= size-12 {
			sum += pool.ReadUint32(vw + 8)
		}
	}
	return sum
}

// appendRecordViews collects the fields of the record table at base, n
// fields wide (tableBase), into out. It mirrors pRecord.read but is
// race-tolerant: the caller holds an EBR pin (memory stability) rather
// than the stripe lock (quiescence), so every table word is loaded
// atomically, an inline value is copied, and anything the unlocked reader
// cannot prove safe — a chained blob, an id the dictionary does not
// know — returns ok=false for the locked path to handle. The caller runs
// the touch pass (touchValues) first.
func (rm *recordMap) appendRecordViews(base uint64, n int, out []fieldView) ([]fieldView, bool) {
	d, pool := rm.names, rm.h.Pool()
	var ok bool
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

// EnableViewReads implements ViewReader for both J-NVM backends.
func (rm *recordMap) EnableViewReads(rs *obs.ReadStats) {
	rm.h.Mem().EnableEBR()
	rm.m.SetReadObs(rs)
	rm.rs = rs
}

// ReadView implements ViewReader.
func (b *JPDTBackend) ReadView(key string, hint uint32, gen *atomic.Uint64, g1 uint64, sampled bool,
	consume func(name string, value []byte)) (found, valid, ok bool) {
	return b.readView(nil, key, hint, gen, g1, sampled, consume)
}

// ReadView implements ViewReader.
func (b *JPFABackend) ReadView(key string, hint uint32, gen *atomic.Uint64, g1 uint64, sampled bool,
	consume func(name string, value []byte)) (found, valid, ok bool) {
	return b.readView(b.mgr, key, hint, gen, g1, sampled, consume)
}

// readView is the one ViewReader of the J-NVM backends: pin, resolve the
// key, collect the field views, check the generation, deliver. mgr is the
// J-PFA backend's manager (nil for J-PDT). In async commit mode an
// acknowledged write may still sit in the epoch queue, so two things
// differ there:
//
//   - a miss is not trusted: a queued insert's binding has no value word
//     until its epoch drains, so ok=false hands the read to the locked
//     path, whose drain-and-retry finds it;
//   - the record's table block is settled before its views are collected,
//     so every commit and ledger delta acknowledged before g1 has landed
//     in it. A write acknowledged after g1 changed the generation.
//
// In per-Tx mode the settle is one atomic load. A sampled read times
// each of its four stages it completes (obs.ReadStats).
func (rm *recordMap) readView(mgr *fa.Manager, key string, hint uint32,
	gen *atomic.Uint64, g1 uint64, sampled bool, consume func(name string, value []byte)) (found, valid, ok bool) {
	mem := rm.h.Mem()
	lap := obs.StartLap(sampled)
	slot := mem.PinReader(hint)
	if slot < 0 {
		// Every reader slot is pinned: an unpinned read could dereference
		// a recycled block, so leave this one to the locked path.
		return false, true, false
	}
	ref := rm.m.GetRef(key)
	if ref == 0 {
		mem.UnpinReader(slot)
		if mgr != nil && mgr.CommitMode() == fa.CommitAsync {
			return false, true, false
		}
		// Absent — still validate: a concurrent insert may have landed
		// between the caller's generation load and the map lookup.
		return false, gen.Load() == g1, true
	}
	lap.Lap(&rm.rs.GetRefNs)
	if mgr != nil {
		mgr.Settle(ref)
	}
	base, n, rok := rm.tableBase(ref)
	if rok {
		touchValues(rm.h.Pool(), base, n)
	}
	lap.Lap(&rm.rs.TouchNs)
	sp := viewScratchPool.Get().(*[]fieldView)
	fields := (*sp)[:0]
	if rok {
		fields, rok = rm.appendRecordViews(base, n, fields)
	}
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
	lap.Lap(&rm.rs.CollectNs)
	// The snapshot is write-free and, under the pin, every view is
	// immutable: deliver.
	for i := range fields {
		consume(fields[i].name, fields[i].bytes())
	}
	mem.UnpinReader(slot)
	viewScratchPool.Put(sp)
	lap.Lap(&rm.rs.DeliverNs)
	return true, true, true
}
