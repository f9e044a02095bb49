package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/pdt"
)

// ClassRecord is the persistent record class of the J-NVM backends: one
// table per record, and nothing else for a record of small values
// (DESIGN.md §3.1). A field update is one new immutable value plus one
// atomic reference swing (§4.1.6), or one 8-byte store when the value
// lives in the table — never a whole-record rewrite, never marshalling.
//
// Layout: nfields (4) | pad (4) | per field: name word (8) | value word (8).
//
// The name word says how to read both words:
//
//	bit 63 set   the name is interned: bits 0-31 are its id in the
//	             backend's name dictionary (namedict.go); bits 32-39 are
//	             the value's representation, 0 = the value word is a
//	             reference to a pdt.PBytes, 1+n = the value word holds the
//	             value itself, n <= 8 bytes, little-endian from byte 0
//	bit 63 clear the word is a reference to the record's own pdt.PString
//	             (the dictionary was full) and the value word a reference
//
// so a zero value word under an inline representation is the value 0, and
// only a zero *reference* is a field the recovery GC nullified. A value of
// at most 8 bytes under an interned name is always inline, any other value
// always a reference: the representation follows from the field.
//
// The "/2" is the layout version. Only heaps of an earlier format version
// hold the first layout ("store.record", a PString reference in every name
// word), and heap.Open refuses those before anything reads a record.
const ClassRecord = "store.record/2"

type pRecord struct{ *core.Object }

const (
	recCount  = 0
	recFields = 8

	nameInterned = 1 << 63
	repShift     = 32
	repRef       = 0 // value word is a reference
	repInline    = 1 // + length: value word is the value

	// maxInline is the longest value a value word holds.
	maxInline = 8
	// counterLen is the length of a foldable counter field: one 8-byte
	// little-endian signed word, which is exactly a full inline value.
	counterLen = 8
)

func fieldNameOff(i int) uint64 { return recFields + uint64(i)*16 }
func fieldValOff(i int) uint64  { return recFields + uint64(i)*16 + 8 }

func recordSize(nfields int) uint64 { return recFields + uint64(nfields)*16 }

// internedWord builds the name word of an interned name whose value has
// representation rep.
func internedWord(id uint32, rep uint64) uint64 { return nameInterned | rep<<repShift | uint64(id) }

func wordID(nw uint64) uint32 { return uint32(nw) }

// wordRep returns the value representation a name word declares; a
// per-record name always goes with a reference.
func wordRep(nw uint64) uint64 {
	if nw&nameInterned == 0 {
		return repRef
	}
	return nw >> repShift & 0xff
}

// inlineLen reports whether the value word under nw is the value itself,
// and its length.
func inlineLen(nw uint64) (int, bool) {
	rep := wordRep(nw)
	return int(rep) - repInline, rep != repRef
}

// errInlineLen reports a name word that declares an inline value longer
// than its value word: a corrupt record.
func errInlineLen(key, field string, n int) error {
	return fmt.Errorf("store: record %q field %q: inline value of %d bytes exceeds its %d-byte word", key, field, n, maxInline)
}

func packInline(v []byte) uint64 {
	var buf [maxInline]byte
	copy(buf[:], v)
	return binary.LittleEndian.Uint64(buf[:])
}

// recordRefs lists the offsets of the words of a record's table that hold
// references: what the recovery GC follows and what Delete frees.
func recordRefs(o *core.Object) []uint64 {
	n := int(o.ReadUint32(recCount))
	offs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		nw := o.ReadUint64(fieldNameOff(i))
		if nw&nameInterned == 0 {
			offs = append(offs, fieldNameOff(i), fieldValOff(i))
		} else if wordRep(nw) == repRef {
			offs = append(offs, fieldValOff(i))
		}
	}
	return offs
}

// Classes returns the store's persistent class descriptors; register them
// together with pdt.Classes().
func Classes() []*core.Class {
	return []*core.Class{
		{
			Name:    ClassRecord,
			Factory: func(o *core.Object) core.PObject { return &pRecord{Object: o} },
			Refs:    recordRefs,
		},
	}
}

// fieldCount and fieldIndex load atomically, as every reader that can
// overlap a drain does: the ADDDELTA path looks a field up while an epoch
// drain on another goroutine may be applying an earlier fold to the same
// block (a word entry storing the counter word, DESIGN.md §17).
func (r *pRecord) fieldCount() int { return tableCount(r.ReadRefAtomic(recCount)) }

// tableCount extracts the field count from the first word of a table.
func tableCount(word uint64) int { return int(uint32(word)) }

// fieldIndex locates a field by name without allocating (hot path of
// every field update): an interned name is one dictionary lookup and a
// scan of ids, and only a name the dictionary had no room for is compared
// in NVMM. The name part of a name word never changes in place, so the
// index holds for as long as the caller keeps the table alive.
func (r *pRecord) fieldIndex(d *nameDict, name string) int {
	id, interned := d.lookup(name)
	n := r.fieldCount()
	for i := 0; i < n; i++ {
		nw := r.ReadRefAtomic(fieldNameOff(i))
		switch {
		case nw&nameInterned != 0:
			if interned && wordID(nw) == id {
				return i
			}
		case nw != 0 && !interned && pdt.BlobEquals(d.h, nw, name):
			return i
		}
	}
	return -1
}

// recordAlloc is one publication discipline for the objects of a record:
// how its table and the objects its words reference are allocated.
type recordAlloc struct {
	table func(size uint64) (core.PObject, error)
	name  func(s string) (core.Ref, error)
	value func(b []byte) (core.Ref, error)
	// seal runs on the filled table.
	seal func(r *pRecord)
}

// plainObjects is J-PDT's discipline: every referenced object is
// flushed and validated, the table flushed and left invalid, and nothing
// is fenced — the map's Put validates the table and publishes the whole
// graph under its single fence.
func plainObjects(h *core.Heap) recordAlloc {
	valid := func(po core.PObject, err error) (core.Ref, error) {
		if err != nil {
			return 0, err
		}
		po.Core().Validate()
		return po.Core().Ref(), nil
	}
	return recordAlloc{
		table: func(size uint64) (core.PObject, error) { return h.Alloc(mustClass(h, ClassRecord), size) },
		name:  func(s string) (core.Ref, error) { return valid(pdt.NewString(h, s)) },
		value: func(b []byte) (core.Ref, error) { return valid(pdt.NewBytes(h, b)) },
		seal:  func(r *pRecord) { r.PWB() },
	}
}

// txObjects is the failure-atomic discipline: everything is allocated in
// the block and validated only at commit.
func txObjects(tx *fa.Tx) recordAlloc {
	h := tx.Heap()
	return recordAlloc{
		table: func(size uint64) (core.PObject, error) { return tx.Alloc(mustClass(h, ClassRecord), size) },
		name:  func(s string) (core.Ref, error) { return pdt.NewStringRefTx(tx, s) },
		value: func(b []byte) (core.Ref, error) { return pdt.NewBytesRefTx(tx, b) },
		seal:  func(*pRecord) {},
	}
}

// inlineValue returns the representation and the value word of a value
// the table holds itself: at most maxInline bytes under an interned name.
// Any other value is an object of the caller's discipline under repRef.
func inlineValue(interned bool, value []byte) (rep, vw uint64, ok bool) {
	if !interned || len(value) > maxInline {
		return repRef, 0, false
	}
	return repInline + uint64(len(value)), packInline(value), true
}

// encodeValue is inlineValue with the fallback: a value the word cannot
// hold is allocated through a.
func encodeValue(interned bool, value []byte, a recordAlloc) (rep, vw uint64, err error) {
	rep, vw, ok := inlineValue(interned, value)
	if !ok {
		vw, err = a.value(value)
	}
	return rep, vw, err
}

// newRecord builds the table of fields through a. A first use of a name
// fences inside intern; whatever this record has allocated by then is
// unreachable, which a crash there leaves for the recovery GC.
func newRecord(d *nameDict, a recordAlloc, fields []Field) (*pRecord, error) {
	po, err := a.table(recordSize(len(fields)))
	if err != nil {
		return nil, err
	}
	r := po.(*pRecord)
	r.WriteUint32(recCount, uint32(len(fields)))
	for i, f := range fields {
		id, interned, err := d.intern(f.Name)
		if err != nil {
			return nil, err
		}
		rep, vw, err := encodeValue(interned, f.Value, a)
		if err != nil {
			return nil, err
		}
		nw := internedWord(id, rep)
		if !interned {
			if nw, err = a.name(f.Name); err != nil {
				return nil, err
			}
		}
		r.WriteUint64(fieldNameOff(i), nw)
		r.WriteUint64(fieldValOff(i), vw)
	}
	a.seal(r)
	return r, nil
}

// rewrite builds a copy of r with fields applied, for the updates that
// change a field's representation where the table cannot change in place
// (J-PDT: the two words of a field are not one atomic store). The copy
// shares every object r references except the values it replaces, which
// are returned for the caller to free once the copy is published in r's
// place.
func (r *pRecord) rewrite(d *nameDict, a recordAlloc, key string, fields []Field) (*pRecord, []core.Ref, error) {
	for _, f := range fields { // before anything is allocated
		if r.fieldIndex(d, f.Name) < 0 {
			return nil, nil, fmt.Errorf("store: record %q has no field %q", key, f.Name)
		}
	}
	n := r.fieldCount()
	po, err := a.table(recordSize(n))
	if err != nil {
		return nil, nil, err
	}
	nr := po.(*pRecord)
	nr.WriteUint32(recCount, uint32(n))
	for i := 0; i < n; i++ {
		nr.WriteUint64(fieldNameOff(i), r.ReadUint64(fieldNameOff(i)))
		nr.WriteUint64(fieldValOff(i), r.ReadRefAtomic(fieldValOff(i)))
	}
	var old []core.Ref
	for _, f := range fields {
		i := nr.fieldIndex(d, f.Name)
		nw := nr.ReadUint64(fieldNameOff(i))
		rep, vw, err := encodeValue(nw&nameInterned != 0, f.Value, a)
		if err != nil {
			return nil, nil, err
		}
		if prev := nr.ReadUint64(fieldValOff(i)); wordRep(nw) == repRef && prev != 0 {
			old = append(old, prev)
		}
		if nw&nameInterned != 0 {
			nr.WriteUint64(fieldNameOff(i), internedWord(wordID(nw), rep))
		}
		nr.WriteUint64(fieldValOff(i), vw)
	}
	a.seal(nr)
	return nr, old, nil
}

// wordAddr is the pool address of the table word at data offset off.
func (r *pRecord) wordAddr(off uint64) uint64 {
	return r.BlockRefs()[off/heap.Payload] + heap.HeaderSize + off%heap.Payload
}

// read streams every field to consume without any marshalling step (the
// decisive J-NVM advantage of Figure 8). Values and per-record names are
// zero-copy views into NVMM — an inline value a view of its table word —
// valid only during the consume call: the grid invokes this under the
// key's stripe lock, so nothing can be freed or overwritten concurrently,
// and consumers that retain a field must copy it. A name word that
// declares an inline value longer than its value word is an error naming
// key and field; the fields before it have been streamed.
func (r *pRecord) read(d *nameDict, key string, consume func(name string, value []byte)) error {
	h := d.h
	n := r.fieldCount()
	for i := 0; i < n; i++ {
		nw := r.ReadUint64(fieldNameOff(i))
		name, ok := fieldName(d, nw)
		if !ok {
			continue
		}
		if ln, inline := inlineLen(nw); inline {
			if ln > maxInline {
				return errInlineLen(key, name, ln)
			}
			consume(name, h.Pool().View(r.wordAddr(fieldValOff(i)), uint64(ln)))
		} else if vref := r.ReadRef(fieldValOff(i)); vref != 0 {
			consume(name, pdt.ReadBlobView(h, vref))
		}
		// A zero reference, name or value, is a field the recovery GC
		// nullified: torn by a crash that raced the record's publication.
		// The rest of the record is intact and stays readable.
	}
	return nil
}

// fieldName resolves a name word; a per-record name is a view into NVMM.
// ok is false for a nullified per-record name.
func fieldName(d *nameDict, nw uint64) (string, bool) {
	if nw&nameInterned != 0 {
		return d.name(wordID(nw))
	}
	if nw == 0 {
		return "", false
	}
	return viewString(pdt.ReadBlobView(d.h, nw)), true
}

// freeChildren frees every object the record's table references (the
// record itself and the map bookkeeping are freed by the caller; names in
// the dictionary belong to the backend). No fence: the caller unlinked
// the record under a fence already (§4.1.5).
func (r *pRecord) freeChildren(h *core.Heap) {
	for _, off := range recordRefs(r.Object) {
		h.Mem().FreeObject(r.ReadRef(off))
	}
}

func mustClass(h *core.Heap, name string) *core.Class {
	c, ok := h.Class(name)
	if !ok {
		panic("store: class " + name + " not registered; pass store.Classes() to core.Open")
	}
	return c
}
