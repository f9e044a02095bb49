package fa

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
)

// Transactional field accessors. Inside a failure-atomic block the
// generated accessors of Figure 4 behave differently (§3.2): a store to a
// valid object goes to the redo log as the aligned 8-byte words it
// touches, one entry each carrying the word's new value, and a load sees
// the logged words. Go has no per-thread counter to dispatch on, so the
// redirected accessors live on the Tx (see DESIGN.md §4); they mirror
// core.Object's accessor set.

// locate maps an access of n bytes at (object, off) to the pool offset it
// goes to and how many of the n bytes that offset covers contiguously;
// the accessors loop (readSpan, writeSpan) when it covers fewer. An access
// never crosses a block's payload. Objects not yet valid are accessed in
// place. In a valid block:
//
//   - a store goes to the value field of the log entry of the word it
//     touches, appended on the word's first store (logWord) and starting
//     from the home word unless the store covers all of it, so it covers
//     at most the rest of that word;
//   - a load of a block the Tx has not stored to reads the original, the
//     rest of the block's payload at once;
//   - a load of a block the Tx has stored to reads one word at a time: a
//     logged word from its entry, any other from the original.
//
// In async mode an access to a word a queued commit holds drains first
// (settleWords, waitWords); other words of the block are current and go
// ahead.
func (tx *Tx) locate(o *core.Object, off, n uint64, forWrite bool) (uint64, uint64, error) {
	tx.active()
	if off+n > o.Size() {
		panic(fmt.Sprintf("fa: access [%d,+%d) beyond object size %d", off, n, o.Size()))
	}
	blocks := o.BlockRefs()
	if blocks == nil {
		// Pooled slots hold immutable objects (§4.4); only direct writes
		// to a not-yet-valid slot are legal.
		if forWrite && !tx.direct(o) {
			return 0, 0, fmt.Errorf("fa: cannot update immutable pooled object %#x inside a failure-atomic block", o.Ref())
		}
		return o.Ref() + 8 + off, n, nil
	}
	within := off % heap.Payload
	n = min(n, heap.Payload-within)
	orig := blocks[off/heap.Payload]
	p := orig + heap.HeaderSize + within
	if tx.direct(o) {
		return p, n, nil
	}
	b := tx.block(orig, forWrite)
	if b == nil {
		if tx.grp != nil {
			tx.grp.waitWords(orig, wordsOf(p-orig, n))
		}
		return p, n, nil
	}
	n = min(n, 8-p%8)
	if tx.grp != nil {
		tx.settleWords(b, wordsOf(p-orig, n))
	}
	w, in := p&^7, p%8
	bit := wordsOf(w-orig, 8)
	if b.logged&bit != 0 {
		q, _ := tx.logged(w)
		return q + in, n, nil
	}
	if !forWrite {
		return p, n, nil
	}
	q, err := tx.logWord(w)
	if err != nil {
		return 0, 0, err
	}
	b.logged |= bit
	if n < 8 {
		// A partial store: the word's other bytes keep their home value.
		pool := tx.h.Pool()
		pool.WriteUint64(q, pool.ReadUint64(w))
	}
	return q + in, n, nil
}

// txBlock is a valid block the Tx has stored to: the words it has logged,
// and in async mode the words the group held at its first store there.
// Bit i of a mask is the block's i-th aligned word, header included.
type txBlock struct {
	orig   core.Ref
	logged uint32
	held   uint32
}

// wordsOf is the mask of the words that bytes [at, at+n) of a block
// touch; n > 0.
func wordsOf(at, n uint64) uint32 {
	lo, hi := at/8, (at+n-1)/8
	return uint32(1)<<(hi+1) - uint32(1)<<lo
}

// block returns tx's entry for orig, adding it on the first store; a
// load of a block the Tx has not stored to gets none (nil) and reads the
// original. In async mode a new entry holds every word, so the first
// store samples the words the group holds in the block (settleWords).
// The application keeps other writers of what the Tx touches out until
// it ends (Tx's contract), so no commit enqueued later holds a word the
// Tx touches, and its later accesses to the block check the sample
// without the group lock.
func (tx *Tx) block(orig core.Ref, forWrite bool) *txBlock {
	for i := range tx.written {
		if tx.written[i].orig == orig {
			return &tx.written[i]
		}
	}
	if !forWrite {
		return nil
	}
	b := txBlock{orig: orig}
	if tx.grp != nil {
		b.held = ^uint32(0)
	}
	tx.written = append(tx.written, b)
	return &tx.written[len(tx.written)-1]
}

// settleWords drains while a queued commit, an epoch in flight or a
// pending delta holds one of the words an access touches: the home word
// is stale until it applies, and basing a store on it could lose the
// queued update (or free an old value ref the drain also frees).
func (tx *Tx) settleWords(b *txBlock, words uint32) {
	if b.held&words != 0 {
		b.held = tx.grp.waitWords(b.orig, words)
	}
}

// logged returns the pool offset of the value of the block's kindWord
// entry for the word at pool offset w, if any: the log, at most a slot's
// entries, is the block's word index (DESIGN.md §11).
func (tx *Tx) logged(w uint64) (uint64, bool) {
	log := tx.h.Pool().View(tx.entryOff(0), tx.count*entrySize)
	for e := len(log) - entrySize; e >= 0; e -= entrySize {
		if binary.LittleEndian.Uint64(log[e+8:]) == w && binary.LittleEndian.Uint64(log[e:])&kindMask == kindWord {
			return tx.entryOff(0) + uint64(e) + 16, true
		}
	}
	return 0, false
}

// ReadUint64 loads an 8-byte field through the redo view.
func (tx *Tx) ReadUint64(o *core.Object, off uint64) (uint64, error) {
	p, n, err := tx.locate(o, off, 8, false)
	if err != nil {
		return 0, err
	}
	if n < 8 {
		var buf [8]byte
		if err := tx.readSpan(o, off, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	return tx.h.Pool().ReadUint64(p), nil
}

// WriteUint64 stores an 8-byte field through the redo log.
func (tx *Tx) WriteUint64(o *core.Object, off, v uint64) error {
	p, n, err := tx.locate(o, off, 8, true)
	if err != nil {
		return err
	}
	if n < 8 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		return tx.writeSpan(o, off, buf[:])
	}
	tx.h.Pool().WriteUint64(p, v)
	return nil
}

// ReadInt64 loads a signed 8-byte field.
func (tx *Tx) ReadInt64(o *core.Object, off uint64) (int64, error) {
	v, err := tx.ReadUint64(o, off)
	return int64(v), err
}

// WriteInt64 stores a signed 8-byte field.
func (tx *Tx) WriteInt64(o *core.Object, off uint64, v int64) error {
	return tx.WriteUint64(o, off, uint64(v))
}

// ReadUint32 loads a 4-byte field.
func (tx *Tx) ReadUint32(o *core.Object, off uint64) (uint32, error) {
	p, n, err := tx.locate(o, off, 4, false)
	if err != nil {
		return 0, err
	}
	if n < 4 {
		var buf [4]byte
		if err := tx.readSpan(o, off, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:]), nil
	}
	return tx.h.Pool().ReadUint32(p), nil
}

// WriteUint32 stores a 4-byte field.
func (tx *Tx) WriteUint32(o *core.Object, off uint64, v uint32) error {
	p, n, err := tx.locate(o, off, 4, true)
	if err != nil {
		return err
	}
	if n < 4 {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		return tx.writeSpan(o, off, buf[:])
	}
	tx.h.Pool().WriteUint32(p, v)
	return nil
}

func (tx *Tx) readSpan(o *core.Object, off uint64, dst []byte) error {
	for len(dst) > 0 {
		p, n, err := tx.locate(o, off, uint64(len(dst)), false)
		if err != nil {
			return err
		}
		tx.h.Pool().ReadInto(p, dst[:n])
		dst = dst[n:]
		off += n
	}
	return nil
}

func (tx *Tx) writeSpan(o *core.Object, off uint64, src []byte) error {
	for len(src) > 0 {
		p, n, err := tx.locate(o, off, uint64(len(src)), true)
		if err != nil {
			return err
		}
		tx.h.Pool().WriteBytes(p, src[:n])
		src = src[n:]
		off += n
	}
	return nil
}

// ReadBytes copies n bytes through the redo view.
func (tx *Tx) ReadBytes(o *core.Object, off, n uint64) ([]byte, error) {
	out := make([]byte, n)
	if err := tx.readSpan(o, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBytes stores src through the redo log.
func (tx *Tx) WriteBytes(o *core.Object, off uint64, src []byte) error {
	return tx.writeSpan(o, off, src)
}

// ReadRef loads a reference field through the redo view.
func (tx *Tx) ReadRef(o *core.Object, off uint64) (core.Ref, error) {
	return tx.ReadUint64(o, off)
}

// WriteRef stores a reference field through the redo log.
func (tx *Tx) WriteRef(o *core.Object, off uint64, r core.Ref) error {
	return tx.WriteUint64(o, off, r)
}

// WriteObject stores a reference to po (nil clears the field).
func (tx *Tx) WriteObject(o *core.Object, off uint64, po core.PObject) error {
	if po == nil {
		return tx.WriteRef(o, off, 0)
	}
	return tx.WriteRef(o, off, po.Core().Ref())
}

// ReadObject dereferences the reference field at off through the redo
// view, resurrecting a proxy for the target.
func (tx *Tx) ReadObject(o *core.Object, off uint64) (core.PObject, error) {
	r, err := tx.ReadRef(o, off)
	if err != nil || r == 0 {
		return nil, err
	}
	if po, ok := tx.proxies[r]; ok {
		return po, nil
	}
	return tx.h.Resurrect(r)
}

// ReadUint16 loads a 2-byte field through the redo view.
func (tx *Tx) ReadUint16(o *core.Object, off uint64) (uint16, error) {
	var buf [2]byte
	if err := tx.readSpan(o, off, buf[:]); err != nil {
		return 0, err
	}
	return uint16(buf[0]) | uint16(buf[1])<<8, nil
}

// WriteUint16 stores a 2-byte field through the redo log.
func (tx *Tx) WriteUint16(o *core.Object, off uint64, v uint16) error {
	return tx.writeSpan(o, off, []byte{byte(v), byte(v >> 8)})
}

// ReadUint8 loads a 1-byte field through the redo view.
func (tx *Tx) ReadUint8(o *core.Object, off uint64) (byte, error) {
	var buf [1]byte
	if err := tx.readSpan(o, off, buf[:]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// WriteUint8 stores a 1-byte field through the redo log.
func (tx *Tx) WriteUint8(o *core.Object, off uint64, v byte) error {
	return tx.writeSpan(o, off, []byte{v})
}
