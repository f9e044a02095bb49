package fa

import (
	"encoding/binary"
	"fmt"
	"slices"

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
	if !slices.Contains(tx.written, orig) {
		if tx.grp != nil {
			// Async mode: a queued epoch may still hold this block's new
			// words; reading the original now, or basing a store on it,
			// could observe (and act on) pre-apply state — e.g. free an
			// old value ref the drain also frees. Drain first.
			tx.grp.waitClear(orig)
		}
		if !forWrite {
			return p, n, nil
		}
		tx.written = append(tx.written, orig)
	}
	w, in := p&^7, p%8
	n = min(n, 8-in)
	if e, ok := tx.words[w]; ok {
		return tx.entryOff(e) + 16 + in, n, nil
	}
	if !forWrite {
		return p, n, nil
	}
	q, err := tx.logWord(w)
	if err != nil {
		return 0, 0, err
	}
	if n < 8 {
		// A partial store: the word's other bytes keep their home value.
		pool := tx.h.Pool()
		pool.WriteUint64(q, pool.ReadUint64(w))
	}
	tx.words[w] = tx.count - 1
	return q + in, n, nil
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
