package fa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
)

// Transactional field accessors. Inside a failure-atomic block the
// generated accessors of Figure 4 behave differently (§3.2): writes to
// valid objects go to the redo log — an aligned 8-byte store as a word
// entry carrying the value, any other store into an in-flight copy of the
// block — and reads see the logged words and the in-flight image. Go has
// no per-thread counter to dispatch on, so the redirected accessors live
// on the Tx (see DESIGN.md §4); they mirror core.Object's accessor set.

// locate maps an access of n bytes at (object, off) to the pool offset it
// goes to. Objects not yet valid are accessed in place. In a valid block
// without an in-flight copy:
//
//   - an aligned 8-byte store goes to the value field of the word's log
//     entry, appended on the word's first store (logWord);
//   - an aligned 8-byte load of a logged word reads that field;
//   - any other store, a third distinct word (wordsPerBlock) and a load
//     that overlaps a logged word without being one go to the block's
//     in-flight copy, which promotes the block (inflightFor);
//   - any other load reads the original.
//
// Once the block has a copy, every access goes to the copy.
func (tx *Tx) locate(o *core.Object, off uint64, n uint64, forWrite bool) (uint64, error) {
	tx.active()
	if off+n > o.Size() {
		panic(fmt.Sprintf("fa: access [%d,+%d) beyond object size %d", off, n, o.Size()))
	}
	blocks := o.BlockRefs()
	if blocks == nil {
		// Pooled slots hold immutable objects (§4.4); only direct writes
		// to a not-yet-valid slot are legal.
		if forWrite && !tx.direct(o) {
			return 0, fmt.Errorf("fa: cannot update immutable pooled object %#x inside a failure-atomic block", o.Ref())
		}
		return o.Ref() + 8 + off, nil
	}
	within := off % heap.Payload
	if within+n > heap.Payload {
		return 0, errSpan // caller falls back to the byte loop
	}
	orig := blocks[off/heap.Payload]
	p := orig + heap.HeaderSize + within
	if tx.direct(o) {
		return p, nil
	}
	word := n == 8 && p%8 == 0
	i, held := tx.inflight[orig]
	var err error
	switch {
	case !held:
		if tx.grp != nil {
			// Async mode: a queued epoch may still hold this block's new
			// image; reading the original now, or basing a store on it,
			// could observe (and act on) pre-apply state — e.g. free an
			// old value ref the drain also frees. Drain first.
			tx.grp.waitClear(orig)
		}
		if !forWrite {
			return p, nil
		}
		if word {
			q, err := tx.logWord(orig, p)
			if err == nil {
				tx.inflight[orig] = wordBlock
			}
			return q, err
		}
		i, err = tx.inflightFor(orig)
	case i == wordBlock:
		if q, ok, err := tx.wordAccess(orig, p, n, forWrite, word); ok || err != nil {
			return q, err
		}
		i, err = tx.inflightFor(orig)
	}
	if err != nil {
		return 0, err
	}
	w := &tx.writes[i]
	q := w.inf + (p - orig)
	if forWrite {
		w.mask |= lineMask(p-orig, n)
		// Mark the store's lines for the commit write-back; the flush set
		// dedupes repeated stores to the same line (and counts the saves).
		tx.flush.AddRange(q, n)
	}
	return q, nil
}

// wordAccess serves an access to block orig, all of whose stores so far
// are word entries, from those entries and the original. ok is false when
// the block must be promoted first: a store that is not a word, a third
// distinct word, or a load that overlaps a logged word without being one.
func (tx *Tx) wordAccess(orig core.Ref, p, n uint64, forWrite, word bool) (q uint64, ok bool, err error) {
	if forWrite && !word {
		return 0, false, nil
	}
	words := 0
	for _, w := range tx.words {
		if w.orig != orig {
			continue
		}
		if w.p < p+n && p < w.p+8 {
			if !word {
				return 0, false, nil
			}
			return tx.entryOff(w.entry) + 16, true, nil
		}
		words++
	}
	if !forWrite {
		return p, true, nil
	}
	if words >= wordsPerBlock {
		return 0, false, nil
	}
	q, err = tx.logWord(orig, p)
	return q, true, err
}

var errSpan = fmt.Errorf("fa: access spans blocks")

// ReadUint64 loads an 8-byte field through the block's redo view.
func (tx *Tx) ReadUint64(o *core.Object, off uint64) (uint64, error) {
	p, err := tx.locate(o, off, 8, false)
	if err == errSpan {
		var buf [8]byte
		if err := tx.readSpan(o, off, buf[:]); err != nil {
			return 0, err
		}
		v := uint64(0)
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(buf[i])
		}
		return v, nil
	}
	if err != nil {
		return 0, err
	}
	return tx.h.Pool().ReadUint64(p), nil
}

// WriteUint64 stores an 8-byte field through the redo log.
func (tx *Tx) WriteUint64(o *core.Object, off, v uint64) error {
	p, err := tx.locate(o, off, 8, true)
	if err == errSpan {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		return tx.writeSpan(o, off, buf[:])
	}
	if err != nil {
		return err
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
	p, err := tx.locate(o, off, 4, false)
	if err == errSpan {
		var buf [4]byte
		if err := tx.readSpan(o, off, buf[:]); err != nil {
			return 0, err
		}
		return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24, nil
	}
	if err != nil {
		return 0, err
	}
	return tx.h.Pool().ReadUint32(p), nil
}

// WriteUint32 stores a 4-byte field.
func (tx *Tx) WriteUint32(o *core.Object, off uint64, v uint32) error {
	p, err := tx.locate(o, off, 4, true)
	if err == errSpan {
		var buf [4]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		return tx.writeSpan(o, off, buf[:])
	}
	if err != nil {
		return err
	}
	tx.h.Pool().WriteUint32(p, v)
	return nil
}

func (tx *Tx) readSpan(o *core.Object, off uint64, dst []byte) error {
	for len(dst) > 0 {
		within := heap.Payload - off%heap.Payload
		n := uint64(len(dst))
		if n > within {
			n = within
		}
		p, err := tx.locate(o, off, n, false)
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
		within := heap.Payload - off%heap.Payload
		n := uint64(len(src))
		if n > within {
			n = within
		}
		p, err := tx.locate(o, off, n, true)
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
