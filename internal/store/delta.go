package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/pdt"
)

// DeltaAdder is an optional backend capability: fold a signed delta into
// an 8-byte little-endian counter field without rewriting the value
// object per op. A capable backend may defer durability to the async
// epoch pipeline (fa's delta ledger, DESIGN.md §17).
type DeltaAdder interface {
	AddDelta(key, field string, delta int64) (bool, error)
}

// AddDelta adds delta to the named 8-byte counter field under the key's
// stripe lock. With a capable backend in async commit mode the op folds
// into the delta ledger — one redo-log write and one line flush per hot
// key per drained epoch, however many increments landed on it. Other
// backends (and per-Tx mode) fall back to a read-modify-write of the
// single field.
func (g *Grid) AddDelta(key, field string, delta int64) error {
	defer g.stats.RMW.ObserveSince(obs.Now())
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	if da := g.caps.Delta; da != nil {
		return found(da.AddDelta(key, field, delta))
	}
	var cur []byte
	ok, err := g.backend.Read(key, func(name string, value []byte) {
		if name == field {
			cur = append([]byte(nil), value...)
		}
	})
	if err := found(ok, err); err != nil {
		return err
	}
	if cur == nil {
		return fmt.Errorf("store: record %q has no field %q", key, field)
	}
	if len(cur) != counterLen {
		return fmt.Errorf("store: field %q of %q is %d bytes, not an 8-byte counter", field, key, len(cur))
	}
	binary.LittleEndian.PutUint64(cur, uint64(int64(binary.LittleEndian.Uint64(cur))+delta))
	return found(g.backend.Update(key, []Field{{Name: field, Value: cur}}))
}

// AddDelta implements DeltaAdder. A counter is a full inline value: the
// value word of its field, in the record's own block. In async commit
// mode the hot path hands the delta to the manager's ledger keyed by
// that block and the word's offset in it; every other case — the
// per-Tx mode, a value that is not an inline 8-byte word — is a
// read-modify-write of the field inside a failure-atomic block.
func (b *JPFABackend) AddDelta(key, field string, delta int64) (bool, error) {
	// Commits only: the ledger entry this op is about to fold into stays.
	r, ok, err := b.get(key, false, new(core.Object))
	if !ok {
		return false, err
	}
	i := r.fieldIndex(b.names, field)
	if i < 0 {
		return false, fmt.Errorf("store: record %q has no field %q", key, field)
	}
	async := b.mgr.CommitMode() == fa.CommitAsync
	if n, inline := inlineLen(r.ReadRefAtomic(fieldNameOff(i))); async && inline && n == counterLen {
		off := fieldValOff(i)
		blk := r.BlockRefs()[off/heap.Payload]
		_, err := b.mgr.AddDelta(blk, heap.HeaderSize+off%heap.Payload, delta)
		return err == nil, err
	}
	err = b.mgr.Run(func(tx *fa.Tx) error {
		nw, err := tx.ReadUint64(r.Object, fieldNameOff(i))
		if err != nil {
			return err
		}
		vw, err := tx.ReadUint64(r.Object, fieldValOff(i))
		if err != nil {
			return err
		}
		// The counter is the value word itself, or — under a per-record
		// name, the dictionary being full — a referenced 8-byte value.
		var cur []byte
		if n, inline := inlineLen(nw); inline && n > maxInline {
			return errInlineLen(key, field, n)
		} else if inline {
			cur = binary.LittleEndian.AppendUint64(nil, vw)[:n]
		} else if vw != 0 {
			cur = pdt.ReadBlob(b.h, vw)
		}
		if len(cur) != counterLen {
			return fmt.Errorf("store: field %q of %q is %d bytes, not an 8-byte counter", field, key, len(cur))
		}
		binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+uint64(delta))
		return b.setFieldTx(tx, &r, i, cur)
	})
	return err == nil, err
}
