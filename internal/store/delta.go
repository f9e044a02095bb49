package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/pdt"
)

// counterLen is the stored payload length of a foldable counter field:
// one 8-byte little-endian signed word.
const counterLen = 8

// DeltaAdder is an optional backend capability: fold a signed delta into
// an 8-byte little-endian counter field without rewriting the value
// object per op. A capable backend may defer durability to the async
// epoch pipeline (fa's delta ledger, DESIGN.md §19); the grid treats a
// successful call like an update whose new value it does not know — the
// cached record is dropped, not patched.
type DeltaAdder interface {
	AddDelta(key, field string, delta int64) (bool, error)
}

// AddDelta adds delta to the named 8-byte counter field under the key's
// stripe lock. With a capable backend in async commit mode the op folds
// into the delta ledger — one redo-log write and one line flush per hot
// key per drained epoch, however many increments landed on it. Other
// backends (and the synchronous modes) fall back to a read-modify-write
// of the single field.
func (g *Grid) AddDelta(key, field string, delta int64) error {
	start := time.Now()
	defer func() { g.stats.RMW.Observe(time.Since(start)) }()
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	if da := g.caps.Delta; da != nil {
		found, err := da.AddDelta(key, field, delta)
		// The fold mutates the value in place behind the grid's back;
		// never serve a cached pre-fold record.
		g.cacheDrop(h, key)
		if err != nil {
			return err
		}
		if !found {
			return ErrNotFound
		}
		return nil
	}
	var cur []byte
	found, err := g.backend.Read(key, func(name string, value []byte) {
		if name == field {
			cur = append([]byte(nil), value...)
		}
	})
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	if cur == nil {
		return fmt.Errorf("store: record %q has no field %q", key, field)
	}
	if len(cur) != counterLen {
		return fmt.Errorf("store: field %q of %q is %d bytes, not an 8-byte counter", field, key, len(cur))
	}
	binary.LittleEndian.PutUint64(cur, uint64(int64(binary.LittleEndian.Uint64(cur))+delta))
	fields := []Field{{Name: field, Value: cur}}
	ok, err := g.backend.Update(key, fields)
	if err != nil {
		g.cacheDrop(h, key)
		return err
	}
	if !ok {
		return ErrNotFound
	}
	g.cachePatch(h, key, fields)
	return nil
}

// counterBlock reports whether the value object at vref is a foldable
// counter: a mutable single-block blob whose stored length is exactly
// counterLen. Pooled slots are immutable and chained blobs span lines,
// so both take the upgrade path instead. The header and length words are
// loaded atomically: an epoch drain on another goroutine may be applying
// an earlier fold to this very block, rewriting its first line word by
// word (with the same header and length) while we look.
func counterBlock(h *core.Heap, vref core.Ref) (core.Ref, bool) {
	pool := h.Pool()
	if vref == 0 || !h.Mem().IsBlockRef(vref) {
		return 0, false
	}
	if _, _, next := heap.UnpackHeader(pool.ReadUint64Atomic(vref)); next != 0 {
		return 0, false
	}
	if uint32(pool.ReadUint64Atomic(vref+heap.HeaderSize)) != counterLen {
		return 0, false
	}
	return vref, true
}

// AddDelta implements DeltaAdder. In async commit mode the hot path
// hands the delta to the manager's ledger keyed by the value block: the
// counter word lives at block-local offset HeaderSize+4 (behind the
// blob's length prefix). The first delta on a key upgrades its pooled
// immutable value into a block-resident one via the transactional slow
// path, which also folds that first delta.
func (b *JPFABackend) AddDelta(key, field string, delta int64) (bool, error) {
	if b.mgr.CommitMode() != fa.CommitAsync {
		return b.addDeltaTx(key, field, delta)
	}
	r, err := b.get(key)
	if err != nil || r == nil {
		return false, err
	}
	i := r.fieldIndex(b.h, field)
	if i < 0 {
		return false, fmt.Errorf("store: record %q has no field %q", key, field)
	}
	vref := r.ReadRef(fieldValOff(i))
	blk, ok := counterBlock(b.h, vref)
	if !ok {
		return b.addDeltaTx(key, field, delta)
	}
	if _, err := b.mgr.AddDelta(blk, heap.HeaderSize+4, delta); err != nil {
		if err == fa.ErrDeltaUnsupported { // mode switched under us
			return b.addDeltaTx(key, field, delta)
		}
		return false, err
	}
	return true, nil
}

// addDeltaTx is the transactional slow path: read-modify-write of the
// counter inside a failure-atomic block. A block-resident counter is
// updated in place through the redo log; any other shape (the pooled
// value a plain Insert created, or a wrong-sized blob) is upgraded to a
// block-resident counter carrying the summed value.
func (b *JPFABackend) addDeltaTx(key, field string, delta int64) (bool, error) {
	r, err := b.get(key)
	if err != nil || r == nil {
		return false, err
	}
	i := r.fieldIndex(b.h, field)
	if i < 0 {
		return false, fmt.Errorf("store: record %q has no field %q", key, field)
	}
	err = b.mgr.Run(func(tx *fa.Tx) error {
		vref, err := tx.ReadRef(r.Object, fieldValOff(i))
		if err != nil {
			return err
		}
		if blk, ok := counterBlock(b.h, vref); ok {
			vo, err := b.h.Resurrect(blk)
			if err != nil {
				return err
			}
			cur, err := tx.ReadInt64(vo.Core(), 4)
			if err != nil {
				return err
			}
			return tx.WriteInt64(vo.Core(), 4, cur+delta)
		}
		old := pdt.ReadBlob(b.h, vref)
		if len(old) != counterLen {
			return fmt.Errorf("store: field %q of %q is %d bytes, not an 8-byte counter", field, key, len(old))
		}
		var buf [counterLen]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(binary.LittleEndian.Uint64(old))+delta))
		vb, err := pdt.NewBytesBlockTx(tx, buf[:])
		if err != nil {
			return err
		}
		if err := tx.WriteRef(r.Object, fieldValOff(i), vb.Ref()); err != nil {
			return err
		}
		oldPo, err := b.h.Resurrect(vref)
		if err != nil {
			return err
		}
		return tx.Free(oldPo)
	})
	return err == nil, err
}

// settleDeltas waits out any ledger delta on the record's value blocks —
// pending, or being applied by an epoch in flight — so a raw read
// observes every acknowledged increment whole
// (reads-see-acknowledged-writes). Only a block-resident value can carry
// a delta; pooled values, the shape of every plain field, cost nothing.
func (b *JPFABackend) settleDeltas(r *pRecord) {
	mem := b.h.Mem()
	n := r.fieldCount()
	for i := 0; i < n; i++ {
		if vref := r.ReadRef(fieldValOff(i)); mem.IsBlockRef(vref) {
			b.mgr.Settle(vref)
		}
	}
}
