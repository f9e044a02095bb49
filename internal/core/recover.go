package core

import (
	"fmt"
	"time"

	"repro/internal/heap"
)

// recoverHeap runs the recovery procedure of §4.1.3: traverse the live
// object graph from the root map, nullify references to invalid objects,
// call per-object Recover hooks, then sweep everything unreachable back to
// the allocator and close with a single fence.
//
// With skipGraph (J-PFA-nogc, Figure 11) the traversal is replaced by a
// linear header scan: valid masters and valid pooled slots are considered
// live. This is cheaper but only sound if the application never crashes
// with invalid-but-reachable objects (e.g. every allocation and insertion
// happens inside one failure-atomic block).
func (h *Heap) recoverHeap(skipGraph bool) error {
	if h.RecoveryStats.Formatted {
		return nil // a fresh heap has nothing to recover
	}
	m := h.mem.NewMarkSet()
	var live, nullified uint64
	start := time.Now()
	if skipGraph {
		if err := h.scanHeaders(m, &live); err != nil {
			return err
		}
	} else {
		h.RecoveryStats.GraphTraversed = true
		if rootRef := h.mem.RootRef(); rootRef != 0 {
			if err := h.mem.CheckRef(rootRef); err != nil {
				return fmt.Errorf("core: recovery: root map: %w", err)
			}
			if h.mem.Valid(rootRef) {
				m.MarkObject(rootRef)
				if err := h.traverse(m, rootRef, &live, &nullified); err != nil {
					return err
				}
			}
		}
	}
	h.recObs.MarkNs.Add(uint64(time.Since(start)))
	h.recObs.MarkedBlocks.Add(m.Marked())
	h.recObs.LiveObjects.Add(live)
	h.recObs.NullifiedRefs.Add(nullified)

	start = time.Now()
	sw := h.mem.Sweep(m) // zeroes dead headers, rebuilds free state, fences
	h.recObs.SweepNs.Add(uint64(time.Since(start)))
	h.recObs.SweptBlocks.Add(sw.DeadBlocks)
	h.recObs.ScrubbedHeaders.Add(sw.ScrubbedHeaders)

	h.RecoveryStats.LiveObjects = live
	h.RecoveryStats.NullifiedRefs = nullified
	h.RecoveryStats.LiveBlocks = m.Marked()
	return nil
}

// traverse is the depth-first traversal of the paper's procedure. Each
// popped object is visited once: run its repair hook (§3.2.1), nullify
// references to invalid targets (§2.4 — the closing fence of the sweep
// persists all nullifications at once), and push every newly marked
// child. A reference that names no object at all fails the recovery.
func (h *Heap) traverse(m *heap.MarkSet, rootRef Ref, live, nullified *uint64) error {
	work := []Ref{rootRef}
	for len(work) > 0 {
		ref := work[len(work)-1]
		work = work[:len(work)-1]
		*live++
		id := h.mem.ClassOf(ref)
		c, ok := h.byID[id]
		if !ok {
			name, _ := h.mem.ClassName(id)
			return fmt.Errorf("core: recovery found instance of unregistered class id %d (%q) at %#x", id, name, ref)
		}
		obj := h.Inspect(ref)
		if rec, ok := c.Factory(obj).(Recoverer); ok {
			rec.Recover()
		}
		if c.Refs == nil {
			continue
		}
		for _, off := range c.Refs(obj) {
			target := obj.ReadRef(off)
			if target == 0 {
				continue
			}
			if err := h.mem.CheckRef(target); err != nil {
				return fmt.Errorf("core: recovery: object %#x (class %q) field +%d: %w", ref, c.Name, off, err)
			}
			if !h.mem.Valid(target) {
				// A partially deleted (or never validated) object:
				// nullify the reference.
				obj.WriteRef(off, 0)
				obj.PWBField(off, 8)
				*nullified++
				continue
			}
			if m.MarkObject(target) {
				work = append(work, target)
			}
		}
	}
	return nil
}

// scanHeaders rebuilds the mark set from block headers alone (J-PFA-nogc):
// valid masters and valid pooled slots are live by definition. It scans
// the whole arena — the persistent bump mirror is advisory (unfenced) and
// cannot be trusted after a crash, and untouched blocks read as zero
// headers by construction.
func (h *Heap) scanHeaders(m *heap.MarkSet, live *uint64) error {
	for idx := uint64(0); idx < h.mem.NBlocks(); idx++ {
		r := h.mem.BlockRef(idx)
		id, valid, sc := heap.UnpackHeader(h.mem.Header(r))
		switch {
		case id == heap.PoolChunkClass && valid:
			if int(sc) >= len(heap.SlotSizes) {
				continue // corrupt chunk: swept
			}
			size := uint64(heap.SlotSizes[sc])
			for s := uint64(0); s+size <= heap.Payload; s += size {
				slot := r + heap.HeaderSize + s
				if h.mem.Valid(slot) {
					m.MarkObject(slot)
					*live++
				}
			}
		case id != 0 && id != heap.PoolChunkClass && valid:
			if err := h.mem.CheckRef(r); err != nil {
				return fmt.Errorf("core: recovery: valid master at block %d: %w", idx, err)
			}
			m.MarkObject(r)
			*live++
		}
	}
	return nil
}
