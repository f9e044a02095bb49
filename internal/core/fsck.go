package core

import "fmt"

// Fsck verifies the object graph on top of the block-level checks of
// heap.Fsck: starting from the root map, every reachable reference must
// point at a valid, in-bounds object of a registered class. Read-only;
// returns the total issue count (graph + block level).
func (h *Heap) Fsck(report func(msg string)) int {
	issues := h.mem.Fsck(report)
	complain := func(format string, args ...any) {
		issues++
		if report != nil {
			report(fmt.Sprintf(format, args...))
		}
	}

	rootRef := h.mem.RootRef()
	if rootRef == 0 {
		return issues
	}
	if !h.mem.Valid(rootRef) {
		complain("root map at %#x is invalid", rootRef)
		return issues
	}
	seen := map[Ref]bool{rootRef: true}
	work := []Ref{rootRef}
	for len(work) > 0 {
		ref := work[len(work)-1]
		work = work[:len(work)-1]
		id := h.mem.ClassOf(ref)
		c, ok := h.byID[id]
		if !ok {
			complain("reachable object %#x has unregistered class id %d", ref, id)
			continue
		}
		obj := h.Inspect(ref)
		if c.Refs == nil {
			continue
		}
		for _, off := range c.Refs(obj) {
			target := obj.ReadRef(off)
			if target == 0 {
				continue
			}
			if target >= h.pool.Size() {
				complain("object %#x (+%d): reference %#x beyond the pool", ref, off, target)
				continue
			}
			if !h.mem.Valid(target) {
				complain("object %#x (+%d): reachable reference to invalid object %#x", ref, off, target)
				continue
			}
			if !seen[target] {
				seen[target] = true
				work = append(work, target)
			}
		}
	}
	return issues
}
