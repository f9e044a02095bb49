package fa

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// pulledPlug is what panicPlane panics with.
type pulledPlug struct{}

// panicPlane counts ordering points and panics at point at (never when
// at is 0), as a fault plane that abandons the workload there would.
type panicPlane struct{ count, at int }

func (p *panicPlane) OrderingPoint(nvm.FaultEvent) {
	p.count++
	if p.count == p.at {
		panic(pulledPlug{})
	}
}

// finishes runs f on its own goroutine and fails the test if it has not
// returned within a deadline; it returns what f panicked with, if any.
func finishes(t *testing.T, what string, f func()) (panicked any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish: a lock is still held", what)
		return nil
	}
}

// TestPanicAtEveryPointReleasesLocks panics from a fault plane at each
// ordering point of a block whose small allocations carve a fresh chunk
// and whose commit retires a parked one. Run must re-raise the panic, and
// a following block that allocates in the same size class must finish: a
// lock held across the panic hangs it. The locks in reach are the size
// class's (takeLocked: the abort's frees and the next allocation take
// it), the free queue's (takeBlock, over the bump mirror's store: the
// next carve takes it) and
// the retire queue's (advance, over the W store: the next commit takes
// it).
func TestPanicAtEveryPointReleasesLocks(t *testing.T) {
	const payload = 16 // the smallest size class
	perChunk := int(heap.Payload) / heap.SlotSizes[0]
	// alloc allocates n slots of the class in one block.
	alloc := func(mgr *Manager, cls *core.Class, n int) error {
		return mgr.Run(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				if _, err := tx.AllocSmall(cls, payload); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// open returns a heap with one parked commit for the next to retire.
	open := func() (*core.Heap, *Manager, *nvm.Pool, *core.Class) {
		h, mgr, pool, cls := openFA(t, true)
		acc := newAccount(t, h, cls, 1, 0, "acc")
		if err := mgr.Run(func(tx *Tx) error { return tx.WriteUint64(acc.Core(), accA, 2) }); err != nil {
			t.Fatal(err)
		}
		return h, mgr, pool, cls
	}

	h, mgr, pool, cls := open()
	count := &panicPlane{}
	pool.SetFaultPlane(count)
	carves, w := h.Mem().ObsSnapshot().Carves, h.Mem().LogRetired()
	// One more slot than a chunk holds: at least one carve, with the
	// block's earlier slots of the class for its abort to free.
	if err := alloc(mgr, cls, perChunk+1); err != nil {
		t.Fatal(err)
	}
	pool.SetFaultPlane(nil)
	if h.Mem().ObsSnapshot().Carves == carves {
		t.Fatal("the block carved no chunk")
	}
	if h.Mem().LogRetired() == w {
		t.Fatal("the block's commit retired nothing")
	}

	for at := 1; at <= count.count; at++ {
		_, mgr, pool, cls := open()
		pool.SetFaultPlane(&panicPlane{at: at})
		r := finishes(t, fmt.Sprintf("point %d: the panicking block", at), func() { alloc(mgr, cls, perChunk+1) })
		if _, ok := r.(pulledPlug); !ok {
			t.Fatalf("point %d of %d: Run re-raised %v, want the plane's panic", at, count.count, r)
		}
		pool.SetFaultPlane(nil)
		finishes(t, fmt.Sprintf("point %d: the next block", at), func() {
			if err := alloc(mgr, cls, 1); err != nil {
				t.Errorf("point %d: next block: %v", at, err)
			}
		})
	}
}
