package nvm

import (
	"runtime"
	"sync"
)

// FenceCombiner batches concurrent fence requests into shared barriers,
// the flat-combining idea of Persistent Software Combining applied to the
// ordering primitive. Concurrent committers that each need a pfence park
// at the combiner; one of them becomes the leader and issues a single
// fence on behalf of the whole cohort.
//
// This is sound on the emulated pool because PFence drains the whole
// write-pending queue, not a per-thread slice (the ADR model, DESIGN.md
// §15): one fence by any thread covers every PWB issued before that fence
// began, regardless of the issuing goroutine. The combiner only promises
// the caller a fence that *started after* the call entered the barrier,
// so a caller's own preceding PWBs are always covered.
type FenceCombiner struct {
	mu   sync.Mutex
	cond *sync.Cond

	started uint64 // fences begun (leader elected, primitive issuing)
	done    uint64 // fences completed
	fencing bool   // a leader is currently issuing
	// newcomers counts barrier arrivals not yet covered by a started
	// fence — the size of the cohort the next fence will serve. A leader
	// resets it when its fence starts.
	newcomers int

	// Stats, read by the fa layer's snapshot. barriers-issued is the
	// number of fence requests satisfied by another caller's barrier.
	barriers uint64
	issued   uint64
}

// NewFenceCombiner creates an idle combiner.
func NewFenceCombiner() *FenceCombiner {
	c := &FenceCombiner{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Fence orders the caller's prior PWBs behind one (possibly shared)
// pfence: it returns once a fence that started after entry has completed.
func (c *FenceCombiner) Fence(p *Pool) {
	c.mu.Lock()
	c.barriers++
	c.newcomers++
	// An in-flight fence started before our PWBs were necessarily queued,
	// so it cannot cover us: we need a fence numbered after the current
	// one, i.e. the first fence that *starts* from now on.
	target := c.started + 1
	yielded := false
	for c.done < target {
		if c.fencing {
			c.cond.Wait()
			continue
		}
		if !yielded && c.newcomers == 1 {
			// Classic group-commit leader wait, bounded to one scheduler
			// yield: a cohort of one gives concurrent committers a chance
			// to reach the barrier before it pays for a fence, so cohorts
			// form even when commits never overlap a fence in flight
			// (e.g. on a single CPU, where a fence window is never
			// observed by another goroutine).
			yielded = true
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			continue
		}
		// Become the leader of fence `started+1`, covering every waiter
		// registered so far.
		c.fencing = true
		c.started++
		c.newcomers = 0
		c.issued++
		c.mu.Unlock()
		p.PFence()
		c.mu.Lock()
		c.fencing = false
		c.done++
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// Stats returns barrier requests and fences actually issued; barriers -
// issued is the number of fences the combining saved.
func (c *FenceCombiner) Stats() (barriers, issued uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.barriers, c.issued
}
