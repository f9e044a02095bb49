// Async epoch commit: cross-transaction group durability (DESIGN.md §15).
//
// One opt-in commit mode rides on the per-Tx redo protocol of fa.go.
// CommitAsync decouples §4.2's guarantee: Commit persists the log and
// write set (unfenced), enqueues the block and returns an epoch ticket. A
// later drain — triggered by batch pressure, a conflicting access,
// AwaitDurable or DrainDurable — commits the whole queue as one epoch with
// a single fence set, then advances the durability watermark past every
// ticket in the batch.
//
// The epoch pipeline preserves two invariants the per-Tx protocol gives
// for free:
//
//   - Each block's log (entry count included) is durable before its
//     committed mark can be: the drain fences every queued block's
//     stage-1 write-backs before writing any mark.
//   - Epochs replay in order: the blocks of one epoch share one commit
//     sequence number, epoch e's is below epoch e+1's, and W only retires
//     an epoch whose apply is durable. A crash image therefore holds live
//     logs from a run of consecutive epochs, recovery replays them oldest
//     first, and every crash image recovers to a prefix of the epoch
//     order (plus an all-or-nothing subset of the epoch whose marks were
//     in flight). Within one sequence number RecoverLogs replays in slot
//     order, which the disjoint-written-words property below makes
//     irrelevant.
//
// Within an epoch the queued commits must also write disjoint words:
// word entries that share a sequence number then commute, whatever order
// replay takes them in. The application's locking no longer guarantees
// that (an async Commit returns before the app releases its locks'
// protection window), so the manager keeps, per block, the mask of the
// words queued commits and a delta materialization in flight hold
// (groupState.pending), filled at enqueue from each commit's word entries
// and cleared by the drain that applies them. A transactional access —
// read or write — to a held word first drains the queue (Tx.settleWords);
// another word of the same block is current and shares the epoch. The
// block-level settles (Settle, SettleCommits, FreeRef of a block, and
// AddDelta) still drain while any word of the block is held, and a
// pending delta holds its whole block (delta.go).
// Non-transactional readers are not blocked: they observe the pre-epoch
// state until the drain applies, the documented bounded staleness of
// async mode.
package fa

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// CommitMode selects the durability protocol for outermost commits.
type CommitMode int

const (
	// CommitPerTx is the default §4.2 protocol — every commit issues its
	// own barriers. It is the correctness oracle the async mode is checked
	// against (see group_test.go), same pattern as the serial recovery
	// oracle.
	CommitPerTx CommitMode = iota
	// CommitAsync enqueues the commit and returns a ticket immediately;
	// durability is reached at the next epoch drain (AwaitDurable).
	CommitAsync
)

// GroupOptions configures SetGroupCommit.
type GroupOptions struct {
	// ManualDrain (async only) disables automatic batch-pressure drains;
	// the caller drives every epoch with DrainDurable/AwaitDurable. This
	// keeps a single-goroutine workload fully deterministic, which is
	// what the crashmc gridgroup workload needs.
	ManualDrain bool
}

// groupState is the async mode's coordination state, stored once on the
// manager so the default per-Tx path pays one nil check.
type groupState struct {
	m        *Manager
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Tx               // enqueued commits, ticket order
	pending  map[core.Ref]uint32 // per block, the words queued commits and an epoch in flight hold
	issued   uint64              // tickets handed out
	durable  uint64              // watermark: last ticket fully durable
	draining bool                // an epoch drain is in flight
	manual   bool
	// drained is the drain in flight's scratch list of the words its
	// epoch holds, cleared from pending once it applies; drains are
	// serialized, so one buffer serves them all.
	drained []txBlock
	// enqueuing counts commits inside enqueue that have not joined the
	// queue yet: they hold slots no drain can give back before they do.
	enqueuing atomic.Int64

	// Delta ledger (delta.go): the net delta folded by AddDelta into each
	// word, at most one log slot's worth, all materialized by the next
	// drain. order preserves first-fold order; deltaBlocks is the set of
	// blocks with a pending delta, which the ledger holds whole.
	ledger      map[deltaKey]int64
	order       []deltaKey
	deltaBlocks map[core.Ref]struct{}
	// deltaTx parks the group's reserved materialization transaction: one
	// log slot withheld from the general pool so a drain can always land
	// the ledger, however many application blocks hold the other slots
	// (without it, tx.Free → waitClear with every slot open — the
	// waiter's included — would busy-spin forever). It is taken under
	// g.mu by materializeLocked and handed back by release when its epoch
	// is retired — on the next epoch's fences, or sooner when the next
	// drain finds no slot and Begin forces the retirement; drains are
	// serialized by g.draining, so at most one taker exists.
	deltaTx atomic.Pointer[Tx]
}

// SetGroupCommit switches an attached manager from the default per-Tx
// protocol to async, once; there is no way back. It must be called while
// no failure-atomic block is open, and blocks begun after it commit
// async. Async mode needs two log slots, one of them withheld for delta
// drains.
func (m *Manager) SetGroupCommit(opts GroupOptions) error {
	st := m.state.Load()
	switch {
	case st == nil:
		return fmt.Errorf("fa: manager not attached to a heap (switch to async after core.Open)")
	case m.group.Load() != nil:
		return fmt.Errorf("fa: async commit is already on")
	case st.total < 2:
		return fmt.Errorf("fa: async commit needs two log slots, the heap has %d", st.total)
	}
	// Parked commits hold slots, and the reservation needs one.
	m.Retire()
	if n := m.inUse.Load(); n != 0 {
		return fmt.Errorf("fa: cannot switch to async commit with %d blocks in flight", n)
	}
	g := &groupState{
		m:           m,
		pending:     make(map[core.Ref]uint32),
		manual:      opts.ManualDrain,
		ledger:      make(map[deltaKey]int64),
		deltaBlocks: make(map[core.Ref]struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	if err := m.reserveDeltaTx(g); err != nil {
		return err
	}
	m.group.Store(g)
	return nil
}

// CommitMode returns the manager's current commit mode.
func (m *Manager) CommitMode() CommitMode {
	if m.group.Load() != nil {
		return CommitAsync
	}
	return CommitPerTx
}

// DurableWatermark returns the highest async ticket that is durable: its
// epoch's commit marks are fenced, so a crash replays it (and its apply
// has run, so readers see it). Zero in per-Tx mode, where every returned
// Commit is already durable.
func (m *Manager) DurableWatermark() uint64 {
	g := m.group.Load()
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}

// IssuedTickets returns the number of async commit tickets handed out;
// AwaitDurable(IssuedTickets()) waits for everything committed so far.
func (m *Manager) IssuedTickets() uint64 {
	g := m.group.Load()
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.issued
}

// AwaitDurable blocks until the given async ticket is durable, draining
// the queue if necessary: it returns after the second fence (and the
// apply) of the epoch that carries the ticket. A zero ticket, or any
// ticket in per-Tx mode, returns immediately.
func (m *Manager) AwaitDurable(ticket uint64) {
	g := m.group.Load()
	if g == nil || ticket == 0 {
		return
	}
	g.mu.Lock()
	for g.durable < ticket {
		if len(g.queue) == 0 && len(g.order) == 0 && !g.draining {
			break // ticket never issued or already drained elsewhere
		}
		g.drainLocked(&m.stats.EpochsWait)
	}
	g.mu.Unlock()
}

// DrainDurable commits everything currently queued as one epoch (or
// waits out a drain already in flight) and returns the new watermark.
// In ManualDrain mode this is the only epoch boundary.
func (m *Manager) DrainDurable() uint64 {
	g := m.group.Load()
	if g == nil {
		return 0
	}
	g.mu.Lock()
	for len(g.queue) > 0 || len(g.order) > 0 || g.draining {
		g.drainLocked(&m.stats.EpochsWait)
	}
	w := g.durable
	g.mu.Unlock()
	return w
}

// enqueue persists tx's log and write set (unfenced), assigns its epoch
// ticket and parks it on the queue. The commit's visible effects (the
// apply, freed-object recycling, deferred follow-ups) happen at drain
// time on the draining goroutine; its OnOrdered hooks run here, once its
// write set is pending (or already applied by a drain).
func (g *groupState) enqueue(tx *Tx) uint64 {
	g.enqueuing.Add(1)
	tx.commitStage1Body()
	ordered := tx.ordered
	g.mu.Lock()
	g.enqueuing.Add(-1)
	g.issued++
	tx.ticket = g.issued
	g.queue = append(g.queue, tx)
	for _, b := range tx.written {
		if b.logged != 0 {
			g.pending[b.orig] |= b.logged
		}
	}
	n := len(g.queue)
	g.m.stats.AsyncCommits.Inc()
	// Batch pressure is a capacity bound, not a batching policy: the
	// epoch boundary is the caller's AwaitDurable, and the queue drains on
	// its own only once it holds half the log slots, so enqueued blocks
	// cannot exhaust the slot pool.
	limit := 1
	if st := g.m.state.Load(); st != nil && st.total/2 > limit {
		limit = st.total / 2
	}
	ticket := tx.ticket
	if !g.manual && n >= limit {
		g.drainLocked(&g.m.stats.EpochsPressure)
	}
	g.mu.Unlock()
	for _, fn := range ordered {
		fn()
	}
	return ticket
}

// heldWords returns the words of block orig whose home words are stale:
// those queued commits and an epoch in flight hold, and every word of a
// block with a pending delta. Caller holds g.mu.
func (g *groupState) heldWords(orig core.Ref) uint32 {
	if _, folded := g.deltaBlocks[orig]; folded {
		return ^uint32(0)
	}
	return g.pending[orig]
}

// waitWords drains until none of the given words of block orig is held,
// and returns the block's held words then: every transactional access
// to a held word waits here (Tx.locate).
func (g *groupState) waitWords(orig core.Ref, words uint32) uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.heldWords(orig)&words != 0 {
		g.drainLocked(&g.m.stats.EpochsConflict)
	}
	return g.heldWords(orig)
}

// waitClear blocks until no word of block orig is held by a queued
// commit or a pending delta, draining the queue if needed: the block's
// raw image is then current (Settle, and FreeRef of a block).
func (g *groupState) waitClear(orig core.Ref) { g.waitFor(orig, true) }

// waitFor is waitClear with the delta half optional: deltas false waits
// out queued commits only and leaves the block's pending ledger entries
// folding (Manager.SettleCommits).
func (g *groupState) waitFor(orig core.Ref, deltas bool) {
	g.mu.Lock()
	for {
		_, folded := g.deltaBlocks[orig]
		if g.pending[orig] == 0 && (!deltas || !folded) {
			break
		}
		g.drainLocked(&g.m.stats.EpochsConflict)
	}
	g.mu.Unlock()
}

// awaitSlots is Begin's answer to a slot pool emptied by async commits:
// it waits out the drain in flight, drives one over the queue unless
// drains are manual, or yields to a commit still joining the queue. It
// reports whether it did any of these — that is, whether slots held by
// async commits may be on their way back.
func (g *groupState) awaitSlots() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.draining:
		for g.draining {
			g.cond.Wait()
		}
	case len(g.queue) > 0 && !g.manual:
		g.drainLocked(&g.m.stats.EpochsSlots)
	case g.enqueuing.Load() > 0:
		g.mu.Unlock()
		runtime.Gosched()
		g.mu.Lock()
	default:
		return false
	}
	return true
}

// drainLocked drains the current queue as one epoch and counts it under
// cause, what forced it. Caller holds g.mu; it is released during the
// epoch and re-held on return. If another drain is in flight, waits for
// it instead (the queue it took is a superset decision made under the
// same lock, so waiting suffices for the wait loops and AwaitDurable to
// make progress on re-check).
//
// The epoch is its first Tx (the delta materialization, if any) and that
// Tx's mates. The mates, the queue and the drained words live in buffers
// that drains reuse, so a warm drain allocates nothing.
func (g *groupState) drainLocked(cause *obs.Counter) {
	for g.draining {
		g.cond.Wait()
	}
	queued := len(g.queue)
	lead, rest := g.materializeLocked(), g.queue
	if lead == nil {
		if queued == 0 {
			return
		}
		lead, rest = rest[0], rest[1:]
	}
	lead.mates = append(lead.mates[:0], rest...)
	g.queue = g.queue[:0]
	// Captured now: once parked, the epoch's Txs may be recycled.
	g.drained = g.drained[:0]
	lead.eachInEpoch(func(tx *Tx) {
		for _, b := range tx.written {
			if b.logged != 0 {
				g.drained = append(g.drained, b)
			}
		}
	})
	// Every ticket issued so far is durable or in the epoch: the queue and
	// the whole ledger.
	last := g.issued
	g.draining = true
	g.mu.Unlock()

	g.drainEpoch(lead, queued, cause)

	g.mu.Lock()
	for _, b := range g.drained {
		if w := g.pending[b.orig] &^ b.logged; w != 0 {
			g.pending[b.orig] = w
		} else {
			delete(g.pending, b.orig)
		}
	}
	g.durable = last
	g.draining = false
	g.cond.Broadcast()
}

// drainEpoch runs the commit pipeline over the epoch of lead, queued of
// whose Txs are async commits (the rest is the delta materialization):
// the two fences of a commit, paid once for the whole epoch. Every Tx of
// the epoch has run stage 1, a queued commit at enqueue and the
// materialization in materializeLocked.
//
//	F0  pfence        — every log+write set of the epoch durable
//	    seq + marks   — one sequence number; all blocks' marks written back
//	F1  pfence        — the epoch's durable commit point
//	    apply + flush — redo logs applied, dirty originals written back
//	    park          — the epoch joins the retire queue as one entry
//
// Crash analysis: before F1 only a (line-granular) subset of marks can
// be durable, and each marked block's log is complete thanks to F0, so
// recovery replays an all-or-nothing subset of this epoch, after every
// earlier epoch W does not cover. After F1 the whole epoch replays. The
// slots and freed objects are released only once W covers the epoch's
// sequence number durably (retireQueue), so no slot collects fresh
// entries under a mark recovery would still honour.
func (g *groupState) drainEpoch(lead *Tx, queued int, cause *obs.Counter) {
	pool := lead.h.Pool()
	fence := g.m.retire.beginFence()
	pool.PFence() // F0
	lead.commitSeq(fence)
	lead.eachInEpoch((*Tx).commitMarkBody)
	pool.PFence() // F1: the epoch commit point
	lead.commitRecycle()
	lead.eachInEpoch((*Tx).commitApplyBody)
	g.m.stats.Epochs.Inc()
	cause.Inc()
	g.m.stats.EpochTxs.Add(uint64(queued))
	lead.park()
}

// eachInEpoch calls fn on tx, the first Tx of an epoch, then on its mates.
func (tx *Tx) eachInEpoch(fn func(*Tx)) {
	fn(tx)
	for _, mate := range tx.mates {
		fn(mate)
	}
}

// groupSnapshot folds the async gauges into an FASnapshot: the fences
// saved by epoch amortization and the async backlog.
func (m *Manager) groupSnapshot(snap *obs.FASnapshot) {
	g := m.group.Load()
	if g == nil {
		return
	}
	// A per-Tx commit issues CommitBarriers; an epoch issues them once for
	// the whole batch. Pure-delta epochs can push Epochs past EpochTxs.
	if snap.EpochTxs > snap.Epochs {
		snap.CombinedFences = CommitBarriers * (snap.EpochTxs - snap.Epochs)
	}
	g.mu.Lock()
	// Each folded-away op would have cost its own log write + line flush;
	// materialized entries and the still-pending ledger are the ones that
	// (will) pay.
	if pending := uint64(len(g.ledger)); snap.DeltaOps >= snap.DeltaEntries+pending {
		snap.DeltaFlushesSaved = snap.DeltaOps - snap.DeltaEntries - pending
	}
	snap.WatermarkLag = g.issued - g.durable
	g.mu.Unlock()
}
