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
//     order, which the disjoint-write-set property below makes
//     irrelevant.
//
// Within an epoch the queued blocks must also have disjoint write sets.
// The application's locking no longer guarantees that (an async Commit
// returns before the app releases its locks' protection window), so the
// manager tracks every queued block's originals and any transactional
// access to one of them — read or write — first drains the queue (see
// groupState.waitClear). Non-transactional readers are not blocked: they
// observe the pre-epoch state until the drain applies, the documented
// bounded staleness of async mode.
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
	Mode CommitMode
	// ManualDrain (async only) disables automatic batch-pressure drains;
	// the caller drives every epoch with DrainDurable/AwaitDurable. This
	// keeps a single-goroutine workload fully deterministic, which is
	// what the crashmc gridgroup workload needs.
	ManualDrain bool
}

// groupState is the async mode's coordination state, swapped atomically
// on the manager so the default per-Tx path pays one nil check.
type groupState struct {
	m        *Manager
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Tx                 // enqueued commits, ticket order
	pending  map[core.Ref]struct{} // originals held by queued commits
	issued   uint64                // tickets handed out
	durable  uint64                // watermark: last ticket fully durable
	draining bool                  // an epoch drain is in flight
	manual   bool
	// enqueuing counts commits inside enqueue that have not joined the
	// queue yet: they hold slots no drain can give back before they do.
	enqueuing atomic.Int64

	// Delta ledger (delta.go): pending net deltas folded by AddDelta,
	// materialized into the next epoch. order preserves first-fold order;
	// deltaBlocks counts pending entries per block for waitClear; backlog
	// mirrors len(ledger) so a metrics snapshot reads it without the lock.
	ledger      map[deltaKey]*deltaEntry
	order       []deltaKey
	deltaBlocks map[core.Ref]int
	backlog     atomic.Int64
	// deltaTx parks the group's reserved materialization transaction: one
	// log slot withheld from the general pool so a drain can always land
	// at least one ledger chunk, however many application blocks hold the
	// other slots (without it, tx.Free → waitClear with every slot open —
	// the waiter's included — would busy-spin forever). It is taken under
	// g.mu by materializeLocked and handed back by release when its epoch
	// is retired — on the next epoch's fences, or sooner when that epoch's
	// materialization finds no slot and Begin forces the retirement;
	// drains are serialized by g.draining, so at most one taker exists.
	deltaTx atomic.Pointer[Tx]
}

// SetGroupCommit switches the manager's commit mode. It must be called
// while no failure-atomic block is open and no async commit is queued
// (DrainDurable first); blocks begun after the call use the new mode.
func (m *Manager) SetGroupCommit(opts GroupOptions) error {
	// Parked commits hold slots the switch may need back (the reserved
	// delta Tx among them).
	m.Retire()
	if n := m.inUse.Load(); n != 0 {
		return fmt.Errorf("fa: cannot switch commit mode with %d blocks in flight (drain first)", n)
	}
	switch opts.Mode {
	case CommitPerTx:
		m.unreserveDeltaTx()
		m.group.Store(nil)
	case CommitAsync:
		g := &groupState{
			m:           m,
			pending:     make(map[core.Ref]struct{}),
			manual:      opts.ManualDrain,
			ledger:      make(map[deltaKey]*deltaEntry),
			deltaBlocks: make(map[core.Ref]int),
		}
		g.cond = sync.NewCond(&g.mu)
		m.unreserveDeltaTx()
		m.group.Store(g)
		m.reserveDeltaTx(g)
	default:
		return fmt.Errorf("fa: unknown commit mode %d", opts.Mode)
	}
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
		g.drainLocked()
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
		g.drainLocked()
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
	for _, orig := range tx.written {
		g.pending[orig] = struct{}{}
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
		g.drainLocked()
	}
	g.mu.Unlock()
	for _, fn := range ordered {
		fn()
	}
	return ticket
}

// waitClear blocks until no queued commit holds the block orig and no
// delta is pending on it, draining the queue if needed. Called on every
// transactional access to an original block (reads included: a block
// touched by a queued commit has a newer image in its redo log, and one
// with a pending delta has a newer word in the ledger; basing a new
// block on the stale original would lose the queued update).
func (g *groupState) waitClear(orig core.Ref) { g.waitFor(orig, true) }

// waitFor is waitClear with the delta half optional: deltas false waits
// out queued commits only and leaves the block's pending ledger entries
// folding (Manager.SettleCommits).
func (g *groupState) waitFor(orig core.Ref, deltas bool) {
	g.mu.Lock()
	for {
		_, held := g.pending[orig]
		if !held && (!deltas || g.deltaBlocks[orig] == 0) {
			g.mu.Unlock()
			return
		}
		g.drainLocked()
	}
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
		g.drainLocked()
	case g.enqueuing.Load() > 0:
		g.mu.Unlock()
		runtime.Gosched()
		g.mu.Lock()
	default:
		return false
	}
	return true
}

// drainLocked drains the current queue as one epoch. Caller holds g.mu;
// it is released during the epoch and re-held on return. If another
// drain is in flight, waits for it instead (the queue it took is a
// superset decision made under the same lock, so waiting suffices for
// waitClear/AwaitDurable to make progress on re-check).
func (g *groupState) drainLocked() {
	for g.draining {
		g.cond.Wait()
	}
	batch := g.queue
	dtxs, leftoverMin := g.materializeLocked()
	if len(batch) == 0 && len(dtxs) == 0 {
		if leftoverMin != 0 {
			// Ledger entries exist but no log slot was free — not even
			// the reserved one (only possible on a heap too small to
			// reserve, see reserveDeltaTx). Yield so the holders, open
			// application blocks, can finish; the caller's loop retries.
			g.mu.Unlock()
			deltaYield()
			g.mu.Lock()
		}
		return
	}
	g.queue = nil
	// Every ticket issued so far is durable, in batch, or materialized
	// into dtxs — except those folded into a leftover ledger entry, which
	// cap the acknowledgment.
	last := g.issued
	if leftoverMin != 0 && leftoverMin-1 < last {
		last = leftoverMin - 1
	}
	g.draining = true
	g.mu.Unlock()

	origs := g.drainEpoch(append(dtxs, batch...))

	g.mu.Lock()
	for _, orig := range origs {
		delete(g.pending, orig)
	}
	if last > g.durable {
		g.durable = last
	}
	g.draining = false
	g.cond.Broadcast()
}

// epochStage1 completes stage 1 for an epoch batch. Queued commits
// persisted their log, masks and write set at enqueue; detached delta
// materializations (ticket 0) never passed enqueue and run
// commitStage1Body here instead — their entry count and word entries
// must be durable under F0, or the commit mark would land on a slot whose
// durable count is still 0 and recovery would replay the fold as an empty
// transaction, silently dropping it while its same-epoch siblings apply.
func epochStage1(batch []*Tx) {
	for _, tx := range batch {
		if tx.ticket == 0 {
			tx.commitStage1Body()
		}
	}
}

// drainEpoch runs the commit pipeline over the batch: the two fences of a
// commit, paid once for the whole epoch.
//
//	F0  pfence        — every queued log+write set durable (stage 1)
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
func (g *groupState) drainEpoch(batch []*Tx) (origs []core.Ref) {
	pool := batch[0].h.Pool()
	// Capture the pending originals for removal after the epoch: recycling
	// truncates tx.written and reuses the Tx objects.
	queued := 0
	for _, tx := range batch {
		if tx.ticket != 0 {
			queued++ // detached delta txs don't count as epoch commits
		}
		origs = append(origs, tx.written...)
	}
	lead := batch[0]
	lead.mates = batch[1:]
	epochStage1(batch)
	fence := g.m.retire.beginFence()
	pool.PFence() // F0
	lead.commitSeq(fence)
	for _, tx := range batch {
		tx.commitMarkBody()
	}
	pool.PFence() // F1: the epoch commit point
	lead.commitRecycle()
	for _, tx := range batch {
		tx.commitApplyBody()
	}
	g.m.stats.Epochs.Inc()
	g.m.stats.EpochTxs.Add(uint64(queued))
	lead.park()
	return origs
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
	// Each folded-away op would have cost its own log write + line flush;
	// materialized entries and the still-pending backlog are the ones that
	// (will) pay.
	if backlog := uint64(g.backlog.Load()); snap.DeltaOps >= snap.DeltaEntries+backlog {
		snap.DeltaFlushesSaved = snap.DeltaOps - snap.DeltaEntries - backlog
	}
	g.mu.Lock()
	snap.WatermarkLag = g.issued - g.durable
	g.mu.Unlock()
}
