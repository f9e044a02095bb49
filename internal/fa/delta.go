// Net-delta commit for write-hot counters (DESIGN.md §19).
//
// Under zipfian traffic the async epoch queue still pays one redo-log
// entry and one line flush per RMW even when N increments land on one
// counter — only the net delta matters at the durability watermark.
// AddDelta therefore skips the per-op Tx entirely: it folds the delta
// into a volatile ledger keyed by (block, offset) and hands out an epoch
// ticket, exactly like an async commit. At the next drain the ledger is
// materialized into detached transactions — one redo-log write entry and
// one line flush per hot word per epoch, however many ops folded into it
// — which join the epoch's batch and ride the same two fences.
//
// Correctness hangs on three rules:
//
//   - A delta and a transactional write to the same block never share an
//     epoch with separate log entries: AddDelta drains while the block is
//     held by a queued commit, and every transactional access (waitClear)
//     or Free of a block drains while the block has a pending delta. So
//     each epoch keeps the disjoint-write-set property parallel replay
//     relies on, and a materialized fold always reads the post-apply
//     image of its block. While the epoch carrying a fold is in flight,
//     the fold's block sits in the pending set like a queued commit's
//     blocks, so no transactional snapshot forks it mid-apply. These
//     two drains cover queued commits only:
//     an *open* transaction's write set is invisible to the manager, so
//     a delta folded on a block between another Tx's first touch of it
//     and that Tx's enqueue would be clobbered by the Tx's pre-fold
//     snapshot. Callers must therefore serialize AddDelta against open
//     transactional writers of the same block — the grid does this with
//     its per-key stripe locks, held across both Commit and AddDelta.
//   - The watermark only advances over materialized tickets: the drain
//     acknowledges min(issued-at-snapshot, first-unmaterialized-1), so a
//     ledger entry left behind by slot exhaustion keeps every ticket that
//     folded into it unacknowledged until a later drain lands it.
//   - Recovery needs no new machinery: a materialized fold is an ordinary
//     kindWrite entry whose in-flight image holds the summed word, so a
//     crash replays the net delta all-or-nothing with its epoch — the
//     same state the per-op sequence would have reached.
//
// Aborts are the degenerate case: a delta is never owned by an open
// application Tx, so there is nothing to unfold — an aborted Tx simply
// never called AddDelta. The crashmc griddelta workload explores the
// crash surface; TestDelta* in group_test.go pin the volatile protocol.
package fa

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/heap"
)

// ErrDeltaUnsupported is returned by AddDelta outside async commit mode;
// callers fall back to a per-Tx read-modify-write.
var ErrDeltaUnsupported = fmt.Errorf("fa: delta ledger requires async commit mode")

// deltaKey addresses one foldable word: a block and the block-local
// offset of the 8-byte counter (header included in the coordinate space,
// matching lineMask).
type deltaKey struct {
	orig core.Ref
	off  uint64
}

// deltaEntry is one pending net delta. minTicket is the first ticket
// that folded in — the watermark cannot pass minTicket-1 until the entry
// materializes.
type deltaEntry struct {
	sum       int64
	minTicket uint64
}

const (
	// deltaLedgerMax bounds the volatile ledger; reaching it forces a
	// drain (the fold window is "until someone needs durability", not
	// "unbounded memory").
	deltaLedgerMax = 1024
	// deltaTxChunk caps the write entries carried by one detached
	// materialization Tx, keeping each well under any slot's capacity.
	deltaTxChunk = 256
)

// AddDelta folds a signed delta into the 8-byte little-endian word at
// block-local offset off of block orig, and returns an epoch ticket with
// async-commit semantics: the delta is applied and durable when the
// ticket passes the watermark (AwaitDurable), and any transactional or
// settled read of the block drains it first. Outside async mode it
// returns ErrDeltaUnsupported.
//
// Caller contract: AddDelta must not race an open failure-atomic block
// that has already touched orig but not yet committed — the manager only
// sees queued commits, so such a fold would be overwritten by the open
// block's earlier snapshot at its epoch apply (see the package comment;
// the grid's stripe locks provide this serialization).
func (m *Manager) AddDelta(orig core.Ref, off uint64, delta int64) (uint64, error) {
	g := m.group.Load()
	if g == nil || g.mode != CommitAsync {
		return 0, ErrDeltaUnsupported
	}
	st := m.state.Load()
	if st == nil {
		return 0, fmt.Errorf("fa: manager not attached to a heap")
	}
	if off < heap.HeaderSize || off+8 > heap.BlockSize {
		return 0, fmt.Errorf("fa: delta offset %d outside block payload", off)
	}
	if !st.h.Mem().IsBlockRef(orig) {
		return 0, fmt.Errorf("fa: delta target %#x is not a block", orig)
	}
	k := deltaKey{orig: orig, off: off}
	g.mu.Lock()
	for {
		// A queued commit holds a newer image of this block in its redo
		// log; folding against the pre-apply original would be clobbered
		// by the epoch apply. Drain first (mirror of waitClear).
		if _, held := g.pending[orig]; !held {
			break
		}
		g.drainLocked()
	}
	if _, ok := g.ledger[k]; !ok && len(g.ledger) >= deltaLedgerMax {
		g.drainLocked()
	}
	g.issued++
	ticket := g.issued
	if e, ok := g.ledger[k]; ok {
		e.sum += delta
		m.stats.DeltasFolded.Inc()
	} else {
		g.ledger[k] = &deltaEntry{sum: delta, minTicket: ticket}
		g.order = append(g.order, k)
		g.deltaBlocks[orig]++
		g.backlog.Add(1)
	}
	m.stats.DeltaOps.Inc()
	g.mu.Unlock()
	return ticket, nil
}

// Settle drains until block orig is held by no queued commit and has no
// pending delta, making its raw NVMM image current. No-op outside async
// mode.
func (m *Manager) Settle(orig core.Ref) {
	if g := m.group.Load(); g != nil {
		g.waitClear(orig)
	}
}

// SettleCommits is Settle without the delta half: it drains only while a
// queued commit holds orig, so every word of the block that no ledger
// entry addresses is current afterwards, and the block's pending deltas
// keep folding. It is what a caller about to AddDelta on the block needs
// (the store's counters live in their record's block, next to the field
// table the ADDDELTA path reads raw): a full Settle there would
// materialize the key's own ledger entry on every op.
func (m *Manager) SettleCommits(orig core.Ref) {
	if g := m.group.Load(); g != nil {
		g.waitFor(orig, false)
	}
}

// materializeLocked turns the ledger into detached transactions — grp
// nil so their accessors never recurse into the queue we are draining,
// ticket 0 so they are invisible to the group-commit gauges. Each ledger
// entry becomes one kindWrite log entry whose in-flight image carries
// the summed word. Called with g.mu held and g.draining false.
//
// Entries that cannot materialize (every log slot busy) stay in the
// ledger; leftoverMin is the smallest ticket still folded into one of
// them (0 if none), which caps how far this drain may advance the
// watermark.
func (g *groupState) materializeLocked() (dtxs []*Tx, leftoverMin uint64) {
	if len(g.order) == 0 {
		return nil, 0
	}
	var tx *Tx
	newTx := func() bool {
		t, err := g.m.Begin()
		if err != nil {
			// No free slot: fall back to the group's reserved Tx, so a
			// drain lands at least one chunk however many application
			// blocks hold the pool (the waitClear progress guarantee).
			if t = g.takeReservedLocked(); t == nil {
				return false
			}
		}
		t.grp = nil
		tx = t
		dtxs = append(dtxs, t)
		return true
	}
	var left []deltaKey
	stuck := false
	for _, k := range g.order {
		e := g.ledger[k]
		if stuck {
			left = append(left, k)
			continue
		}
		if tx != nil && len(tx.writes) >= deltaTxChunk {
			// Rotate, unless this block already has an in-flight copy in
			// the current chunk — splitting one block across two slots
			// would break the epoch's disjoint-write-set invariant.
			if _, ok := tx.inflight[k.orig]; !ok {
				tx = nil
			}
		}
		if tx == nil && !newTx() {
			stuck = true
			left = append(left, k)
			continue
		}
		if err := tx.foldDelta(k.orig, k.off, e.sum); err != nil {
			// ErrLogFull on a shared slot layout smaller than the chunk:
			// rotate once and retry on a fresh slot.
			if !newTx() || tx.foldDelta(k.orig, k.off, e.sum) != nil {
				stuck = true
				left = append(left, k)
				continue
			}
		}
		delete(g.ledger, k)
		if g.deltaBlocks[k.orig]--; g.deltaBlocks[k.orig] <= 0 {
			delete(g.deltaBlocks, k.orig)
		}
		// The block leaves the ledger now but its fold is only applied
		// when the epoch completes: park it in pending — exactly like a
		// queued commit's blocks — so waitClear and AddDelta keep
		// treating it as held until drainLocked clears the epoch's
		// origs. Without this a transactional snapshot taken during the
		// drain would race the fold's apply and fork history.
		g.pending[k.orig] = struct{}{}
		g.backlog.Add(-1)
		g.m.stats.DeltaEntries.Inc()
	}
	for _, k := range left {
		if e := g.ledger[k]; leftoverMin == 0 || e.minTicket < leftoverMin {
			leftoverMin = e.minTicket
		}
	}
	g.order = left
	// A rotation raced a retry into an empty Tx: drop it from the epoch.
	out := dtxs[:0]
	for _, t := range dtxs {
		if len(t.writes) > 0 {
			out = append(out, t)
		} else {
			t.Abort()
		}
	}
	return out, leftoverMin
}

// foldDelta adds sum to the 8-byte word at block-local offset off of
// orig through the redo machinery: first touch snapshots the block into
// an in-flight copy, then the summed word is stored there, its line
// masked dirty and queued for the stage-1 write-back. One log entry, one
// flushed line — however many ops folded into sum.
func (tx *Tx) foldDelta(orig core.Ref, off uint64, sum int64) error {
	i, err := tx.inflightFor(orig)
	if err != nil {
		return err
	}
	w := &tx.writes[i]
	w.mask |= lineMask(off, 8)
	pool := tx.h.Pool()
	p := w.inf + off
	pool.WriteUint64(p, pool.ReadUint64(p)+uint64(sum))
	tx.flush.AddRange(p, 8)
	return nil
}

// reserveDeltaTx withholds one log slot from the general pool and parks
// a pre-built transaction on g: delta materialization then always has a
// slot to land a ledger chunk in, which is the progress guarantee the
// waitClear/AwaitDurable drain loops rely on (without it, a Tx freeing a
// block with a pending delta while every slot is held — its own included
// — would spin forever). Called with no blocks in flight (SetGroupCommit
// enforces inUse == 0; RecoverLogs runs at attach), so every slot is in
// the cache or on the freelist. A heap with fewer than two slots skips
// the reservation — withholding its only slot would break Begin outright
// — and keeps the yield fallback.
func (m *Manager) reserveDeltaTx(g *groupState) {
	st := m.state.Load()
	if st == nil || st.total < 2 {
		return
	}
	if tx := m.cache.get(); tx != nil {
		tx.reserved = g
		g.deltaTx.Store(tx)
		return
	}
	slot, ok := m.slots.pop()
	if !ok {
		return
	}
	tx := m.newTx(st, slot)
	tx.reserved = g
	g.deltaTx.Store(tx)
}

// unreserveDeltaTx returns the current group's reserved slot, if any, to
// the general pool; SetGroupCommit calls it before replacing the group
// state so a mode switch never leaks the slot.
func (m *Manager) unreserveDeltaTx() {
	g := m.group.Load()
	if g == nil || g.mode != CommitAsync {
		return
	}
	if tx := g.deltaTx.Swap(nil); tx != nil {
		tx.reserved = nil
		tx.blocks.Drain()
		m.slots.push(tx.slot)
	}
}

// takeReservedLocked claims the group's reserved materialization Tx with
// Begin's bookkeeping. Caller holds g.mu with g.draining false, so the
// previous drain has handed the Tx back already; nil means the group
// never reserved one (sub-two-slot heap) or this drain filled it.
func (g *groupState) takeReservedLocked() *Tx {
	t := g.deltaTx.Swap(nil)
	if t == nil {
		return nil
	}
	t.depth = 1
	g.m.inUse.Add(1)
	g.m.stats.Begun.Inc()
	g.m.stats.TxReuse.Inc()
	return t
}

// deltaYield backs off when a drain found work but no free slot; the
// holders are open application blocks that need the CPU to finish.
func deltaYield() { runtime.Gosched() }
