// Net-delta commit for write-hot counters (DESIGN.md §17).
//
// Under zipfian traffic the async epoch queue still pays one redo-log
// entry and one line flush per RMW even when N increments land on one
// counter — only the net delta matters at the durability watermark.
// AddDelta therefore skips the per-op Tx entirely: it folds the delta
// into a volatile ledger keyed by (block, offset) and hands out an epoch
// ticket, exactly like an async commit. Every drain materializes the
// whole ledger into one detached transaction — one kindWord redo-log
// entry, which carries the summed word itself, and one home-line
// write-back per hot word per epoch, however many ops folded into it —
// which joins the epoch's batch and rides the same two fences. The
// ledger holds at most one log slot's entries, and a drain always gets a
// slot (the group's reserved one if need be), so a drain lands the
// ledger whole and acknowledges every ticket issued before it.
//
// Correctness hangs on two rules:
//
//   - A delta and a transactional write to the same block never share an
//     epoch with separate log entries: AddDelta drains while any word of
//     the block is held by a queued commit, and every transactional access
//     (settleWords) or Free of a block drains while the block has a
//     pending delta. So each epoch keeps the disjoint-written-words
//     property replay relies on, and a materialized fold always reads the
//     post-apply value of its word. While the epoch carrying a fold is in
//     flight, the fold's word is held in the pending set like a queued
//     commit's words, so no transactional snapshot forks it mid-apply.
//     These two drains cover queued commits only:
//     an *open* transaction's write set is invisible to the manager, so
//     a delta folded on a block between another Tx's first touch of it
//     and that Tx's enqueue would be clobbered by the Tx's pre-fold
//     snapshot. Callers must therefore serialize AddDelta against open
//     transactional writers of the same block — the grid does this with
//     its per-key stripe locks, held across both Commit and AddDelta.
//   - A materialized fold is a kindWord entry holding the summed word,
//     read from the home word under g.mu with no drain in flight, so a
//     crash replays the net delta all-or-nothing with its epoch — the
//     same state the per-op sequence would have reached — and replaying
//     it twice stores the same value twice.
//
// Aborts are the degenerate case: a delta is never owned by an open
// application Tx, so there is nothing to unfold — an aborted Tx simply
// never called AddDelta. The crashmc griddelta workload explores the
// crash surface; TestDelta* in delta_test.go pin the volatile protocol.
package fa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
)

// ErrDeltaUnsupported is returned by AddDelta outside async commit mode;
// callers fall back to a per-Tx read-modify-write.
var ErrDeltaUnsupported = fmt.Errorf("fa: delta ledger requires async commit mode")

// deltaKey addresses one foldable word: a block and the block-local
// offset of the 8-byte counter (header included in the coordinate space).
type deltaKey struct {
	orig core.Ref
	off  uint64
}

// AddDelta folds a signed delta into the aligned 8-byte little-endian
// word at block-local offset off of block orig, and returns an epoch
// ticket with async-commit semantics: the delta is applied and durable
// when the ticket passes the watermark (AwaitDurable), and any
// transactional or settled read of the block drains it first. Outside
// async mode it returns ErrDeltaUnsupported.
//
// Caller contract: AddDelta must not race an open failure-atomic block
// that has already touched orig but not yet committed — the manager only
// sees queued commits, so such a fold would be overwritten by the open
// block's earlier snapshot at its epoch apply (see the package comment;
// the grid's stripe locks provide this serialization).
func (m *Manager) AddDelta(orig core.Ref, off uint64, delta int64) (uint64, error) {
	g := m.group.Load()
	if g == nil {
		return 0, ErrDeltaUnsupported
	}
	st := m.state.Load() // attached: async mode is set after attach
	if off < heap.HeaderSize || off+8 > heap.BlockSize || off%8 != 0 {
		return 0, fmt.Errorf("fa: delta offset %d is not an aligned word of the block payload", off)
	}
	if !st.h.Mem().IsBlockRef(orig) {
		return 0, fmt.Errorf("fa: delta target %#x is not a block", orig)
	}
	k := deltaKey{orig: orig, off: off}
	limit := int(st.txs[0].maxEntries) // one slot's entries
	var folds bool
	g.mu.Lock()
	for {
		// A queued commit holds newer words of this block in its redo
		// log; the block is settled whole before a fold, as for Settle.
		// A new word on a full ledger drains too: the ledger never
		// outgrows the one slot its drain lands in.
		_, folds = g.ledger[k]
		if g.pending[orig] != 0 {
			g.drainLocked(&m.stats.EpochsConflict)
		} else if !folds && len(g.ledger) >= limit {
			g.drainLocked(&m.stats.EpochsLedger)
		} else {
			break
		}
	}
	g.issued++
	ticket := g.issued
	if folds {
		m.stats.DeltasFolded.Inc()
	} else {
		g.order = append(g.order, k)
		g.deltaBlocks[orig] = struct{}{}
	}
	g.ledger[k] += delta
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

// materializeLocked turns the whole ledger into one detached
// transaction, stage 1 included, and empties the ledger; nil if it is
// empty. The Tx has grp nil, so its accessors never recurse into the
// queue being drained, and ticket 0, so it is invisible to the
// group-commit gauges. Each ledger entry becomes one kindWord log entry
// carrying the summed word. Called with g.mu held and g.draining false.
//
// The ledger holds at most one slot's entries (AddDelta), and the Tx
// always exists: drains are serialized, so the previous epoch is parked
// and applied, and a begin that finds no free slot forces its retirement,
// which hands the reserved Tx back to the group.
func (g *groupState) materializeLocked() *Tx {
	if len(g.order) == 0 {
		return nil
	}
	tx, err := g.m.begin(false)
	if err == nil {
		tx.grp = nil
	} else {
		// Every general slot is held by an open block.
		tx = g.takeReservedLocked()
	}
	for _, k := range g.order {
		if tx == nil || tx.foldDelta(k.orig, k.off, g.ledger[k]) != nil {
			panic("fa: delta drain without room for its ledger (the ledger is capped at one slot, and a drain always gets a slot)")
		}
		// The word leaves the ledger now but its fold is only applied
		// when the epoch completes: hold it in pending — exactly like a
		// queued commit's words — until drainLocked clears the epoch's
		// words. Without this a transactional snapshot taken during the
		// drain would race the fold's apply and fork history.
		g.pending[k.orig] |= wordsOf(k.off, 8)
	}
	// The durable entry count and the word entries must precede the
	// epoch's marks, or recovery would replay the fold as an empty
	// transaction while its same-epoch siblings apply.
	tx.commitStage1Body()
	g.m.stats.DeltaEntries.Add(uint64(len(g.order)))
	clear(g.ledger)
	clear(g.deltaBlocks)
	g.order = g.order[:0]
	return tx
}

// foldDelta logs the 8-byte word at block-local offset off of orig plus
// sum as one kindWord entry, through the same logWord a transactional
// store uses. The home word is current — the caller holds g.mu with no
// drain in flight and no queued commit on orig — and the entry reaches
// NVMM with the log's stage-1 write-back, so the fold costs its share of
// the log's lines and, at apply, the home line, however many ops folded
// into sum.
func (tx *Tx) foldDelta(orig core.Ref, off uint64, sum int64) error {
	p := orig + off
	q, err := tx.logWord(p)
	if err != nil {
		return err
	}
	tx.block(orig, true).logged |= wordsOf(off, 8)
	pool := tx.h.Pool()
	pool.WriteUint64(q, pool.ReadUint64(p)+uint64(sum))
	return nil
}

// reserveDeltaTx withholds one log slot from the general pool and parks
// its transaction on g: a drain then always has a slot to land the ledger
// in, which is the progress guarantee the waitClear/AwaitDurable drain
// loops rely on (without it, a Tx freeing a block with a pending delta
// while every slot is held — its own included — would spin forever).
// SetGroupCommit calls it with no block in flight and nothing parked on a
// heap of at least two slots, so the pop finds a slot and one stays
// general.
func (m *Manager) reserveDeltaTx(g *groupState) error {
	slot, ok := m.slots.pop()
	if !ok {
		return fmt.Errorf("fa: no free log slot to reserve for delta drains (a block began during the switch)")
	}
	tx := m.state.Load().txs[slot]
	tx.reserved = g
	g.deltaTx.Store(tx)
	return nil
}

// takeReservedLocked claims the group's reserved materialization Tx with
// Begin's bookkeeping. Caller holds g.mu with g.draining false, so the
// previous drain's epoch is parked and applied.
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
