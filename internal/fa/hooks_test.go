package fa

// commitPrefix executes the first `stage` steps of the commit protocol and
// then stops dead, simulating a crash inside (or, from stage 4, after)
// Commit. It calls the same stage helpers Commit does, so the staging
// cannot drift from the real protocol:
//
//	0 — nothing (log entries written, unflushed)
//	1 — log + allocated objects flushed and fenced
//	2 — + sequence number taken, durable commit mark
//	3 — + apply ran, but nothing of it was flushed: the log is live and
//	     replay must redo it
//	4 — + apply written back and the commit parked — "applied, not
//	     retired": Commit would have returned here, no barrier has
//	     covered the apply, W does not cover the commit
//	5 — + a later barrier covered the apply and W was stored over the
//	     commit and written back, but nothing has fenced W — "W written,
//	     not fenced": the slot and the freed objects are still
//	     withheld
func (tx *Tx) commitPrefix(stage int) {
	pool, mem, q := tx.h.Pool(), tx.h.Mem(), &tx.m.retire
	var fence uint64
	if stage >= 1 {
		tx.commitStage1Body()
		fence = q.beginFence()
		pool.PFence()
	}
	if stage >= 2 {
		tx.commitSeq(fence)
		tx.commitMarkBody()
		pool.PFence()
		tx.commitRecycle()
	}
	if stage == 3 {
		applyEntries(pool, mem, tx.base, tx.count, tx.flush)
		tx.flush.Reset()
	}
	if stage >= 4 {
		tx.commitApplyBody()
		tx.park()
	}
	if stage >= 5 {
		fence = q.beginFence()
		pool.PFence()
		q.advance(mem, fence, nil, nil)
	}
	// The crash happens here: nothing recycled, nothing released.
}

// drainEpochPrefix pulls the async queue and delta ledger and executes
// the first `stage` fence windows of the epoch pipeline (group.go
// drainEpoch), then stops dead, simulating a crash inside a drain. It
// composes the same stage helpers drainEpoch does — materializeLocked,
// epochStage1, the per-Tx stage bodies — so the staging cannot drift
// from the real protocol:
//
//	1 — stage 1 complete (detached materializations included) + F0
//	2 — + sequence number, every commit mark written back + F1, the
//	     epoch commit point
func (m *Manager) drainEpochPrefix(stage int) {
	g := m.group.Load()
	g.mu.Lock()
	batch := g.queue
	dtxs, _ := g.materializeLocked()
	g.queue = nil
	g.mu.Unlock()
	all := append(dtxs, batch...)
	pool := m.state.Load().h.Pool()
	var fence uint64
	if stage >= 1 {
		epochStage1(all)
		fence = m.retire.beginFence()
		pool.PFence() // F0
	}
	if stage >= 2 {
		lead := all[0]
		lead.mates = all[1:]
		lead.commitSeq(fence)
		for _, tx := range all {
			tx.commitMarkBody()
		}
		pool.PFence() // F1
	}
	// The crash happens here: no apply, no park.
}
