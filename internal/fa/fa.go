// Package fa implements J-PFA, the failure-atomic blocks of J-NVM (§4.2).
//
// The algorithm is the paper's adaptation of Romulus to the block heap:
// during a block (here: a transaction, Go's idiom for the per-thread FA
// nesting counter of §3.2), every modification goes to a per-transaction
// persistent redo log. Writes to *valid* objects leave the original data
// intact: every store is logged as the aligned 8-byte words it touches,
// each word one entry carrying its new value; writes to objects allocated
// inside the block go straight to the (invalid, hence crash-dead) object.
// Commit flushes the log and the allocated objects, fences, durably marks
// the log committed, fences again, and then applies the log — storing
// logged words over the originals, validating allocations and executing
// deletions — without further ordering. A crash replays a committed log
// (the apply phase is idempotent) and discards an uncommitted one, whose
// side effects are all invalid or unreachable and therefore reclaimed by
// the recovery GC.
//
// Durability contract: Commit (per-Tx mode) or AwaitDurable
// (async mode) returns ⇒ the block's commit mark is durable ⇒ recovery
// replays it, in commit order, unless its apply is already durable. Those
// two fences are all a commit pays. The mark is the commit's sequence
// number; one durable watermark W in the superblock retires logs (a slot
// is live iff its mark exceeds W), and the two orderings retirement needs
// — apply before W, W before the slot and the freed objects are reused —
// ride on the fences of later commits (retireQueue).
// Until a commit is retired, a crash replays it over whatever its blocks
// hold, so code that also writes those blocks outside failure-atomic
// blocks must call Manager.Retire first.
//
// The commit pipeline is built for multicore scalability:
//
//   - Slot affinity. Each log slot has one Tx, built at attach, whose
//     slices and flush set stay warm across the blocks it runs; a free slot
//     lives on one freelist, so Begin is one pop and release one push.
//   - Flush coalescing. Stores mark dirty cache lines in a per-Tx
//     nvm.FlushSet; commit writes each line back once, merging adjacent
//     lines into single PWBRange calls. A field written five times
//     flushes once.
package fa

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
)

// Log-slot layout (within the heap's reserved log area):
//
//	0:  status (8)  — the commit's sequence number; the slot is live
//	                  (committed, not retired) iff status > W, the heap's
//	                  retired watermark (heap.LogRetired)
//	8:  count  (8)  — number of entries
//	16: entries, 24 bytes each: kind (8) | a (8) | b (8)
//
// A kindWord entry carries its word's new value itself: it is how every
// transactional store to a valid block (access.go) and every delta fold
// (delta.go) land. Heap format version 3 introduced it; replay validates
// every live slot's entries (checkSlots) before it writes any.
const (
	slotStatus  = heap.LogSlotSeq
	slotCount   = 8
	slotEntries = 16
	entrySize   = 24

	// kindCopy (a = original block, b = an in-flight copy of it, the
	// kind word's bits 8..11 its dirty lines) was written by earlier
	// builds. No build writes it any more and checkEntry refuses it.
	kindCopy  = 1
	kindAlloc = 2 // a = new object ref
	kindFree  = 3 // a = freed object ref
	kindWord  = 4 // a = pool offset of an 8-byte payload word, b = its new value

	kindMask = 0xff

	// CommitBarriers is what one commit pays under every protocol: the
	// fence that orders log and write set before the mark, and the fence
	// that makes the mark durable. An epoch pays them once for its batch.
	CommitBarriers = 2

	// retireMax bounds the commits (an epoch is one) parked behind W, and
	// retireBlocksMax the freed objects any one of them may withhold from
	// the allocator. Past either, the committer that parks pays
	// retirement's two fences itself, so what parked commits hold cannot
	// pile up behind committers whose fences never come, and a large
	// epoch does not keep the blocks it freed out of the next one's hands.
	retireMax       = 8
	retireBlocksMax = 128
)

// slotCap is how many entries a log slot of size bytes holds: one
// transaction's capacity, and the cap of the delta ledger (delta.go),
// which one drain lands in one slot.
func slotCap(size int) int { return (size - slotEntries) / entrySize }

// managerState is the immutable heap binding, stored once by RecoverLogs
// so hot-path readers never take a lock.
type managerState struct {
	h     *core.Heap
	total int
	txs   []*Tx // txs[i] runs every block of log slot i
}

// slotFreelist holds the free log-slot indices: a LIFO stack under one
// mutex. A fresh one pops slots 0, 1, 2, ... in order, and the last slot
// pushed is the next one popped.
type slotFreelist struct {
	mu   sync.Mutex
	free []int // the top is the last element
}

func (s *slotFreelist) init(n int) {
	s.free = make([]int, n)
	for i := range s.free {
		s.free[i] = n - 1 - i
	}
}

func (s *slotFreelist) pop() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return 0, false
	}
	idx := s.free[n-1]
	s.free = s.free[:n-1]
	return idx, true
}

func (s *slotFreelist) push(idx int) {
	s.mu.Lock()
	s.free = append(s.free, idx)
	s.mu.Unlock()
}

// retireQueue is the one retirement path of every commit protocol: the
// FIFO of commits between their durable mark and the reuse of what they
// hold (DESIGN.md §11).
//
// A commit enters at its mark, in sequence order, and parks once its apply
// is written back. It leaves in two steps, each riding on a barrier some
// later commit issues anyway:
//
//  1. apply → W. Once a barrier that began after the apply's write-backs
//     has completed, advance stores the commit's sequence number to W
//     (write-back unfenced) and hands the commit to the caller.
//  2. W → reuse. Once the caller's next barrier has covered W, it
//     recycles the commit: slot to the freelist, freed objects to the
//     free queue.
//
// In steady state both barriers are the next commit's own two, so
// retirement costs one write-back of W's line and no fence. W only moves
// over a prefix of the FIFO, so it never passes a sequence number whose
// mark is not durable yet, and recovery, which replays live slots in
// sequence order, always sees a gap-free suffix of the commit order.
type retireQueue struct {
	// fences numbers the barriers whose completion advance is told about;
	// a barrier takes its number before it is issued, so a commit that
	// reads n after its apply is covered by every barrier numbered > n.
	fences atomic.Uint64
	// parked counts commits (an epoch is one) applied and not yet
	// recycled: what forced retirement can still give back.
	parked atomic.Int64

	mu   sync.Mutex
	seq  uint64 // last sequence number issued
	fifo []*Tx  // marked commits in sequence order; an epoch is its first Tx
}

// beginFence numbers a barrier the caller is about to issue.
func (q *retireQueue) beginFence() uint64 { return q.fences.Add(1) }

// advance is called when barrier number fence has completed. It takes the
// longest prefix of the FIFO whose applies that barrier covered, stores
// the last one's sequence number to W and appends the prefix to done —
// the caller recycles it after its next barrier. Then next, if any, gets
// the next sequence number and joins the FIFO.
func (q *retireQueue) advance(mem *heap.Heap, fence uint64, next *Tx, done []*Tx) []*Tx {
	q.mu.Lock()
	defer q.mu.Unlock() // the W store may panic, and every later commit takes q.mu
	n := 0
	for n < len(q.fifo) {
		// applied holds the fence count at park time plus one.
		if a := q.fifo[n].applied.Load(); a == 0 || a > fence {
			break
		}
		n++
	}
	if n > 0 {
		done = append(done, q.fifo[:n]...)
		mem.SetLogRetired(q.fifo[n-1].seq)
		rest := copy(q.fifo, q.fifo[n:])
		clear(q.fifo[rest:])
		q.fifo = q.fifo[:rest]
	}
	if next != nil {
		q.seq++
		next.seq = q.seq
		next.applied.Store(0)
		q.fifo = append(q.fifo, next)
	}
	return done
}

// headApplied reports whether forcing retirement can achieve anything: the
// oldest commit in the FIFO has finished its apply.
func (q *retireQueue) headApplied() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.fifo) > 0 && q.fifo[0].applied.Load() != 0
}

// Manager owns the persistent log slots. It implements core.LogHandler so
// that passing it in core.Config replays logs before the recovery GC; it
// attaches to one heap, once. A slot, with its Tx, comes from a freelist
// under one mutex, held only for the pop or the push; metrics scrapes
// read the occupancy gauges from atomics. A commit takes the retire
// queue's lock once, between its two fences.
type Manager struct {
	state  atomic.Pointer[managerState]
	slots  slotFreelist
	inUse  atomic.Int64
	stats  obs.FAStats
	retire retireQueue
	// group holds the async epoch pipeline's state (group.go); nil
	// selects the default per-Tx protocol. SetGroupCommit stores it once.
	group atomic.Pointer[groupState]
}

// Obs returns the manager's live counters.
func (m *Manager) Obs() *obs.FAStats { return &m.stats }

// ObsSnapshot captures the counters plus slot-occupancy gauges. It reads
// only atomics, so metrics scrapes never contend with Begin.
func (m *Manager) ObsSnapshot() obs.FASnapshot {
	var total uint64
	if st := m.state.Load(); st != nil {
		total = uint64(st.total)
	}
	snap := m.stats.Snapshot(total, uint64(m.inUse.Load()))
	m.groupSnapshot(&snap)
	return snap
}

// NewManager creates an unattached manager. Pass it as the LogHandler of
// core.Config; it attaches to the heap during Open.
func NewManager() *Manager { return &Manager{} }

// LiveSlot is one committed, unretired log slot: what recovery replays.
type LiveSlot struct {
	Index   int
	Seq     uint64 // the commit's sequence number (> W)
	Entries uint64
}

// LiveSlots reads the heap's log area: the retired watermark W and the
// slots whose status exceeds it, in ascending sequence order (slots of one
// async epoch share a sequence number and sort by index).
func LiveSlots(mem *heap.Heap) (w uint64, live []LiveSlot) {
	off, slots, slotSize := mem.LogArea()
	pool := mem.Pool()
	w = mem.LogRetired()
	for i := 0; i < slots; i++ {
		base := off + uint64(i*slotSize)
		if seq := pool.ReadUint64(base + slotStatus); seq > w {
			live = append(live, LiveSlot{Index: i, Seq: seq, Entries: pool.ReadUint64(base + slotCount)})
		}
	}
	sort.Slice(live, func(a, b int) bool {
		if live[a].Seq != live[b].Seq {
			return live[a].Seq < live[b].Seq
		}
		return live[a].Index < live[b].Index
	})
	return w, live
}

// RecoverLogs implements core.LogHandler: it binds the manager to the heap
// and replays every live log slot (§4.2 recovery, which runs before the
// recovery procedure of §4.1.3), then retires them all. A manager attaches
// once; a second heap, or a second open of the same one, is refused.
//
// Live slots replay in ascending sequence order, so two committed logs
// that touch one block — a parked commit and its successor — land in
// commit order (slots that share a number are one async epoch, whose
// write sets are disjoint). A fence orders the replayed lines before W
// covers them; a psync closes the phase.
func (m *Manager) RecoverLogs(h *core.Heap) error {
	if m.state.Load() != nil {
		return fmt.Errorf("fa: manager already attached to a heap (use one manager per open)")
	}
	off, slots, slotSize := h.Mem().LogArea()
	if slotSize < slotEntries+entrySize {
		return fmt.Errorf("fa: log slot size %d cannot hold a header and one entry", slotSize)
	}
	pool, mem := h.Pool(), h.Mem()
	w, live := LiveSlots(mem)
	if err := checkSlots(mem, live); err != nil {
		return err
	}
	for _, s := range live {
		applyEntries(pool, mem, off+uint64(s.Index*slotSize), s.Entries, nil)
	}
	if n := uint64(len(live)); n > 0 {
		pool.PFence()
		w = live[n-1].Seq
		mem.SetLogRetired(w)
		pool.PSync()
		m.stats.Replays.Add(n)
		h.RecoveryObs().ReplayedTx.Add(n)
	}
	st := &managerState{h: h, total: slots, txs: make([]*Tx, slots)}
	for i := range st.txs {
		st.txs[i] = &Tx{
			m:          m,
			h:          h,
			slot:       i,
			base:       off + uint64(i*slotSize),
			maxEntries: uint64(slotCap(slotSize)),
			proxies:    make(map[core.Ref]core.PObject),
			flush:      nvm.NewFlushSet(),
		}
	}
	m.slots.init(slots)
	m.retire.seq = w
	m.state.Store(st)
	return nil
}

// AuditCommittedSlots scans the heap's log area before replay and reports
// an error for a live slot that cannot be the trace of a correct commit:
// one whose entry count is zero — an empty block never marks its slot, so
// this is the signature of a commit mark that outran its stage-1 log
// persist (e.g. a delta materialization skipping commitStage1Body), whose
// replay would silently drop the transaction — or one whose sequence
// number is further above W than there are slots, since every sequence
// number between W and the newest mark is held by a distinct slot (or
// shared by one epoch's) — or one holding an entry replay must not apply
// (checkSlots). Call it before RecoverLogs runs: replay retires every live
// slot (heap.Open attaches to an image without replaying).
func AuditCommittedSlots(mem *heap.Heap) error {
	_, slots, _ := mem.LogArea()
	w, live := LiveSlots(mem)
	for _, s := range live {
		if s.Entries == 0 {
			return fmt.Errorf("fa: log slot %d (seq %d) durably committed with zero entries (stage-1 persist missing)", s.Index, s.Seq)
		}
		if s.Seq-w > uint64(slots) {
			return fmt.Errorf("fa: log slot %d carries seq %d, %d past the retired watermark %d with only %d slots", s.Index, s.Seq, s.Seq-w, w, slots)
		}
	}
	return checkSlots(mem, live)
}

// checkSlots validates every live slot before replay writes anything: the
// entry count fits the slot, and each entry is one a commit can have
// logged (checkEntry). A corrupt slot is an error naming it and the entry;
// replaying it could store a word anywhere in the pool.
func checkSlots(mem *heap.Heap, live []LiveSlot) error {
	off, _, slotSize := mem.LogArea()
	fit := uint64(slotCap(slotSize))
	for _, s := range live {
		if s.Entries > fit {
			return fmt.Errorf("fa: live log slot %d (seq %d) records %d entries, a slot holds %d", s.Index, s.Seq, s.Entries, fit)
		}
		base := off + uint64(s.Index*slotSize)
		for e := uint64(0); e < s.Entries; e++ {
			if err := checkEntry(mem, base+slotEntries+e*entrySize); err != nil {
				return fmt.Errorf("fa: live log slot %d (seq %d) entry %d: %w", s.Index, s.Seq, e, err)
			}
		}
	}
	return nil
}

// checkEntry reports why the entry at eoff cannot be replayed: an unknown
// kind, a block copy (only a crashed pool of an earlier build holds one
// live), an alloc or free of a ref outside the arena, or a word that is
// misaligned or not in a block's payload — outside the arena means in the
// superblock, the class table or the log area itself.
func checkEntry(mem *heap.Heap, eoff uint64) error {
	pool := mem.Pool()
	word := pool.ReadUint64(eoff)
	a := pool.ReadUint64(eoff + 8)
	start := mem.BlockRef(0)
	end := start + mem.NBlocks()*heap.BlockSize
	inArena := func(r uint64) bool { return r >= start && r < end }
	switch kind := word & kindMask; kind {
	case kindCopy:
		return fmt.Errorf("block-copy entry (kind %d) of block %#x is no longer replayed; recover the pool with the build that crashed on it", kind, a)
	case kindAlloc, kindFree:
		if !inArena(a) {
			return fmt.Errorf("allocation or free of %#x outside the arena [%#x, %#x)", a, start, end)
		}
	case kindWord:
		if a%8 != 0 || !inArena(a) || (a-start)%heap.BlockSize < heap.HeaderSize {
			return fmt.Errorf("word at %#x is not an aligned block payload word of the arena [%#x, %#x)", a, start, end)
		}
	default:
		return fmt.Errorf("unknown kind %d", kind)
	}
	return nil
}

// applyEntries applies a log slot's entries — the shared body of the
// commit apply phase, the crash-staging test hook and recovery replay
// (idempotent: a crash mid-replay just replays again on the next open).
// With a FlushSet the dirty lines are accumulated for a coalesced
// write-back by the caller; with fs == nil each word flushes immediately.
// It returns the validity flips it wrote back, one per allocation and
// free: a kindFree entry's is the freed object's one invalidation, which
// the reclaim that recycles the object does not repeat.
func applyEntries(pool *nvm.Pool, mem *heap.Heap, base, count uint64, fs *nvm.FlushSet) (flips uint64) {
	for e := uint64(0); e < count; e++ {
		eoff := base + slotEntries + e*entrySize
		word := pool.ReadUint64(eoff)
		a := pool.ReadUint64(eoff + 8)
		b := pool.ReadUint64(eoff + 16)
		switch word & kindMask {
		case kindAlloc:
			mem.SetValid(a, true)
			flips++
		case kindFree:
			mem.SetValid(a, false)
			flips++
		case kindWord:
			// Atomic because the block is live: lock-free probes
			// (Object.ReadRefAtomic) may load the word while the apply
			// publishes it.
			pool.WriteUint64Atomic(a, b)
			if fs != nil {
				fs.Add(a)
			} else {
				pool.PWB(a)
			}
		}
	}
	return flips
}

// Heap returns the attached heap (nil before recovery ran).
func (m *Manager) Heap() *core.Heap {
	if st := m.state.Load(); st != nil {
		return st.h
	}
	return nil
}

// ErrLogFull is returned when a failure-atomic block outgrows its log slot.
var ErrLogFull = fmt.Errorf("fa: failure-atomic block exceeds log capacity")

// Tx is one failure-atomic block. It is not safe for concurrent use; the
// application serializes access to shared objects exactly as it would in
// the paper's Infinispan integration (lock striping). Each log slot has
// one Tx for the manager's lifetime: a released Tx goes back to the
// freelist with its slot, and the next Begin that pops the slot runs it,
// slices and flush set still warm. Its log is its word index (logged) and
// the list of what Abort frees (DESIGN.md §11).
type Tx struct {
	m          *Manager
	h          *core.Heap
	slot       int
	base       uint64
	maxEntries uint64
	count      uint64
	depth      int

	// written is the write set: the valid blocks the Tx has stored to,
	// with the words it logged (access.go). A Tx writes few distinct
	// blocks, so scanning a slice on each access costs less than a map's
	// insert and clear (80–100 ns a commit in BenchmarkCommitSingleField
	// on a 2-core Xeon). proxies holds only those a caller received
	// (Alloc, AllocSmall, Proxy) or passed in (Free).
	written  []txBlock
	freed    []core.Ref // objects deleted at commit
	proxies  map[core.Ref]core.PObject
	deferred []func() // volatile follow-ups, run only after a commit
	onAbort  []func() // volatile rollbacks, run only on abort
	ordered  []func() // async: OnOrdered hooks, run at enqueue

	flush *nvm.FlushSet

	// grp is the async state sampled at Begin (nil = per-Tx); ticket is
	// the epoch ticket of an enqueued async commit.
	grp    *groupState
	ticket uint64

	// Retirement state (retireQueue). seq is the commit's sequence number,
	// the value of its mark. applied is zero until the apply's write-backs
	// are issued, then the number of barriers begun by then plus one; the
	// committer's store of it hands the Tx to whoever retires it. mates are
	// the other transactions of an epoch whose first Tx this is: they share
	// seq and retire with it. retired is the scratch list of commits this
	// Tx's own commit took from the queue and recycles after its mark fence.
	seq     uint64
	applied atomic.Uint64
	mates   []*Tx
	retired []*Tx

	// reserved marks the group's dedicated delta-materialization
	// transaction (delta.go): release parks it back on its group instead
	// of the freelist, so its slot never rejoins the general pool.
	reserved *groupState

	// blocks counts the blocks this slot has run; every obs.StageSample-th
	// one times its stages with lap (the zero Lap otherwise).
	blocks uint64
	lap    obs.Lap
}

// Defer registers a volatile follow-up (mirror updates, cache fills) that
// runs only if the block commits; an abort drops it. This replaces the
// paper's pattern of updating volatile state after faEnd.
func (tx *Tx) Defer(fn func()) { tx.active(); tx.deferred = append(tx.deferred, fn) }

// OnAbort registers a volatile rollback that runs only if the block
// aborts, letting libraries keep volatile mirrors coherent with the
// persistent state they shadow.
func (tx *Tx) OnAbort(fn func()) { tx.active(); tx.onAbort = append(tx.onAbort, fn) }

// OnOrdered registers a volatile hook that runs once the block's commit is
// ordered before every later block's transactional access to what it
// wrote: after the apply for a per-Tx commit (it is a Defer), after the
// enqueue for an async one, whose queued words then hold such an access
// back until its epoch applies (settleWords). An abort drops it.
func (tx *Tx) OnOrdered(fn func()) {
	if tx.grp == nil {
		tx.Defer(fn)
		return
	}
	tx.active()
	tx.ordered = append(tx.ordered, fn)
}

// Begin opens a failure-atomic block (faStart of Figure 3). Blocks nest:
// inner Begin/Commit pairs on the same Tx only move the nesting counter,
// as with the paper's per-thread counter. Begin pops a free slot and runs
// its Tx. When the freelist is empty while commits are
// parked behind the retired watermark, Begin forces their retirement and
// tries again: a slot that is merely awaiting retirement is not a missing
// slot. Nor, in async mode, is a slot held by a queued or draining commit:
// Begin waits for the drain in flight, or drives one unless the group
// drains manually, and tries again. It fails only when every slot is held
// by an open block.
func (m *Manager) Begin() (*Tx, error) { return m.begin(true) }

// begin is Begin; drain false keeps it off the async queue, for the drain
// itself, which begins its delta materializations holding the group lock.
func (m *Manager) begin(drain bool) (*Tx, error) {
	st := m.state.Load()
	if st == nil {
		return nil, fmt.Errorf("fa: manager not attached to a heap (pass it as core.Config.LogHandler)")
	}
	g := m.group.Load()
	for attempt := 0; ; attempt++ {
		// From the second pass on, async commits first: a commit leaves the
		// async pipeline only once it is parked, so awaitSlots finding none
		// in it means the parked count read next covers them.
		waited := attempt > 0 && drain && g != nil && g.awaitSlots()
		// Read before the pop: a recycled slot reaches the freelist before
		// it leaves the count, so zero here means the pop sees every slot
		// retirement has to give.
		parked := m.retire.parked.Load()
		if slot, ok := m.slots.pop(); ok {
			tx := st.txs[slot]
			tx.blocks++
			tx.lap = obs.StartLap(tx.blocks%obs.StageSample == 0)
			tx.depth = 1
			tx.grp = g
			m.inUse.Add(1)
			m.stats.Begun.Inc()
			m.stats.TxReuse.Inc()
			return tx, nil
		}
		// The second pass also covers a racing release that pushed its slot
		// behind the first pop.
		if attempt > 0 && parked == 0 && !waited {
			return nil, fmt.Errorf("fa: no free log slot (%d concurrent failure-atomic blocks)", st.total)
		}
		if !m.retireParked() && attempt > 0 && !waited {
			// What is parked sits behind a commit still applying, or with
			// a committer between its two fences: let it run.
			runtime.Gosched()
		}
	}
}

// retireParked forces retirement instead of waiting for later commits'
// fences: one barrier to cover the parked applies, W over them, one
// barrier to cover W, then the recycling. It is what Begin and the
// allocators fall back on when the slots or blocks they need are parked,
// what a committer pays past retireMax, and what Retire loops on. It
// reports whether it recycled anything; false means nothing is parked, or
// what is parked waits behind a commit that is still applying.
func (m *Manager) retireParked() bool {
	st := m.state.Load()
	if st == nil || !m.retire.headApplied() {
		return false
	}
	pool := st.h.Pool()
	fence := m.retire.beginFence()
	pool.PFence()
	done := m.retire.advance(st.h.Mem(), fence, nil, nil)
	if len(done) == 0 {
		return false
	}
	m.stats.RetireLines.Inc()
	pool.PFence()
	m.recycle(done)
	return true
}

// Retire retires every parked commit: on return W covers all that was
// committed, nothing is withheld from the slot freelist or the free
// queue, and a restart replays nothing. Closing a stack and switching to
// async commit call it; so must code about to write, outside
// failure-atomic blocks, data that failure-atomic blocks also write. It
// waits out committers still applying, so call it when they are done.
func (m *Manager) Retire() {
	for m.retire.parked.Load() > 0 {
		if !m.retireParked() {
			runtime.Gosched()
		}
	}
}

// recycle returns retired commits' resources, after a barrier has covered
// the W that retired them.
func (m *Manager) recycle(done []*Tx) {
	for _, lead := range done {
		for _, tx := range lead.mates {
			tx.recycle()
		}
		lead.recycle()
		m.retire.parked.Add(-1)
	}
}

// retryAfterRetire reports whether a failed allocation is worth one more
// try: the heap ran out of blocks and forced retirement gave some back.
func (tx *Tx) retryAfterRetire(err error) bool {
	return errors.Is(err, heap.ErrOutOfMemory) && tx.m.retireParked()
}

// Run executes fn inside a failure-atomic block: fn either takes full
// effect or none, across both errors, panics and crashes. This is the
// high-level interface of §2.5 (fa="non-private"), expressed as Go's
// transaction-function idiom.
func (m *Manager) Run(fn func(*Tx) error) error {
	tx, err := m.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			tx.Abort()
			panic(r)
		}
	}()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// release resets the Tx for its slot's next block and pushes the slot
// back on the freelist (the reserved delta Tx goes back to its group).
// The push hands the Tx to the next Begin, so it comes last.
func (tx *Tx) release() {
	tx.depth = 0
	tx.count = 0
	tx.written = tx.written[:0]
	tx.freed = tx.freed[:0]
	clear(tx.proxies)
	// deferred/onAbort are handed to the caller and run after release;
	// truncating in place would let a recycled Tx scribble over a slice
	// still being iterated, so drop the backing arrays.
	tx.deferred = nil
	tx.onAbort = nil
	tx.ordered = nil
	tx.flush.Reset()
	tx.grp = nil
	tx.ticket = 0
	tx.mates = tx.mates[:0]
	if g := tx.reserved; g != nil {
		g.deltaTx.Store(tx)
		return
	}
	tx.m.slots.push(tx.slot)
}

func (tx *Tx) active() {
	if tx.depth <= 0 {
		panic("fa: use of a finished failure-atomic block")
	}
}

// Nest increments the nesting level (an inner faStart).
func (tx *Tx) Nest() { tx.active(); tx.depth++ }

// entryOff returns the pool offset of log entry e.
func (tx *Tx) entryOff(e uint64) uint64 { return tx.base + slotEntries + e*entrySize }

// newEntry writes the kind and a words of one more log entry to NVMM
// (flushed lazily at commit) and returns its offset; the caller stores b.
func (tx *Tx) newEntry(kind uint64, a core.Ref) (uint64, error) {
	if tx.count >= tx.maxEntries {
		return 0, ErrLogFull
	}
	pool := tx.h.Pool()
	eoff := tx.entryOff(tx.count)
	pool.WriteUint64(eoff, kind)
	pool.WriteUint64(eoff+8, a)
	tx.count++
	tx.m.stats.LogEntries.Inc()
	return eoff, nil
}

// appendEntry writes one whole log entry.
func (tx *Tx) appendEntry(kind uint64, a, b core.Ref) error {
	eoff, err := tx.newEntry(kind, a)
	if err == nil {
		tx.h.Pool().WriteUint64(eoff+16, b)
	}
	return err
}

// logWord appends a kindWord entry for the aligned payload word at pool
// offset p and returns the pool offset of the entry's value, which the
// caller stores; the caller has put the word's block in the write set. It
// is the one way a word enters the log: an accessor's store (locate) and
// a delta fold (foldDelta) alike.
func (tx *Tx) logWord(p uint64) (uint64, error) {
	eoff, err := tx.newEntry(kindWord, p)
	if err != nil {
		return 0, err
	}
	tx.m.stats.WordEntries.Inc()
	return eoff + 16, nil
}

// AllocRef allocates a new persistent object inside the block, a pooled
// slot when size fits one (§4.4), and returns its ref. The object is
// invalid until commit, so all writes to it go direct (§4.2): if the
// block aborts or the system crashes, recovery reclaims it.
func (tx *Tx) AllocRef(c *core.Class, size uint64) (core.Ref, error) {
	return tx.alloc(c, size, heap.FitsSmall(size))
}

// Alloc is AllocRef of a block object, returning its proxy.
func (tx *Tx) Alloc(c *core.Class, size uint64) (core.PObject, error) {
	return tx.allocProxy(c, size, false)
}

// AllocSmall is AllocRef of a pooled slot, returning its proxy.
func (tx *Tx) AllocSmall(c *core.Class, payload uint64) (core.PObject, error) {
	return tx.allocProxy(c, payload, true)
}

func (tx *Tx) allocProxy(c *core.Class, size uint64, small bool) (core.PObject, error) {
	ref, err := tx.alloc(c, size, small)
	if err != nil {
		return nil, err
	}
	return tx.Proxy(c, ref), nil
}

// alloc is the block's one allocator; Abort frees what its kindAlloc
// entries name. The new object's lines join the flush set whole —
// headers carry the chain, payloads the zeroing that makes Validate
// deterministic — and are written back with the write set at commit.
func (tx *Tx) alloc(c *core.Class, size uint64, small bool) (core.Ref, error) {
	tx.active()
	ref, blocks, err := tx.h.AllocRef(c, size, small)
	if err != nil && tx.retryAfterRetire(err) {
		ref, blocks, err = tx.h.AllocRef(c, size, small)
	}
	if err != nil {
		return 0, err
	}
	if err := tx.appendEntry(kindAlloc, ref, 0); err != nil {
		tx.h.Mem().FreeObject(ref)
		return 0, err
	}
	if small {
		tx.flush.AddRange(ref, 8+size) // slot mini-header + payload
	}
	for _, b := range blocks {
		tx.flush.AddRange(b, heap.BlockSize)
	}
	return ref, nil
}

// Proxy returns a proxy of class c for the object at ref, which this
// block allocated; an abort detaches it as it frees the object.
func (tx *Tx) Proxy(c *core.Class, ref core.Ref) core.PObject {
	tx.active()
	po := c.Factory(tx.h.Inspect(ref))
	tx.proxies[ref] = po
	return po
}

// Free deletes a persistent object at commit (a deletion recorded in the
// log). The proxy stays usable until the block ends, and is neutralized
// at commit.
func (tx *Tx) Free(po core.PObject) error {
	tx.active()
	ref := po.Core().Ref()
	if ref != 0 {
		tx.proxies[ref] = po
	}
	return tx.FreeRef(ref)
}

// FreeRef is Free for a caller that holds no proxy of the object: the
// object at ref is deleted at commit, and no proxy is built for it.
func (tx *Tx) FreeRef(ref core.Ref) error {
	tx.active()
	if ref == 0 {
		return nil
	}
	if mem := tx.h.Mem(); tx.grp != nil && mem.IsBlockRef(ref) {
		// Async mode: a pending delta on one of the freed blocks would
		// materialize into the same epoch as (or a later epoch than) this
		// free and scribble on a recycled block. Settle each block first.
		for _, b := range mem.Blocks(ref) {
			tx.grp.waitClear(b)
		}
	}
	if err := tx.appendEntry(kindFree, ref, 0); err != nil {
		return err
	}
	tx.freed = append(tx.freed, ref)
	return nil
}

// direct reports whether writes to the object bypass the redo log: true
// for objects that are still invalid (§4.2), which every object the block
// allocated is until its apply.
func (tx *Tx) direct(o *core.Object) bool { return !o.Valid() }

// ---- Commit pipeline stages ----
//
// The stages are split out so the crash-staging test hook executes exactly
// the code Commit does (see hooks_test.go), and so the two protocols —
// per-Tx and epoch (group.go drainEpoch) — differ only in how many
// commits one barrier stands between.

// commitStage1Body persists the log and the allocated objects: every line
// marked during the block (allocated blocks, the log itself) is written
// back once through the flush set. No fence was needed before this point
// because the original data is untouched (§4.2).
//
// Each stage body below adds its write-backs to its stage counter and
// ends its lap: the stages of a sampled block are timed by the same
// helpers the protocols and the crash-staging hook share.
func (tx *Tx) commitStage1Body() {
	pool, st := tx.h.Pool(), &tx.m.stats
	pool.WriteUint64(tx.base+slotCount, tx.count)
	tx.flush.AddRange(tx.base+slotCount, 8+tx.count*entrySize)
	st.Stage1Lines.Add(tx.noteFlush(tx.flush.Flush(pool)))
	tx.lap.Lap(&st.Stage1Ns)
	if tx.grp != nil {
		// An async commit's later stages run in an epoch drain, which
		// its laps do not time.
		tx.lap = obs.Lap{}
	}
}

// commitSeq runs between a commit's two barriers, once barrier number
// fence has completed: the commit (an epoch: its first Tx, mates set)
// takes its sequence number and its place in the retire queue, and W
// advances over every parked commit that barrier covered — their
// write-back of W rides on the mark's fence, after which commitRecycle
// gives their resources back.
func (tx *Tx) commitSeq(fence uint64) {
	tx.lap.Lap(&tx.m.stats.F0Ns)
	tx.retired = tx.m.retire.advance(tx.h.Mem(), fence, tx, tx.retired[:0])
	if len(tx.retired) > 0 {
		tx.m.stats.RetireLines.Inc()
	}
	for _, mate := range tx.mates {
		mate.seq = tx.seq
	}
}

// commitMarkBody writes the commit mark — the durable commit point once
// the next barrier completes.
func (tx *Tx) commitMarkBody() {
	pool := tx.h.Pool()
	pool.WriteUint64(tx.base+slotStatus, tx.seq)
	pool.PWB(tx.base + slotStatus)
	tx.m.stats.MarkLines.Inc()
	tx.lap.Lap(&tx.m.stats.MarkNs)
}

// commitRecycle runs after the mark's barrier, which also covered the W
// commitSeq wrote: what that W retired is reusable now.
func (tx *Tx) commitRecycle() {
	tx.lap.Lap(&tx.m.stats.F1Ns)
	tx.m.recycle(tx.retired)
	clear(tx.retired)
}

// commitApplyBody applies the log — logged words over the originals,
// validations, deletions — and writes the home lines back coalesced, with
// no ordering of its own: a crash replays the live log.
func (tx *Tx) commitApplyBody() {
	pool, st := tx.h.Pool(), &tx.m.stats
	st.ValidLines.Add(applyEntries(pool, tx.h.Mem(), tx.base, tx.count, tx.flush))
	st.ApplyLines.Add(tx.noteFlush(tx.flush.Flush(pool)))
	tx.lap.Lap(&st.ApplyNs)
}

// park is the volatile tail of a commit, run once the apply's write-backs
// are issued. The commit is durable — its mark is — so the deferred
// follow-ups run now, but the slot and the freed objects stay with the Tx
// on the retire queue until W covers it durably (recycle). For an epoch,
// tx is its first Tx and speaks for its mates.
func (tx *Tx) park() {
	m, lap := tx.m, tx.lap
	n := 1 + len(tx.mates)
	tx.detachFreed()
	deferred := tx.deferred
	held := len(tx.freed)
	for _, mate := range tx.mates {
		mate.detachFreed()
		deferred = append(deferred, mate.deferred...)
		held += len(mate.freed)
	}
	m.stats.Committed.Add(uint64(n))
	parked := m.retire.parked.Add(1)
	m.inUse.Add(int64(-n))
	// The store publishes the Tx to whichever goroutine retires it; from
	// here on it is no longer ours.
	tx.applied.Store(m.retire.fences.Load() + 1)
	for _, fn := range deferred {
		fn()
	}
	if parked > retireMax || held > retireBlocksMax {
		m.retireParked()
	}
	lap.Lap(&m.stats.ParkNs)
}

// detachFreed neutralizes the proxies of the objects the block deleted:
// they are gone for the application as of the commit, whenever their
// blocks are recycled.
func (tx *Tx) detachFreed() {
	for _, ref := range tx.freed {
		if po, ok := tx.proxies[ref]; ok && po.Core().Ref() == ref {
			tx.h.Detach(po)
		}
	}
}

// recycle gives back what a retired commit held: freed objects' blocks to
// the free queue, the slot to the freelist. Their kindFree apply already
// invalidated them and W's fence ordered that after the unlink, so the
// heap recycles them without writing them again and, with unlocked
// readers in the heap, after the readers' grace period without a fence
// of their own (heap.FreeInvalidated).
func (tx *Tx) recycle() {
	mem := tx.h.Mem()
	for _, ref := range tx.freed {
		mem.FreeInvalidated(ref)
	}
	tx.release()
}

// noteFlush counts the lines a flush-set write-back coalesced away and
// returns the lines it wrote back, for the caller's stage counter.
func (tx *Tx) noteFlush(flushed, saved uint64) uint64 {
	if saved > 0 {
		tx.m.stats.SavedLines.Add(saved)
	}
	return flushed
}

// commitPerTx is the solo redo protocol of §4.2 — the correctness oracle
// the async mode is checked against:
//
//  1. persist the log and the write set (one coalesced write-back), fence;
//  2. take a sequence number, mark the log with it, fence — durable;
//  3. apply, written back, unfenced;
//  4. park: deferred follow-ups run, retirement rides on later fences.
func (tx *Tx) commitPerTx() {
	pool := tx.h.Pool()
	tx.commitStage1Body()
	fence := tx.m.retire.beginFence()
	pool.PFence()
	tx.commitSeq(fence)
	tx.commitMarkBody()
	pool.PFence()
	tx.commitRecycle()
	tx.commitApplyBody()
	tx.park()
}

// Commit ends the block (faEnd). Outermost commit runs the commit
// protocol selected by the manager's commit mode; when it returns, the
// block is durable (per-Tx mode) or ordered behind the durability
// watermark (async mode — use CommitTicket to await it).
func (tx *Tx) Commit() error {
	_, err := tx.CommitTicket()
	return err
}

// CommitTicket is Commit exposing the async epoch ticket: in
// CommitAsync mode the outermost commit returns immediately with a
// non-zero ticket to pass to Manager.AwaitDurable. In per-Tx mode (and
// for nested commits) the ticket is 0 and durability follows Commit's
// usual rule.
func (tx *Tx) CommitTicket() (uint64, error) {
	tx.active()
	tx.depth--
	if tx.depth > 0 {
		return 0, nil
	}
	if tx.count == 0 {
		// Nothing was logged, so there is nothing to make durable or to
		// replay: the block ends without touching its slot. (It also means
		// a live slot never has a zero entry count — AuditCommittedSlots.)
		ordered, deferred := tx.ordered, tx.deferred
		tx.m.stats.Committed.Inc()
		tx.m.inUse.Add(-1)
		tx.release()
		for _, fn := range ordered {
			fn()
		}
		for _, fn := range deferred {
			fn()
		}
		return 0, nil
	}
	tx.lap.Lap(&tx.m.stats.BodyNs)
	if g := tx.grp; g != nil {
		return g.enqueue(tx), nil
	}
	tx.commitPerTx()
	return 0, nil
}

// Abort abandons the block: nothing it did becomes visible. The objects
// of its kindAlloc entries are freed, their proxies detached where it
// handed one out; originals were never touched.
//
// The count reset is volatile on purpose: it cannot leak stale entries
// into a later generation of this slot. The slot's status is a sequence
// number W already covers durably (that is when the slot was handed out),
// and every committing generation rewrites count and fences it (stage 1)
// before its own mark can possibly persist, so a replayed count always
// describes that generation's own entries. The abort→reuse→crash
// regression in group_test.go pins this.
func (tx *Tx) Abort() {
	if tx.depth <= 0 {
		return
	}
	pool := tx.h.Pool()
	pool.WriteUint64(tx.base+slotCount, 0)
	for e := uint64(0); e < tx.count; e++ {
		eoff := tx.entryOff(e)
		if pool.ReadUint64(eoff)&kindMask != kindAlloc {
			continue
		}
		ref := pool.ReadUint64(eoff + 8)
		if po, ok := tx.proxies[ref]; ok {
			tx.h.Detach(po)
		}
		tx.h.Mem().FreeObject(ref)
	}
	rollbacks := tx.onAbort
	tx.m.stats.Aborted.Inc()
	tx.m.inUse.Add(-1)
	tx.release()
	for i := len(rollbacks) - 1; i >= 0; i-- {
		rollbacks[i]()
	}
}

// Heap returns the heap this block operates on.
func (tx *Tx) Heap() *core.Heap { return tx.h }
