// Package fa implements J-PFA, the failure-atomic blocks of J-NVM (§4.2).
//
// The algorithm is the paper's adaptation of Romulus to the block heap:
// during a block (here: a transaction, Go's idiom for the per-thread FA
// nesting counter of §3.2), every modification goes to a per-transaction
// persistent redo log. Writes to *valid* objects are redirected to
// in-flight copies of the touched blocks, leaving the original data
// intact; writes to objects allocated inside the block go straight to the
// (invalid, hence crash-dead) object. Commit flushes log and in-flight
// blocks, fences, durably marks the log committed, fences again, and then
// applies the log — copying in-flight payloads over the originals,
// validating allocations and executing deletions — without further
// ordering. A crash replays a committed log (the apply phase is
// idempotent) and discards an uncommitted one, whose side effects are all
// invalid or unreachable and therefore reclaimed by the recovery GC.
//
// Durability contract: Commit (per-Tx and group modes) or AwaitDurable
// (async mode) returns ⇒ the block's commit mark is durable ⇒ recovery
// replays it, in commit order, unless its apply is already durable. Those
// two fences are all a commit pays. The mark is the commit's sequence
// number; one durable watermark W in the superblock retires logs (a slot
// is live iff its mark exceeds W), and the two orderings retirement needs
// — apply before W, W before the slot, the in-flight blocks and the freed
// objects are reused — ride on the fences of later commits (retireQueue).
// Until a commit is retired, a crash replays it over whatever its blocks
// hold, so code that also writes those blocks outside failure-atomic
// blocks must call Manager.Retire first.
//
// The commit pipeline is built for multicore scalability:
//
//   - Slot affinity. Log slots live on a lock-free freelist, and a
//     released Tx parks — slot, maps and flush set still warm — in a
//     lock-free cache, so a worker's next Begin reuses its previous
//     transaction without touching shared state.
//   - Flush coalescing. Stores mark dirty cache lines in a per-Tx
//     nvm.FlushSet; commit writes each line back once, merging adjacent
//     lines into single PWBRange calls. A field written five times
//     flushes once.
//   - Dirty-line masks. Each write entry records which lines of the
//     in-flight copy were touched (in the high bits of the kind word), so
//     apply and replay copy and flush only those lines instead of the
//     full 248-byte payload. A zero mask means "all lines" — the format
//     older logs decode to.
//   - In-flight block reuse. Each Tx recycles its in-flight blocks
//     through a heap.TransientPool instead of a free-queue round trip per
//     write-set block per transaction.
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
// For kindWrite entries the kind word also carries the dirty-line mask in
// bits 8..11: bit i set means line i of the block was modified and must be
// copied to the original. Mask 0 means every line (the pre-mask format).
const (
	slotStatus  = heap.LogSlotSeq
	slotCount   = 8
	slotEntries = 16
	entrySize   = 24

	kindWrite = 1 // a = original block ref, b = in-flight block ref
	kindAlloc = 2 // a = new object ref
	kindFree  = 3 // a = freed object ref

	kindMask  = 0xff
	maskShift = 8

	linesPerBlock = heap.BlockSize / nvm.LineSize
	lineMaskAll   = 1<<linesPerBlock - 1

	// transientCap bounds the in-flight blocks a Tx keeps warm; overflow
	// spills to the shared free queue.
	transientCap = 32

	// CommitBarriers is what one commit pays under every protocol: the
	// fence that orders log and write set before the mark, and the fence
	// that makes the mark durable. An epoch pays them once for its batch.
	CommitBarriers = 2

	// retireMax bounds the commits (an epoch is one) parked behind W, and
	// retireBlocksMax the in-flight and freed blocks any one of them may
	// withhold from the allocator. Past either, the committer that parks
	// pays retirement's two fences itself, so what parked commits hold
	// cannot pile up behind committers whose fences never come, and a
	// large epoch does not keep its write set's worth of blocks out of
	// the next one's hands.
	retireMax       = 8
	retireBlocksMax = 128
)

// lineMask returns the dirty-line bits for a store of n>0 bytes at
// block-local offset off (header included in the coordinate space).
func lineMask(off, n uint64) uint8 {
	first := off / nvm.LineSize
	last := (off + n - 1) / nvm.LineSize
	return uint8(lineMaskAll>>(linesPerBlock-1-last+first)) << first
}

// managerState is the immutable heap binding, swapped atomically by
// RecoverLogs so hot-path readers never take a lock.
type managerState struct {
	h     *core.Heap
	off   uint64
	size  int
	total int
}

// slotStack is a lock-free Treiber stack of log-slot indices. The head
// word packs a modification tag in the high 32 bits with idx+1 in the low
// 32 (0 = empty); the tag changes on every successful push or pop, which
// defeats the ABA case where a slot is popped, recycled and pushed back
// between a competitor's read and CAS.
type slotStack struct {
	head atomic.Uint64
	next []atomic.Uint32 // next[idx] holds the successor's idx+1
}

func (s *slotStack) init(n int) {
	s.next = make([]atomic.Uint32, n)
	for i := 0; i < n-1; i++ {
		s.next[i].Store(uint32(i + 2))
	}
	var head uint64
	if n > 0 {
		head = 1
	}
	s.head.Store(head)
}

func (s *slotStack) pop() (int, bool) {
	for {
		h := s.head.Load()
		top := uint32(h)
		if top == 0 {
			return 0, false
		}
		next := s.next[top-1].Load()
		if s.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(next)) {
			return int(top - 1), true
		}
	}
}

func (s *slotStack) push(idx int) {
	for {
		h := s.head.Load()
		s.next[idx].Store(uint32(h))
		if s.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(idx+1)) {
			return
		}
	}
}

// txCache parks released transactions — slot attached, maps allocated,
// flush set and transient blocks warm — for the next Begin. Cells are
// claimed and filled by CAS, so a scrape or a racing worker never blocks.
// Capacity equals the slot count: a parked Tx owns its slot, so there is
// always a free cell for a releasing Tx (a transient CAS storm can still
// fail a put, in which case the Tx is dismantled and its slot returned to
// the freelist — correct, just cold).
type txCache struct {
	cells []atomic.Pointer[Tx]
}

func (c *txCache) reset(n int) { c.cells = make([]atomic.Pointer[Tx], n) }

func (c *txCache) get() *Tx {
	for i := range c.cells {
		cell := &c.cells[i]
		if tx := cell.Load(); tx != nil && cell.CompareAndSwap(tx, nil) {
			return tx
		}
	}
	return nil
}

func (c *txCache) put(tx *Tx) bool {
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.Load() == nil && cell.CompareAndSwap(nil, tx) {
			return true
		}
	}
	return false
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
//     recycles the commit: slot and Tx to the cache, in-flight blocks to
//     the transient pool, freed objects to the free queue.
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
	defer q.mu.Unlock() // the W store is an ordering point a fault plane may unwind from
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

// reset empties the queue at (re)attachment: w is the watermark recovery
// left, which every slot's status is at or below.
func (q *retireQueue) reset(w uint64) {
	q.mu.Lock()
	q.seq = w
	q.fifo = nil
	q.mu.Unlock()
	q.parked.Store(0)
}

// Manager owns the persistent log slots. It implements core.LogHandler so
// that passing it in core.Config replays logs before the recovery GC.
// Begin, End and metrics scrapes share no locks: slots come from a
// lock-free freelist, warm transactions from a lock-free cache, and the
// occupancy gauges from atomics. A commit takes the retire queue's lock
// once, between its two fences.
type Manager struct {
	state  atomic.Pointer[managerState]
	slots  slotStack
	cache  txCache
	inUse  atomic.Int64
	stats  obs.FAStats
	retire retireQueue
	// group holds the opt-in group-commit coordination state (group.go);
	// nil selects the default per-Tx protocol.
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
// recovery procedure of §4.1.3), then retires them all.
//
// Live slots replay in ascending sequence order, so two committed logs
// that touch one block — a parked commit and its successor — land in
// commit order. Slots that share a sequence number belong to one async
// epoch, whose write sets are disjoint (groupState.waitClear), and replay
// in parallel on the recovery worker fleet. A fence orders the replayed
// lines before W covers them; a psync closes the phase.
func (m *Manager) RecoverLogs(h *core.Heap, opts core.RecoverOptions) error {
	off, slots, slotSize := h.Mem().LogArea()
	if slotSize < slotEntries+entrySize {
		return fmt.Errorf("fa: log slot size %d cannot hold a header and one entry", slotSize)
	}
	// Discard any async commits queued on a previous attachment: their
	// volatile Tx state is dead, and their durable effects are exactly
	// what the slot replay below decides.
	if g := m.group.Load(); g != nil && g.mode == CommitAsync {
		g.mu.Lock()
		g.queue = nil
		clear(g.pending)
		clear(g.ledger)
		g.order = nil
		clear(g.deltaBlocks)
		g.backlog.Store(0)
		g.durable = g.issued
		g.draining = false
		// The reserved materialization Tx is bound to the previous
		// attachment; drop it — slots.init below reclaims its slot and
		// the re-reservation at the end of this function replaces it.
		g.deltaTx.Store(nil)
		g.mu.Unlock()
	}
	pool, mem := h.Pool(), h.Mem()
	w, live := LiveSlots(mem)
	fit := uint64((slotSize - slotEntries) / entrySize)
	for _, s := range live {
		if s.Entries > fit {
			return fmt.Errorf("fa: live log slot %d (seq %d) records %d entries, a slot holds %d", s.Index, s.Seq, s.Entries, fit)
		}
	}
	replay := func(s LiveSlot) {
		applyEntries(pool, mem, off+uint64(s.Index*slotSize), s.Entries, nil)
	}
	workers := opts.Workers()
	for i := 0; i < len(live); {
		j := i + 1
		for j < len(live) && live[j].Seq == live[i].Seq {
			j++
		}
		epoch := live[i:j]
		if n := min(workers, len(epoch)); n <= 1 {
			for _, s := range epoch {
				replay(s)
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for k := 0; k < n; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1) - 1)
						if i >= len(epoch) {
							return
						}
						replay(epoch[i])
					}
				}()
			}
			wg.Wait()
		}
		i = j
	}
	if n := uint64(len(live)); n > 0 {
		pool.PFence()
		w = live[n-1].Seq
		mem.SetLogRetired(w)
		pool.PSync()
		m.stats.Replays.Add(n)
		h.RecoveryObs().ReplayedTx.Add(n)
	}
	m.state.Store(&managerState{h: h, off: off, size: slotSize, total: slots})
	m.slots.init(slots)
	m.cache.reset(slots)
	m.inUse.Store(0)
	m.retire.reset(w)
	if g := m.group.Load(); g != nil && g.mode == CommitAsync {
		m.reserveDeltaTx(g)
	}
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
// shared by one epoch's). Call it before RecoverLogs runs: replay retires
// every live slot (heap.Open attaches to an image without replaying).
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
	return nil
}

// applyEntries applies a log slot's entries — the shared body of the
// commit apply phase, the crash-staging test hook and recovery replay
// (idempotent: a crash mid-replay just replays again on the next open).
// With a FlushSet the dirty lines are accumulated for a coalesced
// write-back by the caller; with fs == nil each copy flushes immediately.
func applyEntries(pool *nvm.Pool, mem *heap.Heap, base, count uint64, fs *nvm.FlushSet) {
	for e := uint64(0); e < count; e++ {
		eoff := base + slotEntries + e*entrySize
		word := pool.ReadUint64(eoff)
		a := pool.ReadUint64(eoff + 8)
		b := pool.ReadUint64(eoff + 16)
		switch word & kindMask {
		case kindWrite:
			copyDirtyLines(pool, a, b, uint8(word>>maskShift)&lineMaskAll, fs)
		case kindAlloc:
			mem.SetValid(a, true)
		case kindFree:
			mem.SetValid(a, false)
		}
	}
}

// copyDirtyLines copies the masked lines of the in-flight block inf over
// the original block orig, skipping the header word: line 0's copy starts
// at HeaderSize so the original's identity is never overwritten. A zero
// mask copies the whole payload. The copies store word-atomically because
// the destination block is live: lock-free probes (Object.ReadRefAtomic)
// may be reading its ref words while the apply publishes them.
func copyDirtyLines(pool *nvm.Pool, orig, inf uint64, mask uint8, fs *nvm.FlushSet) {
	if mask == 0 {
		pool.CopyWithinAtomic(orig+heap.HeaderSize, inf+heap.HeaderSize, heap.Payload)
		if fs != nil {
			fs.AddRange(orig+heap.HeaderSize, heap.Payload)
		} else {
			pool.PWBRange(orig+heap.HeaderSize, heap.Payload)
		}
		return
	}
	for l := uint64(0); l < linesPerBlock; l++ {
		if mask&(1<<l) == 0 {
			continue
		}
		off, n := l*nvm.LineSize, uint64(nvm.LineSize)
		if l == 0 {
			off, n = heap.HeaderSize, nvm.LineSize-heap.HeaderSize
		}
		pool.CopyWithinAtomic(orig+off, inf+off, n)
		if fs != nil {
			fs.Add(orig + l*nvm.LineSize)
		} else {
			pool.PWBRange(orig+l*nvm.LineSize, nvm.LineSize)
		}
	}
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

// inflightWrite tracks one write-set block: the original, its in-flight
// copy, the log entry carrying the pair, and the dirty-line mask patched
// into that entry at commit.
type inflightWrite struct {
	orig  core.Ref
	inf   core.Ref
	entry uint64
	mask  uint8
}

// Tx is one failure-atomic block. It is not safe for concurrent use; the
// application serializes access to shared objects exactly as it would in
// the paper's Infinispan integration (lock striping). Released
// transactions are recycled through the manager's cache, carrying their
// log slot, maps, flush set and transient blocks to the next Begin.
type Tx struct {
	m          *Manager
	h          *core.Heap
	slot       int
	base       uint64
	maxEntries uint64
	count      uint64
	depth      int

	writes   []inflightWrite
	inflight map[core.Ref]int // original block -> index into writes
	allocs   map[core.Ref]bool
	freed    []core.Ref // proxies to neutralize at commit
	proxies  map[core.Ref]core.PObject
	deferred []func() // volatile follow-ups, run only after a commit
	onAbort  []func() // volatile rollbacks, run only on abort

	flush  *nvm.FlushSet
	blocks *heap.TransientPool

	// grp is the group-commit state sampled at Begin (nil = per-Tx);
	// ticket is the epoch ticket of an enqueued async commit.
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
	// of the shared cache, so its slot never rejoins the general pool.
	reserved *groupState
}

// Defer registers a volatile follow-up (mirror updates, cache fills) that
// runs only if the block commits; an abort drops it. This replaces the
// paper's pattern of updating volatile state after faEnd.
func (tx *Tx) Defer(fn func()) { tx.active(); tx.deferred = append(tx.deferred, fn) }

// OnAbort registers a volatile rollback that runs only if the block
// aborts, letting libraries keep volatile mirrors coherent with the
// persistent state they shadow.
func (tx *Tx) OnAbort(fn func()) { tx.active(); tx.onAbort = append(tx.onAbort, fn) }

// Begin opens a failure-atomic block (faStart of Figure 3). Blocks nest:
// inner Begin/Commit pairs on the same Tx only move the nesting counter,
// as with the paper's per-thread counter. The fast path reuses a warm
// cached transaction; the slow path takes a slot from the freelist.
// Neither blocks on a lock. When both come up empty while commits are
// parked behind the retired watermark, Begin forces their retirement and
// tries again: a slot that is merely awaiting retirement is not a missing
// slot. It fails only when every slot is held by an open block.
func (m *Manager) Begin() (*Tx, error) {
	st := m.state.Load()
	if st == nil {
		return nil, fmt.Errorf("fa: manager not attached to a heap (pass it as core.Config.LogHandler)")
	}
	g := m.group.Load()
	for attempt := 0; ; attempt++ {
		// Read before the scan: a recycled Tx reaches the cache before it
		// leaves the count, so zero here means the scan sees every slot
		// retirement has to give.
		parked := m.retire.parked.Load()
		tx := m.cache.get()
		if tx != nil {
			m.stats.TxReuse.Inc()
		} else if slot, ok := m.slots.pop(); ok {
			tx = m.newTx(st, slot)
		}
		if tx != nil {
			tx.depth = 1
			tx.grp = g
			m.inUse.Add(1)
			m.stats.Begun.Inc()
			return tx, nil
		}
		// The second pass also covers a racing release that parked its Tx
		// behind the first scan.
		if attempt > 0 && parked == 0 {
			return nil, fmt.Errorf("fa: no free log slot (%d concurrent failure-atomic blocks)", st.total)
		}
		if !m.retireParked() && attempt > 0 {
			// What is parked sits behind a commit still applying, or with
			// a committer between its two fences: let it run.
			runtime.Gosched()
		}
	}
}

// newTx builds a cold transaction over a log slot.
func (m *Manager) newTx(st *managerState, slot int) *Tx {
	return &Tx{
		m:          m,
		h:          st.h,
		slot:       slot,
		base:       st.off + uint64(slot*st.size),
		maxEntries: uint64((st.size - slotEntries) / entrySize),
		inflight:   make(map[core.Ref]int),
		allocs:     make(map[core.Ref]bool),
		proxies:    make(map[core.Ref]core.PObject),
		flush:      nvm.NewFlushSet(),
		blocks:     st.h.Mem().NewTransientPool(transientCap),
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
	pool.PFence()
	m.recycle(done)
	return true
}

// Retire retires every parked commit: on return W covers all that was
// committed, nothing is withheld from the slot cache, the transient pools
// or the free queue, and a restart replays nothing. Closing a stack and
// switching the commit mode call it; so must code about to write, outside
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

// release resets the Tx for reuse and parks it in the manager's cache,
// slot still attached. If the cache rejects it (transient CAS storm) the
// Tx is dismantled instead: transient blocks drain to the shared free
// queue and the slot returns to the freelist.
func (tx *Tx) release() {
	tx.depth = 0
	tx.count = 0
	tx.writes = tx.writes[:0]
	clear(tx.inflight)
	clear(tx.allocs)
	tx.freed = tx.freed[:0]
	clear(tx.proxies)
	// deferred/onAbort are handed to the caller and run after release;
	// truncating in place would let a recycled Tx scribble over a slice
	// still being iterated, so drop the backing arrays.
	tx.deferred = nil
	tx.onAbort = nil
	tx.flush.Reset()
	tx.grp = nil
	tx.ticket = 0
	tx.mates = nil
	m := tx.m
	if g := tx.reserved; g != nil {
		g.deltaTx.Store(tx)
		return
	}
	if !m.cache.put(tx) {
		tx.blocks.Drain()
		m.slots.push(tx.slot)
	}
}

func (tx *Tx) active() {
	if tx.depth <= 0 {
		panic("fa: use of a finished failure-atomic block")
	}
}

// Nest increments the nesting level (an inner faStart).
func (tx *Tx) Nest() { tx.active(); tx.depth++ }

// appendEntry writes one log entry to NVMM (flushed lazily at commit).
func (tx *Tx) appendEntry(kind uint64, a, b core.Ref) error {
	if tx.count >= tx.maxEntries {
		return ErrLogFull
	}
	pool := tx.h.Pool()
	eoff := tx.base + slotEntries + tx.count*entrySize
	pool.WriteUint64(eoff, kind)
	pool.WriteUint64(eoff+8, a)
	pool.WriteUint64(eoff+16, b)
	tx.count++
	tx.m.stats.LogEntries.Inc()
	return nil
}

// Alloc allocates a new persistent object inside the block. The object is
// invalid until commit, so all writes to it go direct (§4.2): if the block
// aborts or the system crashes, recovery reclaims it. Its blocks join the
// flush set whole — headers carry the chain, payloads the zeroing that
// makes Validate deterministic — and are written back with the rest of
// the write set at commit.
func (tx *Tx) Alloc(c *core.Class, size uint64) (core.PObject, error) {
	tx.active()
	po, err := tx.h.Alloc(c, size)
	if err != nil && tx.retryAfterRetire(err) {
		po, err = tx.h.Alloc(c, size)
	}
	if err != nil {
		return nil, err
	}
	ref := po.Core().Ref()
	if err := tx.appendEntry(kindAlloc, ref, 0); err != nil {
		tx.h.Free(po)
		return nil, err
	}
	for _, b := range po.Core().BlockRefs() {
		tx.flush.AddRange(b, heap.BlockSize)
	}
	tx.allocs[ref] = true
	tx.proxies[ref] = po
	return po, nil
}

// AllocSmall allocates a pooled small immutable object inside the block.
func (tx *Tx) AllocSmall(c *core.Class, payload uint64) (core.PObject, error) {
	tx.active()
	po, err := tx.h.AllocSmall(c, payload)
	if err != nil && tx.retryAfterRetire(err) {
		po, err = tx.h.AllocSmall(c, payload)
	}
	if err != nil {
		return nil, err
	}
	ref := po.Core().Ref()
	if err := tx.appendEntry(kindAlloc, ref, 0); err != nil {
		tx.h.Free(po)
		return nil, err
	}
	tx.flush.AddRange(ref, 8+payload) // slot mini-header + payload
	tx.allocs[ref] = true
	tx.proxies[ref] = po
	return po, nil
}

// Free deletes a persistent object at commit (a deletion recorded in the
// log). The proxy stays usable until the block ends.
func (tx *Tx) Free(po core.PObject) error {
	tx.active()
	ref := po.Core().Ref()
	if ref == 0 {
		return nil
	}
	if tx.grp != nil {
		// Async mode: a pending delta on one of the freed blocks would
		// materialize into the same epoch as (or a later epoch than) this
		// free and scribble on a recycled block. Settle each block first.
		for _, b := range po.Core().BlockRefs() {
			tx.grp.waitClear(b)
		}
	}
	if err := tx.appendEntry(kindFree, ref, 0); err != nil {
		return err
	}
	tx.freed = append(tx.freed, ref)
	tx.proxies[ref] = po
	return nil
}

// direct reports whether writes to the object bypass the redo log: true
// for objects that are still invalid (freshly allocated, §4.2).
func (tx *Tx) direct(o *core.Object) bool {
	return tx.allocs[o.Ref()] || !o.Valid()
}

// inflightFor returns the write-set index for the block orig, creating the
// in-flight copy — recycled from the Tx's transient pool when possible —
// on first touch.
func (tx *Tx) inflightFor(orig core.Ref) (int, error) {
	if i, ok := tx.inflight[orig]; ok {
		return i, nil
	}
	if tx.grp != nil {
		// Async mode: the block may still be queued for apply by an
		// earlier epoch; snapshotting it before that apply would fork
		// history. Drain first.
		tx.grp.waitClear(orig)
	}
	inf, _, err := tx.blocks.Get()
	if err != nil && tx.retryAfterRetire(err) {
		inf, _, err = tx.blocks.Get()
	}
	if err != nil {
		return 0, err
	}
	tx.h.Pool().CopyWithin(inf+heap.HeaderSize, orig+heap.HeaderSize, heap.Payload)
	if err := tx.appendEntry(kindWrite, orig, inf); err != nil {
		tx.blocks.Put(inf)
		return 0, err
	}
	i := len(tx.writes)
	tx.writes = append(tx.writes, inflightWrite{orig: orig, inf: inf, entry: tx.count - 1})
	tx.inflight[orig] = i
	return i, nil
}

// ---- Commit pipeline stages ----
//
// The stages are split out so the crash-staging test hook executes exactly
// the code Commit does (see hooks_test.go), and so the three protocols —
// per-Tx, combined (group.go commitGrouped) and epoch (group.go
// drainEpoch) — differ only in whose barrier stands between the bodies.

// commitStage1Body persists the log and the write set. Dirty-line masks
// are patched into the write entries first — replay must know which
// in-flight lines are meaningful — then every line marked during the
// block (in-flight lines per store, allocated blocks, the log itself) is
// written back once through the flush set. No fence was needed before
// this point because the original data is untouched (§4.2).
func (tx *Tx) commitStage1Body() {
	pool := tx.h.Pool()
	for i := range tx.writes {
		w := &tx.writes[i]
		pool.WriteUint64(tx.base+slotEntries+w.entry*entrySize, kindWrite|uint64(w.mask)<<maskShift)
	}
	pool.WriteUint64(tx.base+slotCount, tx.count)
	tx.flush.AddRange(tx.base+slotCount, 8+tx.count*entrySize)
	tx.noteFlush(tx.flush.Flush(pool))
}

// commitSeq runs between a commit's two barriers, once barrier number
// fence has completed: the commit (an epoch: its first Tx, mates set)
// takes its sequence number and its place in the retire queue, and W
// advances over every parked commit that barrier covered — their
// write-back of W rides on the mark's fence, after which commitRecycle
// gives their resources back.
func (tx *Tx) commitSeq(fence uint64) {
	tx.retired = tx.m.retire.advance(tx.h.Mem(), fence, tx, tx.retired[:0])
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
}

// commitRecycle runs after the mark's barrier, which also covered the W
// commitSeq wrote: what that W retired is reusable now.
func (tx *Tx) commitRecycle() {
	tx.m.recycle(tx.retired)
	clear(tx.retired)
}

// commitApplyBody applies the log — masked line copies over the
// originals, validations, deletions — and writes the copied lines back
// coalesced, with no ordering of its own: a crash replays the live log.
func (tx *Tx) commitApplyBody() {
	pool := tx.h.Pool()
	applyEntries(pool, tx.h.Mem(), tx.base, tx.count, tx.flush)
	tx.noteFlush(tx.flush.Flush(pool))
}

// park is the volatile tail of a commit, run once the apply's write-backs
// are issued. The commit is durable — its mark is — so the deferred
// follow-ups run now, but the slot, the in-flight blocks and the freed
// objects stay with the Tx on the retire queue until W covers it durably
// (recycle). For an epoch, tx is its first Tx and speaks for its mates.
func (tx *Tx) park() {
	m := tx.m
	n := 1 + len(tx.mates)
	tx.detachFreed()
	deferred := tx.deferred
	held := len(tx.writes) + len(tx.freed)
	for _, mate := range tx.mates {
		mate.detachFreed()
		deferred = append(deferred, mate.deferred...)
		held += len(mate.writes) + len(mate.freed)
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

// recycle gives back what a retired commit held: in-flight blocks to the
// transient pool, freed objects' blocks to the free queue, the Tx and its
// slot to the cache.
func (tx *Tx) recycle() {
	mem := tx.h.Mem()
	for i := range tx.writes {
		tx.blocks.Put(tx.writes[i].inf)
	}
	for _, ref := range tx.freed {
		mem.FreeObject(ref)
	}
	tx.release()
}

func (tx *Tx) noteFlush(flushed, saved uint64) {
	tx.m.stats.FlushedLines.Add(flushed)
	tx.m.stats.SavedLines.Add(saved)
}

// commitPerTx is the solo redo protocol of §4.2 — the correctness oracle
// the group modes are checked against:
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
// protocol selected by the manager's group-commit mode; when it returns,
// the block is durable (sync and group modes) or ordered behind the
// durability watermark (async mode — use CommitTicket to await it).
func (tx *Tx) Commit() error {
	_, err := tx.CommitTicket()
	return err
}

// CommitTicket is Commit exposing the async epoch ticket: in
// CommitAsync mode the outermost commit returns immediately with a
// non-zero ticket to pass to Manager.AwaitDurable. In the other modes
// (and for nested commits) the ticket is 0 and durability follows
// Commit's usual rule.
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
		deferred := tx.deferred
		tx.m.stats.Committed.Inc()
		tx.m.inUse.Add(-1)
		tx.release()
		for _, fn := range deferred {
			fn()
		}
		return 0, nil
	}
	if g := tx.grp; g != nil {
		switch g.mode {
		case CommitGroup:
			tx.commitGrouped(g)
			return 0, nil
		case CommitAsync:
			return g.enqueue(tx), nil
		}
	}
	tx.commitPerTx()
	return 0, nil
}

// Abort abandons the block: nothing it did becomes visible. In-flight
// copies and allocations are recycled; originals were never touched.
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
	for i := range tx.writes {
		tx.blocks.Put(tx.writes[i].inf)
	}
	for ref, po := range tx.proxies {
		if tx.allocs[ref] {
			tx.h.Free(po)
		}
	}
	rollbacks := tx.onAbort
	tx.m.stats.Aborted.Inc()
	tx.m.inUse.Add(-1)
	tx.release()
	for i := len(rollbacks) - 1; i >= 0; i-- {
		rollbacks[i]()
	}
}

// Manager returns the owning manager (used by libraries layered on fa).
func (tx *Tx) Manager() *Manager { return tx.m }

// AsyncCommit reports whether this block commits through an epoch queue:
// Commit acknowledges at enqueue and the apply runs at a later drain. In
// that mode Defer callbacks fire at drain time, so libraries must not
// gate their own critical sections on them (the transactional read path
// already waits out pending epoch applies per block instead).
func (tx *Tx) AsyncCommit() bool { return tx.grp != nil }

// Heap returns the heap this block operates on.
func (tx *Tx) Heap() *core.Heap { return tx.h }
