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
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
)

// Log-slot layout (within the heap's reserved log area):
//
//	0:  status (8)  — 0 idle, 1 committed
//	8:  count  (8)  — number of entries
//	16: entries, 24 bytes each: kind (8) | a (8) | b (8)
//
// For kindWrite entries the kind word also carries the dirty-line mask in
// bits 8..11: bit i set means line i of the block was modified and must be
// copied to the original. Mask 0 means every line (the pre-mask format).
const (
	slotStatus  = 0
	slotCount   = 8
	slotEntries = 16
	entrySize   = 24

	statusIdle      = 0
	statusCommitted = 1

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
)

// The commit retire step writes back the slot header with one
// PWBRange(base, slotEntries); both header words must fit in that range.
// These constants fail to compile if the layout ever moves them out.
const (
	_ = uint64(slotEntries - (slotStatus + 8))
	_ = uint64(slotEntries - (slotCount + 8))
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

// Manager owns the persistent log slots. It implements core.LogHandler so
// that passing it in core.Config replays logs before the recovery GC.
// Begin, End and metrics scrapes share no locks: slots come from a
// lock-free freelist, warm transactions from a lock-free cache, and the
// occupancy gauges from atomics.
type Manager struct {
	state atomic.Pointer[managerState]
	slots slotStack
	cache txCache
	inUse atomic.Int64
	stats obs.FAStats
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

// RecoverLogs implements core.LogHandler: it binds the manager to the heap
// and replays or discards every log slot (§4.2 recovery, which runs before
// the recovery procedure of §4.1.3).
//
// Slots replay in parallel on the recovery worker fleet: committed logs
// have disjoint write sets — the application holds its locks across
// Commit, and a block is only ever in one in-flight transaction — so
// replay order across slots is irrelevant and each slot touches distinct
// blocks. One PSync closes the phase, as in the serial path.
func (m *Manager) RecoverLogs(h *core.Heap, opts core.RecoverOptions) error {
	off, slots, slotSize := h.Mem().LogArea()
	// Layout guards for the commit protocol: the retire write-back
	// covers [base, base+slotEntries), and the durable-commit-point PWB
	// assumes status and count share the slot's first cache line, which
	// holds only if every slot base is line-aligned.
	if slotSize < slotEntries+entrySize {
		return fmt.Errorf("fa: log slot size %d cannot hold a header and one entry", slotSize)
	}
	if off%nvm.LineSize != 0 || uint64(slotSize)%nvm.LineSize != 0 {
		return fmt.Errorf("fa: log area (off %#x, slot size %d) not cache-line aligned", off, slotSize)
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
	pool := h.Pool()
	var replayed atomic.Uint64
	replaySlot := func(i int) {
		base := off + uint64(i*slotSize)
		if pool.ReadUint64(base+slotStatus) == statusCommitted {
			applyEntries(pool, h.Mem(), base, pool.ReadUint64(base+slotCount), nil)
			pool.WriteUint64(base+slotStatus, statusIdle)
			pool.PWB(base + slotStatus)
			replayed.Add(1)
		}
	}
	workers := opts.Workers()
	if workers > slots {
		workers = slots
	}
	if workers <= 1 {
		for i := 0; i < slots; i++ {
			replaySlot(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= slots {
						return
					}
					replaySlot(i)
				}
			}()
		}
		wg.Wait()
	}
	if n := replayed.Load(); n > 0 {
		pool.PSync()
		m.stats.Replays.Add(n)
		h.RecoveryObs().ReplayedTx.Add(n)
	}
	m.state.Store(&managerState{h: h, off: off, size: slotSize, total: slots})
	m.slots.init(slots)
	m.cache.reset(slots)
	m.inUse.Store(0)
	if g := m.group.Load(); g != nil && g.mode == CommitAsync {
		m.reserveDeltaTx(g)
	}
	return nil
}

// AuditCommittedSlots scans the heap's log area and reports an error for
// any slot durably marked committed while its entry count is zero. A
// workload that never commits empty blocks can run this before replay as
// a crash-image audit: a committed zero-count slot is the signature of a
// commit mark that outran its stage-1 log persist (e.g. a delta
// materialization skipping commitStage1Body), whose replay would
// silently drop the transaction. Two caveats: call it before RecoverLogs
// runs (replay retires every committed slot; heap.Open attaches to an
// image without replaying), and only on tear-free
// crash images — a sub-line tear of the retire write-back can
// legitimately persist the zeroed count under the stale committed status
// of a transaction whose apply is already durable (crashmc's Run.Audit
// gates on exactly this).
func AuditCommittedSlots(mem *heap.Heap) error {
	off, slots, slotSize := mem.LogArea()
	pool := mem.Pool()
	for i := 0; i < slots; i++ {
		base := off + uint64(i*slotSize)
		if pool.ReadUint64(base+slotStatus) == statusCommitted &&
			pool.ReadUint64(base+slotCount) == 0 {
			return fmt.Errorf("fa: log slot %d durably committed with zero entries (stage-1 persist missing)", i)
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
// Neither blocks on a lock.
func (m *Manager) Begin() (*Tx, error) {
	st := m.state.Load()
	if st == nil {
		return nil, fmt.Errorf("fa: manager not attached to a heap (pass it as core.Config.LogHandler)")
	}
	g := m.group.Load()
	if tx := m.cache.get(); tx != nil {
		tx.depth = 1
		tx.grp = g
		m.inUse.Add(1)
		m.stats.Begun.Inc()
		m.stats.TxReuse.Inc()
		return tx, nil
	}
	slot, ok := m.slots.pop()
	if !ok {
		// A racing release may have parked its Tx after our cache scan.
		if tx := m.cache.get(); tx != nil {
			tx.depth = 1
			tx.grp = g
			m.inUse.Add(1)
			m.stats.Begun.Inc()
			m.stats.TxReuse.Inc()
			return tx, nil
		}
		return nil, fmt.Errorf("fa: no free log slot (%d concurrent failure-atomic blocks)", st.total)
	}
	m.inUse.Add(1)
	m.stats.Begun.Inc()
	return &Tx{
		m:          m,
		h:          st.h,
		slot:       slot,
		base:       st.off + uint64(slot*st.size),
		maxEntries: uint64((st.size - slotEntries) / entrySize),
		depth:      1,
		inflight:   make(map[core.Ref]int),
		allocs:     make(map[core.Ref]bool),
		proxies:    make(map[core.Ref]core.PObject),
		flush:      nvm.NewFlushSet(),
		blocks:     st.h.Mem().NewTransientPool(transientCap),
		grp:        g,
	}, nil
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
	m := tx.m
	m.inUse.Add(-1)
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
// the code Commit does (see hooks_test.go), and so the group-commit
// coordinator (group.go) can interleave stage bodies across transactions
// with shared barriers between them. Each stage has a Body half — the
// stores and PWBs — and a per-Tx wrapper that appends the fence the
// solo protocol needs at that point.

// commitStage1 persists the log and the write set and fences. Dirty-line
// masks are patched into the write entries first — replay must know which
// in-flight lines are meaningful — then every line marked during the
// block (in-flight lines per store, allocated blocks, the log itself) is
// written back once through the flush set. No fence was needed before
// this point because the original data is untouched (§4.2).
func (tx *Tx) commitStage1() {
	tx.commitStage1Body()
	tx.h.Pool().PFence()
}

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

// commitStage2 is the durable commit point.
func (tx *Tx) commitStage2() {
	tx.commitStage2Body()
	tx.h.Pool().PFence()
}

func (tx *Tx) commitStage2Body() {
	pool := tx.h.Pool()
	pool.WriteUint64(tx.base+slotStatus, statusCommitted)
	pool.PWB(tx.base + slotStatus)
}

// commitStage3 applies the log — masked line copies over the originals,
// validations, deletions — with no internal ordering: a crash here replays
// the committed log. When durable, the copied lines are written back
// coalesced and fenced; the crash hook passes durable=false to model a
// crash before any of the apply reached NVMM.
func (tx *Tx) commitStage3(durable bool) {
	if !durable {
		applyEntries(tx.h.Pool(), tx.h.Mem(), tx.base, tx.count, tx.flush)
		tx.flush.Reset()
		return
	}
	tx.commitStage3Body()
	tx.h.Pool().PFence()
}

func (tx *Tx) commitStage3Body() {
	pool := tx.h.Pool()
	applyEntries(pool, tx.h.Mem(), tx.base, tx.count, tx.flush)
	tx.noteFlush(tx.flush.Flush(pool))
}

// commitRetireBody retires the log before the slot can be reused;
// otherwise a crash could replay a stale committed log polluted with
// fresh entries. The write-back covers the whole header — status and
// count — which the compile-time guards above pin inside
// [base, base+slotEntries).
func (tx *Tx) commitRetireBody() {
	pool := tx.h.Pool()
	pool.WriteUint64(tx.base+slotStatus, statusIdle)
	pool.WriteUint64(tx.base+slotCount, 0)
	pool.PWBRange(tx.base, slotEntries)
}

// commitCleanup is the volatile tail of a committed block: recycle
// in-flight blocks into the transient pool, push freed objects' blocks to
// the free queue, neutralize freed proxies, release the Tx and run the
// deferred follow-ups. Callers run it only after the retire is durable.
func (tx *Tx) commitCleanup() {
	mem := tx.h.Mem()
	for i := range tx.writes {
		tx.blocks.Put(tx.writes[i].inf)
	}
	for _, ref := range tx.freed {
		// Exactly one free per object: through the proxy when we hold it
		// (which also neutralizes it), directly otherwise.
		if po, ok := tx.proxies[ref]; ok && po.Core().Ref() == ref {
			tx.h.Free(po)
		} else {
			mem.FreeObject(ref)
		}
	}
	deferred := tx.deferred
	tx.m.stats.Committed.Inc()
	tx.release()
	for _, fn := range deferred {
		fn()
	}
}

func (tx *Tx) noteFlush(flushed, saved uint64) {
	tx.m.stats.FlushedLines.Add(flushed)
	tx.m.stats.SavedLines.Add(saved)
}

// commitPerTx is the solo redo protocol of §4.2 — the correctness oracle
// the group modes are checked against:
//
//  1. persist the log and the write set (one coalesced write-back), fence;
//  2. durable commit point (mark committed), fence;
//  3. apply, flushed and fenced;
//  4. retire the log, psync;
//  5. volatile cleanup.
func (tx *Tx) commitPerTx() {
	tx.commitStage1()
	tx.commitStage2()
	tx.commitStage3(true)
	tx.commitRetireBody()
	tx.h.Pool().PSync()
	tx.commitCleanup()
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
// into a later generation of this slot. Replay is bounded by the durable
// count, and every committing generation rewrites count and fences it
// (stage 1) before its committed mark can possibly persist (stage 2), so
// a replayed count always describes that generation's own entries. The
// abort→reuse→crash regression in hooks_test.go pins this.
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
