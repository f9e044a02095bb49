// Package heap implements the persistent block heap of J-NVM (§4.1).
//
// The pool is split into fixed-size 256 B blocks, like the blocks of a file
// system, which eliminates external fragmentation by design: any object can
// always be allocated as a linked list of blocks. Each block starts with a
// one-word header encoding the states of Table 2 of the paper:
//
//	id (15 bits) | valid (1 bit) | next (48 bits)
//
//	id != 0, any valid  -> master block of an object of class id
//	id == 0, valid == 0 -> slave block, or free
//
// Allocation uses a bump pointer plus a volatile free queue; neither needs
// fences because a freshly allocated master block is always invalid, and
// the recovery procedure rebuilds the free queue from reachability (§4.1.3).
//
// Small immutable objects are packed several to a block by pool allocators
// (§4.4); see small.go.
package heap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/nvm"
	"repro/internal/obs"
)

// Ref is a persistent reference: the pool offset of an object's master
// block (block-aligned) or of a pooled slot (interior offset). The zero Ref
// is the persistent null. Storing offsets rather than addresses keeps the
// heap relocatable (§4.4).
type Ref = uint64

const (
	// BlockSize is the size of a heap block. 256 B matches the internal
	// write granularity of Optane DIMMs, which §5.3.5 measures to be the
	// best-performing choice.
	BlockSize = 256
	// HeaderSize is the size of the per-block header word.
	HeaderSize = 8
	// Payload is the usable bytes per block.
	Payload = BlockSize - HeaderSize

	magic = 0x31304d564e4a4f47 // "GOJNVM01", little-endian
	// FormatVersion 2 added the redo log's retired watermark
	// (sbLogRetired) and changed the meaning of a log slot's first word
	// from a committed flag to a commit sequence number (DESIGN.md §11); a
	// version-1 log area cannot be read under that rule. Version 3 added
	// the word entry (a delta fold's summed word carried in the log
	// itself); a version-2 build would skip it on replay and drop
	// acknowledged increments. Every other version is refused.
	FormatVersion = 3

	superblockSize = 4096

	// Class-table geometry: fixed region of classCap 64-byte entries.
	classCap       = 1024
	classEntrySize = 64
	classNameMax   = classEntrySize - 2

	// Superblock field offsets.
	sbMagic       = 0
	sbVersion     = 8
	sbPoolSize    = 16
	sbBlockSize   = 24
	sbBump        = 32 // persistent mirror of the bump pointer (block index)
	sbClassOff    = 40
	sbArenaOff    = 48
	sbNBlocks     = 56
	sbRootRef     = 64
	sbLogOff      = 72
	sbLogSlots    = 80
	sbLogSlotSize = 88
	// Words 96 and 104 are reserved and unread.
	// sbLogRetired is W, the redo log's retired watermark: a log slot is
	// live (committed, to be replayed) iff its sequence word exceeds W. It
	// is one aligned word alone on its cache line, so its write-back
	// persists nothing else and cannot tear.
	sbLogRetired = 128

	// LogSlotSeq is the offset, within a log slot, of the slot's commit
	// sequence word (0 = never committed). Package fa owns the rest of the
	// slot's layout.
	LogSlotSeq = 0
)

// ErrNotFormatted is returned (wrapped) by Open for a pool that holds no
// heap at all — the one Open failure a caller may answer by formatting.
var ErrNotFormatted = errors.New("heap: pool is not a formatted J-NVM heap")

// Header-word packing.
const (
	nextMask   = (1 << 48) - 1
	validBit   = 1 << 48
	classShift = 49
)

// PackHeader builds a block-header word. nextIdx is the arena index of the
// next block plus one (0 means "no next block").
func PackHeader(classID uint16, valid bool, nextIdx uint64) uint64 {
	if classID >= 1<<15 {
		panic("heap: class id overflows 15 bits")
	}
	if nextIdx > nextMask {
		panic("heap: next index overflows 48 bits")
	}
	h := uint64(classID)<<classShift | nextIdx
	if valid {
		h |= validBit
	}
	return h
}

// UnpackHeader splits a block-header word.
func UnpackHeader(h uint64) (classID uint16, valid bool, nextIdx uint64) {
	return uint16(h >> classShift), h&validBit != 0, h & nextMask
}

// Options configures Format.
type Options struct {
	// LogSlots is the number of persistent redo-log slots reserved for
	// failure-atomic blocks (one per concurrent transaction).
	LogSlots int
	// LogSlotSize is the byte size of each redo-log slot.
	LogSlotSize int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.LogSlots == 0 {
		out.LogSlots = 64
	}
	if out.LogSlotSize == 0 {
		out.LogSlotSize = 1 << 14
	}
	return out
}

// Heap is a persistent block heap over an nvm.Pool.
type Heap struct {
	pool *nvm.Pool

	classOff    uint64
	arenaOff    uint64
	nBlocks     uint64
	logOff      uint64
	logSlots    int
	logSlotSize int

	bump atomic.Uint64 // next never-allocated block index; stored under free.mu
	free freeList

	classMu     sync.RWMutex
	classByName map[string]uint16
	classNames  []string // index id-1

	small smallAllocator

	ebr ebrState // deferred reclamation for unlocked readers (ebr.go)

	stats obs.HeapStats // allocator counters (object, small-pool, block source)
}

// Format initializes a pool as an empty heap and returns it opened. Any
// previous content is destroyed.
func Format(pool *nvm.Pool, opts Options) (*Heap, error) {
	opts = opts.withDefaults()
	classOff := uint64(superblockSize)
	logOff := classOff + classCap*classEntrySize
	arenaOff := (logOff + uint64(opts.LogSlots*opts.LogSlotSize) + BlockSize - 1) &^ (BlockSize - 1)
	if arenaOff+BlockSize > pool.Size() {
		return nil, fmt.Errorf("heap: pool of %d bytes too small (need > %d)", pool.Size(), arenaOff)
	}
	nBlocks := (pool.Size() - arenaOff) / BlockSize

	pool.Zero(0, arenaOff) // superblock, class table, log area
	pool.WriteUint64(sbVersion, FormatVersion)
	pool.WriteUint64(sbPoolSize, pool.Size())
	pool.WriteUint64(sbBlockSize, BlockSize)
	pool.WriteUint64(sbBump, 0)
	pool.WriteUint64(sbClassOff, classOff)
	pool.WriteUint64(sbArenaOff, arenaOff)
	pool.WriteUint64(sbNBlocks, nBlocks)
	pool.WriteUint64(sbRootRef, 0)
	pool.WriteUint64(sbLogOff, logOff)
	pool.WriteUint64(sbLogSlots, uint64(opts.LogSlots))
	pool.WriteUint64(sbLogSlotSize, uint64(opts.LogSlotSize))
	// Everything zeroed above is persisted, so a crash cannot bring back a
	// previous heap's class table or log slots. The magic goes in last: a
	// torn format attempt stays unopenable.
	pool.PWBRange(0, arenaOff)
	pool.PFence()
	pool.WriteUint64(sbMagic, magic)
	pool.PWB(sbMagic)
	pool.PSync()
	return Open(pool)
}

// Open attaches to an already formatted pool. It does not run recovery;
// that is the job of the object layer (package core), which owns the
// reachability graph. A pool without the magic word yields ErrNotFormatted;
// any other error means the pool holds a heap this build must not touch:
// another format version (the one check of a pool's format) or a
// superblock whose geometry does not add up.
func Open(pool *nvm.Pool) (*Heap, error) {
	if pool.Size() < superblockSize || pool.ReadUint64(sbMagic) != magic {
		return nil, ErrNotFormatted
	}
	if v := pool.ReadUint64(sbVersion); v != FormatVersion {
		return nil, fmt.Errorf("heap: pool is format version %d, this build reads only version %d (reformat the pool)", v, FormatVersion)
	}
	h := &Heap{
		pool:        pool,
		classOff:    pool.ReadUint64(sbClassOff),
		arenaOff:    pool.ReadUint64(sbArenaOff),
		nBlocks:     pool.ReadUint64(sbNBlocks),
		logOff:      pool.ReadUint64(sbLogOff),
		logSlots:    int(pool.ReadUint64(sbLogSlots)),
		logSlotSize: int(pool.ReadUint64(sbLogSlotSize)),
		classByName: make(map[string]uint16),
	}
	if err := h.checkSuperblock(); err != nil {
		return nil, err
	}
	h.bump.Store(pool.ReadUint64(sbBump))
	h.small.init(h)
	h.loadClassTable()
	return h, nil
}

// checkSuperblock validates the geometry the superblock records before
// anything dereferences it: superblock, class table, log area and arena
// lie inside the pool in that order without overlapping, the log area is
// cache-line aligned slot by slot, the block count is the one the pool
// size implies, and every other word is a value Format or a running heap
// can have written. A hostile or corrupt image gets an error here instead
// of an out-of-bounds panic later.
func (h *Heap) checkSuperblock() error {
	pool, size := h.pool, h.pool.Size()
	bad := func(format string, a ...any) error {
		return fmt.Errorf("heap: corrupt superblock: "+format, a...)
	}
	if got := pool.ReadUint64(sbPoolSize); got != size {
		return fmt.Errorf("heap: pool size %d does not match formatted size %d", size, got)
	}
	if got := pool.ReadUint64(sbBlockSize); got != BlockSize {
		return bad("block size %d, want %d", got, BlockSize)
	}
	// Every region is checked against the pool size before it enters a
	// sum, so none of the arithmetic below can wrap.
	if h.classOff < superblockSize || h.classOff > size || size-h.classOff < classCap*classEntrySize {
		return bad("class table at %#x outside the pool", h.classOff)
	}
	slots, slotSize := pool.ReadUint64(sbLogSlots), pool.ReadUint64(sbLogSlotSize)
	if h.logOff < h.classOff+classCap*classEntrySize || h.logOff > size || h.logOff%nvm.LineSize != 0 {
		return bad("log area at %#x overlaps the class table, leaves the pool or is not line-aligned", h.logOff)
	}
	if slotSize < nvm.LineSize || slotSize%nvm.LineSize != 0 || slotSize > size {
		return bad("log slot size %d (want a multiple of %d inside the pool)", slotSize, nvm.LineSize)
	}
	if slots == 0 || slots > (size-h.logOff)/slotSize {
		return bad("%d log slots of %d bytes do not fit after %#x", slots, slotSize, h.logOff)
	}
	if h.arenaOff < h.logOff+slots*slotSize || h.arenaOff > size || h.arenaOff%BlockSize != 0 {
		return bad("arena at %#x overlaps the log area, leaves the pool or is not block-aligned", h.arenaOff)
	}
	if want := (size - h.arenaOff) / BlockSize; h.nBlocks != want || want == 0 {
		return bad("%d arena blocks recorded, pool size implies %d", h.nBlocks, want)
	}
	if bump := pool.ReadUint64(sbBump); bump > h.nBlocks {
		return bad("bump pointer %d beyond the %d-block arena", bump, h.nBlocks)
	}
	if root := pool.ReadUint64(sbRootRef); root != 0 && (!h.IsBlockRef(root) || root >= h.arenaOff+h.nBlocks*BlockSize) {
		return bad("root reference %#x is not an arena block", root)
	}
	// W only ever takes the sequence number of a slot whose mark is already
	// durable, and that word only grows when the slot is reused, so no
	// crash image holds a W above every slot's sequence word.
	var maxSeq uint64
	for i := uint64(0); i < slots; i++ {
		maxSeq = max(maxSeq, pool.ReadUint64(h.logOff+i*slotSize+LogSlotSeq))
	}
	if w := pool.ReadUint64(sbLogRetired); w > maxSeq {
		return bad("retired watermark %d above the highest log sequence number %d", w, maxSeq)
	}
	return nil
}

// Pool returns the underlying NVMM pool.
func (h *Heap) Pool() *nvm.Pool { return h.pool }

// NBlocks returns the arena capacity in blocks.
func (h *Heap) NBlocks() uint64 { return h.nBlocks }

// Bump returns the current bump pointer (blocks ever allocated from the
// arena top).
func (h *Heap) Bump() uint64 { return h.bump.Load() }

// LogArea returns the offset, slot count and slot size of the persistent
// redo-log region reserved for failure-atomic blocks.
func (h *Heap) LogArea() (off uint64, slots, slotSize int) {
	return h.logOff, h.logSlots, h.logSlotSize
}

// LogRetired returns W, the redo log's retired watermark: recovery replays
// exactly the slots whose sequence word exceeds it.
func (h *Heap) LogRetired() uint64 { return h.pool.ReadUint64(sbLogRetired) }

// SetLogRetired stores W and writes its line back without fencing: the
// caller decides which barrier covers it (package fa lets the next
// commit's do).
func (h *Heap) SetLogRetired(w uint64) {
	h.pool.WriteUint64(sbLogRetired, w)
	h.pool.PWB(sbLogRetired)
}

// Obs exposes the heap's allocator counters to the observability layer.
func (h *Heap) Obs() *obs.HeapStats { return &h.stats }

// ObsSnapshot captures the allocator counters together with the
// point-in-time gauges (bump high-water, free-queue depth, capacity).
func (h *Heap) ObsSnapshot() obs.HeapSnapshot {
	return h.stats.Snapshot(h.bump.Load(), uint64(h.free.len()), h.nBlocks)
}

// RootRef returns the persistent root-map reference recorded in the
// superblock (0 if none was ever published).
func (h *Heap) RootRef() Ref { return h.pool.ReadUint64(sbRootRef) }

// SetRootRef durably publishes the root-map reference. This happens once
// per heap lifetime, so it pays a full flush+fence.
func (h *Heap) SetRootRef(r Ref) {
	h.pool.WriteUint64(sbRootRef, r)
	h.pool.PWB(sbRootRef)
	h.pool.PSync()
}

// ---- Geometry helpers ----

// BlockIndex converts a block-aligned Ref to its arena index.
func (h *Heap) BlockIndex(r Ref) uint64 {
	if r < h.arenaOff || (r-h.arenaOff)%BlockSize != 0 {
		panic(fmt.Sprintf("heap: ref %#x is not a block ref", r))
	}
	return (r - h.arenaOff) / BlockSize
}

// BlockRef converts an arena index to a block-aligned Ref.
func (h *Heap) BlockRef(idx uint64) Ref {
	if idx >= h.nBlocks {
		panic(fmt.Sprintf("heap: block index %d out of arena (%d blocks)", idx, h.nBlocks))
	}
	return h.arenaOff + idx*BlockSize
}

// IsBlockRef reports whether r points at a block header (as opposed to a
// pooled-slot interior offset).
func (h *Heap) IsBlockRef(r Ref) bool {
	return r >= h.arenaOff && (r-h.arenaOff)%BlockSize == 0
}

// ContainingBlock returns the Ref of the block containing the (possibly
// interior) offset r.
func (h *Heap) ContainingBlock(r Ref) Ref {
	if r < h.arenaOff {
		panic(fmt.Sprintf("heap: offset %#x below arena", r))
	}
	return r - (r-h.arenaOff)%BlockSize
}

// Header reads the header word of the block at r.
func (h *Heap) Header(r Ref) uint64 { return h.pool.ReadUint64(r) }

// HeaderAtomic is Header as one atomic load, for readers that hold no lock
// against SetValid (the grid's unlocked view reader).
func (h *Heap) HeaderAtomic(r Ref) uint64 { return h.pool.ReadUint64Atomic(r) }

// WriteHeader stores the header word of the block at r. It does not flush;
// callers decide when the state change must become durable.
func (h *Heap) WriteHeader(r Ref, hdr uint64) { h.pool.WriteUint64(r, hdr) }

// ClassOf returns the class id in the master-block header at r. For pooled
// slots it reads the slot mini-header instead.
func (h *Heap) ClassOf(r Ref) uint16 {
	if h.IsBlockRef(r) {
		id, _, _ := UnpackHeader(h.Header(r))
		return id
	}
	return slotClass(h.pool.ReadUint64(r))
}

// Valid reports the valid bit of the object at r (master block or pooled
// slot).
func (h *Heap) Valid(r Ref) bool {
	if r == 0 {
		return false
	}
	if h.IsBlockRef(r) {
		_, v, _ := UnpackHeader(h.Header(r))
		return v
	}
	return slotValid(h.pool.ReadUint64(r))
}

// SetValid flips the valid bit of the object at r and flushes the header
// line. No fence is issued: batching the fence across several validations
// is exactly the low-level optimization of §3.2.3. A block header is
// stored atomically: a failure-atomic commit invalidates the objects it
// frees while unlocked readers may still be loading their headers
// (HeaderAtomic).
func (h *Heap) SetValid(r Ref, v bool) {
	if h.IsBlockRef(r) {
		id, _, next := UnpackHeader(h.Header(r))
		h.pool.WriteUint64Atomic(r, PackHeader(id, v, next))
	} else {
		hdr := h.pool.ReadUint64(r)
		h.pool.WriteUint64(r, setSlotValid(hdr, v))
	}
	h.pool.PWB(r)
}

// Blocks walks the next-chain starting at master block r and returns the
// refs of all blocks of the object, master first.
func (h *Heap) Blocks(r Ref) []Ref {
	var out []Ref
	cur := r
	for {
		out = append(out, cur)
		_, _, next := UnpackHeader(h.Header(cur))
		if next == 0 {
			return out
		}
		cur = h.BlockRef(next - 1)
	}
}

// ---- Class table ----

func (h *Heap) classEntryOff(id uint16) uint64 {
	return h.classOff + uint64(id-1)*classEntrySize
}

func (h *Heap) loadClassTable() {
	for i := uint16(1); i <= classCap; i++ {
		off := h.classEntryOff(i)
		n := h.pool.ReadUint16(off)
		if n == 0 {
			break
		}
		name := string(h.pool.ReadBytes(off+2, uint64(n)))
		h.classByName[name] = i
		h.classNames = append(h.classNames, name)
	}
}

// RegisterClass assigns (or retrieves) the stable persistent id of a class
// name. Ids are stored in a persistent table so that resurrection works
// across restarts (§3.1). Registration is rare, so it pays a full fence.
func (h *Heap) RegisterClass(name string) (uint16, error) {
	if name == "" || len(name) > classNameMax {
		return 0, fmt.Errorf("heap: invalid class name %q (1-%d bytes)", name, classNameMax)
	}
	h.classMu.Lock()
	defer h.classMu.Unlock()
	if id, ok := h.classByName[name]; ok {
		return id, nil
	}
	if len(h.classNames) >= classCap {
		return 0, fmt.Errorf("heap: class table full (%d classes)", classCap)
	}
	id := uint16(len(h.classNames) + 1)
	off := h.classEntryOff(id)
	h.pool.WriteBytes(off+2, []byte(name))
	h.pool.PWBRange(off+2, uint64(len(name)))
	h.pool.PFence()
	// Length last: a torn registration leaves the entry unused.
	h.pool.WriteUint16(off, uint16(len(name)))
	h.pool.PWB(off)
	h.pool.PSync()
	h.classByName[name] = id
	h.classNames = append(h.classNames, name)
	return id, nil
}

// ClassName resolves a persistent class id to its registered name.
func (h *Heap) ClassName(id uint16) (string, bool) {
	h.classMu.RLock()
	defer h.classMu.RUnlock()
	if id == 0 || int(id) > len(h.classNames) {
		return "", false
	}
	return h.classNames[id-1], true
}
