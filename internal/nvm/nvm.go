// Package nvm emulates byte-addressable non-volatile main memory (NVMM).
//
// The paper accesses Intel Optane DC through a 3-instruction Hotspot patch
// (pwb/pfence/psync, after Izraelevitz et al.). This package provides the
// same primitives over a flat pool of bytes addressed by offsets. Offsets
// (not absolute pointers) keep the pool relocatable, as required by §4.4 of
// the paper.
//
// A pool operates in one of two modes:
//
//   - Direct: loads and stores touch the backing array immediately, and the
//     ordering primitives only apply the configured latency model. This is
//     the benchmark mode; its cost per access is a bounds check plus a
//     little-endian encode/decode, which mirrors the near-native Unsafe
//     path of the paper (§4.4, Table 3).
//
//   - Tracked: the pool additionally models the volatile CPU cache
//     hierarchy at 64 B cache-line granularity. A store only reaches the
//     durable image after an explicit PWB of its line followed by a fence.
//     The pool keeps a record (durable bytes, pwb-time snapshot, dirty and
//     queued flags) only for lines that are not durable as they read.
//     CrashImage materializes "what survives a power failure" under
//     configurable adversarial policies, which is how the crash-consistency
//     tests of heap, core, fa and pdt drive recovery.
//
// Writes are modeled with pwb-time snapshots: PWB captures the current
// content of the line; stores issued after the PWB but before the fence are
// not made durable by that fence. This is the strict (and correct) reading
// of clwb/sfence on x86 and catches missing-second-flush bugs.
package nvm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/obs"
)

// LineSize is the modeled CPU cache-line size in bytes. PWB operates at
// this granularity. (Optane internally uses 256 B lines; that constant
// matters for the heap block size choice, not for ordering.)
const LineSize = 64

// CrashPolicy selects which non-fenced data survives in a CrashImage.
type CrashPolicy int

const (
	// CrashStrict drops everything that was not explicitly made durable
	// through PWB + fence. The most adversarial deterministic policy.
	CrashStrict CrashPolicy = iota
	// CrashAll retains every store, as if the caches were flushed by luck
	// (e.g. eDRAM drain on a clean shutdown). Recovery must also be
	// correct in this lenient world.
	CrashAll
	// CrashRandom retains a random subset of the dirty and queued lines,
	// modeling arbitrary cache evictions racing the failure. Retained
	// lines may persist their pwb-time snapshot, their newer cache
	// content, or a composition of the two, and may tear at an 8-byte
	// boundary (see CrashState.Spec).
	CrashRandom
	// CrashTorn is CrashRandom with every retained line torn at a random
	// 8-byte boundary — the most adversarial sub-line setting. Aligned
	// 8-byte words stay atomic (as on x86); anything wider can be cut.
	CrashTorn
)

// Options configures a Pool.
type Options struct {
	// Tracked enables the cache-line model and crash images.
	Tracked bool
	// FenceLatency is the simulated cost, in nanoseconds of busy wait,
	// of PFence/PSync. It models the store-fence + write-pending-queue
	// drain cost of real NVMM. Zero disables the latency model.
	FenceLatency int
}

// Pool is a flat, relocatable region of emulated NVMM.
//
// Pool methods panic on out-of-bounds accesses: an offset outside the pool
// is a corrupted reference, i.e. a program bug, never an environmental
// condition.
type Pool struct {
	data []byte
	opts Options

	// file backing (nil for in-memory pools).
	backing *fileBacking

	// Tracked mode only: mu serializes stores, PWBs, fences and captures;
	// lines holds a record per line not durable as it reads, by offset.
	mu    sync.Mutex
	lines map[uint64]*lineRecord

	// plane, when set, observes every ordering point (store/PWB/fence)
	// before it takes effect; see fault.go.
	plane planeField

	stats obs.NVMStats // lock-free primitive counters (stores/pwb/pfence/psync)
}

// New creates an in-memory pool of the given size.
func New(size int, opts Options) *Pool {
	p := &Pool{data: make([]byte, size), opts: opts}
	if opts.Tracked {
		p.lines = make(map[uint64]*lineRecord)
	}
	return p
}

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return uint64(len(p.data)) }

// Tracked reports whether the cache-line model is active.
func (p *Pool) Tracked() bool { return p.opts.Tracked }

// Close releases file-backed resources, if any. In-memory pools are
// garbage collected as usual; Close is then a no-op, as is a second Close
// of a file-backed pool (the mapping is gone after the first, whatever it
// returned).
func (p *Pool) Close() error {
	b := p.backing
	if b == nil {
		return nil
	}
	p.backing = nil
	return b.close()
}

func (p *Pool) check(off, n uint64) {
	if off+n > uint64(len(p.data)) || off+n < off {
		panic(fmt.Sprintf("nvm: access [%d,+%d) out of pool bounds %d", off, n, len(p.data)))
	}
}

// ---- Loads ----

// ReadUint64 loads an 8-byte little-endian word.
func (p *Pool) ReadUint64(off uint64) uint64 {
	p.check(off, 8)
	return binary.LittleEndian.Uint64(p.data[off:])
}

// ReadUint32 loads a 4-byte little-endian word.
func (p *Pool) ReadUint32(off uint64) uint32 {
	p.check(off, 4)
	return binary.LittleEndian.Uint32(p.data[off:])
}

// ReadUint16 loads a 2-byte little-endian word.
func (p *Pool) ReadUint16(off uint64) uint16 {
	p.check(off, 2)
	return binary.LittleEndian.Uint16(p.data[off:])
}

// ReadUint8 loads one byte.
func (p *Pool) ReadUint8(off uint64) byte {
	p.check(off, 1)
	return p.data[off]
}

// ReadBytes copies n bytes starting at off into a fresh slice.
func (p *Pool) ReadBytes(off, n uint64) []byte {
	p.check(off, n)
	out := make([]byte, n)
	copy(out, p.data[off:off+n])
	return out
}

// ReadInto copies len(dst) bytes starting at off into dst.
func (p *Pool) ReadInto(off uint64, dst []byte) {
	p.check(off, uint64(len(dst)))
	copy(dst, p.data[off:])
}

// View returns a zero-copy, read-only window into the pool — the direct
// byte-addressable access that distinguishes NVMM from a block device.
// Callers must not write through it and must not hold it across frees of
// the underlying object.
func (p *Pool) View(off, n uint64) []byte {
	p.check(off, n)
	return p.data[off : off+n : off+n]
}

// ---- Stores ----

// WriteUint64 stores an 8-byte little-endian word.
func (p *Pool) WriteUint64(off, v uint64) {
	p.check(off, 8)
	tracked := p.beginStore(off, 8)
	binary.LittleEndian.PutUint64(p.data[off:], v)
	p.endStore(tracked)
}

// WriteUint32 stores a 4-byte little-endian word.
func (p *Pool) WriteUint32(off uint64, v uint32) {
	p.check(off, 4)
	tracked := p.beginStore(off, 4)
	binary.LittleEndian.PutUint32(p.data[off:], v)
	p.endStore(tracked)
}

// WriteUint16 stores a 2-byte little-endian word.
func (p *Pool) WriteUint16(off uint64, v uint16) {
	p.check(off, 2)
	tracked := p.beginStore(off, 2)
	binary.LittleEndian.PutUint16(p.data[off:], v)
	p.endStore(tracked)
}

// WriteUint8 stores one byte.
func (p *Pool) WriteUint8(off uint64, v byte) {
	p.check(off, 1)
	tracked := p.beginStore(off, 1)
	p.data[off] = v
	p.endStore(tracked)
}

// WriteBytes stores src at off.
func (p *Pool) WriteBytes(off uint64, src []byte) {
	p.check(off, uint64(len(src)))
	if len(src) == 0 {
		return
	}
	tracked := p.beginStore(off, uint64(len(src)))
	copy(p.data[off:], src)
	p.endStore(tracked)
}

// Zero clears n bytes starting at off.
func (p *Pool) Zero(off, n uint64) {
	p.check(off, n)
	if n == 0 {
		return
	}
	tracked := p.beginStore(off, n)
	clear(p.data[off : off+n])
	p.endStore(tracked)
}

// ---- Ordering primitives (§3.2.2 of the paper) ----

// PWB adds the cache line containing off to the write-pending queue. Like
// the clwb the paper uses, it is asynchronous: durability happens at the
// next fence, and only for the content the line had when PWB was called.
func (p *Pool) PWB(off uint64) {
	p.check(off, 1)
	line := off &^ (LineSize - 1)
	p.observe(FaultPWB, line, LineSize)
	p.stats.PWBs.Inc()
	if p.opts.Tracked {
		p.queueLine(line)
	}
}

// PWBRange issues a PWB for every cache line overlapping [off, off+n).
// Each line is its own ordering point: a crash can land between any two
// of them, leaving a prefix of the range queued.
func (p *Pool) PWBRange(off, n uint64) {
	if n == 0 {
		return
	}
	p.check(off, n)
	first := off &^ (LineSize - 1)
	last := (off + n - 1) &^ (LineSize - 1)
	p.stats.PWBs.Add((last-first)/LineSize + 1)
	if p.opts.Tracked || p.plane.Load() != nil {
		for l := first; l <= last; l += LineSize {
			p.observe(FaultPWB, l, LineSize)
			if p.opts.Tracked {
				p.queueLine(l)
			}
		}
	}
}

// PFence orders preceding PWBs and stores before subsequent ones. On the
// x86 mapping used by the paper pfence and psync are both sfence, and —
// thanks to ADR — a fence after clwb makes the queued lines durable. The
// tracked model therefore drains the write-pending queue here.
func (p *Pool) PFence() {
	p.observe(FaultPFence, 0, 0)
	p.stats.PFences.Inc()
	p.fence()
}

// PSync behaves as PFence and additionally guarantees the write-pending
// queue reached NVMM (identical on the modeled hardware; see §4.4).
func (p *Pool) PSync() {
	p.observe(FaultPSync, 0, 0)
	p.stats.PSyncs.Inc()
	p.fence()
}

func (p *Pool) fence() {
	if p.opts.Tracked {
		p.mu.Lock()
		for line, r := range p.lines {
			if r.queued {
				r.durable, r.queued = r.snap, false
			}
			if !r.dirty {
				delete(p.lines, line)
			}
		}
		p.mu.Unlock()
	}
	if p.opts.FenceLatency > 0 {
		spinWait(p.opts.FenceLatency)
	}
}

// Stats reports cumulative primitive counts: stores, PWBs, fences (PFence
// and PSync combined, as both are sfence on the modeled hardware).
func (p *Pool) Stats() (stores, flushes, fences uint64) {
	s := p.stats.Snapshot()
	return s.Stores, s.PWBs, s.Fences()
}

// Obs exposes the pool's primitive counters to the observability layer;
// callers snapshot them with Obs().Snapshot().
func (p *Pool) Obs() *obs.NVMStats { return &p.stats }

// ---- Tracked-mode internals ----

// lineRecord is a tracked line that is not durable as it reads: stored to
// since its last PWB (dirty), or flushed and awaiting a fence (queued), or
// both. A line without a record is durable as it reads.
type lineRecord struct {
	durable       [LineSize]byte // what NVMM holds
	snap          [LineSize]byte // pwb-time content; meaningful while queued
	queued, dirty bool
}

// beginStore observes and counts a store of n bytes at off; a direct pool
// without a fault plane only counts. In tracked mode it takes p.mu and
// marks every line the store touches dirty, recording a line's pre-image
// as its durable bytes when the line gets its record, and returns true;
// endStore then releases the lock, so a capture never sees half a store.
func (p *Pool) beginStore(off, n uint64) bool {
	if !p.opts.Tracked && p.plane.Load() == nil {
		p.stats.Stores.Inc()
		return false
	}
	p.observe(FaultStore, off, n)
	p.stats.Stores.Inc()
	if !p.opts.Tracked {
		return false
	}
	p.mu.Lock()
	for l := off &^ (LineSize - 1); l < off+n; l += LineSize {
		r := p.lines[l]
		if r == nil {
			r = &lineRecord{}
			copy(r.durable[:], p.data[l:])
			p.lines[l] = r
		}
		r.dirty = true
	}
	return true
}

func (p *Pool) endStore(tracked bool) {
	if tracked {
		p.mu.Unlock()
	}
}

func (p *Pool) queueLine(line uint64) {
	p.mu.Lock()
	// Flushing a clean line is a no-op: it is durable as it reads, or an
	// earlier snapshot awaiting the fence already holds its content.
	if r := p.lines[line]; r != nil && r.dirty {
		copy(r.snap[:], p.data[line:])
		r.queued, r.dirty = true, false
	}
	p.mu.Unlock()
}

// CrashImage returns a new tracked pool holding what would survive a crash
// at this instant under the given policy. The original pool is unchanged
// and may keep running (useful to compare diverging futures). Built on
// CaptureCrashState and CrashState.Spec, so CrashRandom covers sub-line
// tears and both states of a queued-then-redirtied line (the snapshot
// awaiting its fence and the newer content racing eviction), including
// compositions of the two. rng is only consulted by CrashRandom and
// CrashTorn. Panics if the pool is not tracked.
func (p *Pool) CrashImage(policy CrashPolicy, rng *rand.Rand) *Pool {
	cs := p.CaptureCrashState()
	return cs.Image(cs.Spec(policy, rng))
}
