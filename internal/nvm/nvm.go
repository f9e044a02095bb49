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
	// boundary (see CrashState.SampleSpec).
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
	// FlushLatency is the simulated cost, in nanoseconds, of each PWB.
	FlushLatency int
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

	mu      sync.Mutex        // guards the tracked-mode state below
	durable []byte            // what survives a crash (tracked mode only)
	dirty   map[uint64]bool   // lines stored to since their last PWB
	queued  map[uint64][]byte // lines PWB'd but not yet fenced: pwb-time snapshot

	// plane, when set, observes every ordering point (store/PWB/fence)
	// before it takes effect; see fault.go.
	plane planeField

	stats obs.NVMStats // lock-free primitive counters (stores/pwb/pfence/psync)
}

// New creates an in-memory pool of the given size.
func New(size int, opts Options) *Pool {
	p := &Pool{data: make([]byte, size), opts: opts}
	if opts.Tracked {
		p.durable = make([]byte, size)
		p.dirty = make(map[uint64]bool)
		p.queued = make(map[uint64][]byte)
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
	p.observe(FaultStore, off, 8)
	binary.LittleEndian.PutUint64(p.data[off:], v)
	p.noteStore(off, 8)
}

// WriteUint32 stores a 4-byte little-endian word.
func (p *Pool) WriteUint32(off uint64, v uint32) {
	p.check(off, 4)
	p.observe(FaultStore, off, 4)
	binary.LittleEndian.PutUint32(p.data[off:], v)
	p.noteStore(off, 4)
}

// WriteUint16 stores a 2-byte little-endian word.
func (p *Pool) WriteUint16(off uint64, v uint16) {
	p.check(off, 2)
	p.observe(FaultStore, off, 2)
	binary.LittleEndian.PutUint16(p.data[off:], v)
	p.noteStore(off, 2)
}

// WriteUint8 stores one byte.
func (p *Pool) WriteUint8(off uint64, v byte) {
	p.check(off, 1)
	p.observe(FaultStore, off, 1)
	p.data[off] = v
	p.noteStore(off, 1)
}

// WriteBytes stores src at off.
func (p *Pool) WriteBytes(off uint64, src []byte) {
	p.check(off, uint64(len(src)))
	if len(src) == 0 {
		return
	}
	p.observe(FaultStore, off, uint64(len(src)))
	copy(p.data[off:], src)
	p.noteStore(off, uint64(len(src)))
}

// Zero clears n bytes starting at off.
func (p *Pool) Zero(off, n uint64) {
	p.check(off, n)
	if n == 0 {
		return
	}
	p.observe(FaultStore, off, n)
	clear(p.data[off : off+n])
	p.noteStore(off, n)
}

// CopyWithin copies n bytes from src to dst inside the pool, as a store to
// the destination range.
func (p *Pool) CopyWithin(dst, src, n uint64) {
	p.check(src, n)
	p.check(dst, n)
	if n == 0 {
		return
	}
	p.observe(FaultStore, dst, n)
	copy(p.data[dst:dst+n], p.data[src:src+n])
	p.noteStore(dst, n)
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
	if p.opts.FlushLatency > 0 {
		spinWait(p.opts.FlushLatency)
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
	lines := (last-first)/LineSize + 1
	p.stats.PWBs.Add(lines)
	if p.plane.Load() != nil {
		for l := first; l <= last; l += LineSize {
			p.observe(FaultPWB, l, LineSize)
			if p.opts.Tracked {
				p.queueLine(l)
			}
		}
	} else if p.opts.Tracked {
		for l := first; l <= last; l += LineSize {
			p.queueLine(l)
		}
	}
	if p.opts.FlushLatency > 0 {
		spinWait(p.opts.FlushLatency * int(lines))
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
		for line, snap := range p.queued {
			copy(p.durable[line:line+LineSize], snap)
			delete(p.queued, line)
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

func (p *Pool) noteStore(off, n uint64) {
	p.stats.Stores.Inc()
	if !p.opts.Tracked || n == 0 {
		return
	}
	first := off &^ (LineSize - 1)
	last := (off + n - 1) &^ (LineSize - 1)
	p.mu.Lock()
	for l := first; l <= last; l += LineSize {
		p.dirty[l] = true
	}
	p.mu.Unlock()
}

func (p *Pool) queueLine(line uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.dirty[line] {
		// Clean line: flushing it is a no-op, and if it was already
		// queued the earlier snapshot still holds its content.
		if _, ok := p.queued[line]; ok {
			return
		}
		// Flush of a never-dirtied line: content equals durable already.
		return
	}
	delete(p.dirty, line)
	snap := p.queued[line]
	if snap == nil {
		snap = make([]byte, LineSize)
	}
	end := line + LineSize
	if end > uint64(len(p.data)) {
		end = uint64(len(p.data))
	}
	copy(snap, p.data[line:end])
	p.queued[line] = snap
}

// CrashImage returns a new tracked pool holding what would survive a crash
// at this instant under the given policy. The original pool is unchanged
// and may keep running (useful to compare diverging futures). Built on
// CaptureCrashState/PolicyImage, so CrashRandom covers sub-line tears and
// both states of a queued-then-redirtied line (the snapshot awaiting its
// fence and the newer content racing eviction), including compositions of
// the two — the cases the old per-map coin flips could not reach. Panics
// if the pool is not tracked.
func (p *Pool) CrashImage(policy CrashPolicy, rng *rand.Rand) *Pool {
	return p.CaptureCrashState().PolicyImage(policy, rng)
}

// DurableEqualsData reports whether every byte of the pool has been made
// durable (no dirty or queued lines). Only meaningful in tracked mode.
func (p *Pool) DurableEqualsData() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.dirty) == 0 && len(p.queued) == 0
}
