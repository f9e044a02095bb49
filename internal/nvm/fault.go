package nvm

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
)

// ---- Fault plane (injectable ordering-point observer) ----
//
// The crash-consistency explorer (internal/crashmc) needs to see every
// point at which the persistence order of a workload could be cut short
// by a power failure. Those points are exactly the ordering primitives of
// §3.2.2 plus the stores themselves: a crash can land before any given
// store, before any given PWB, or before any given fence. A FaultPlane
// installed on a tracked pool is invoked once per such point, *before*
// the primitive takes effect, so "crash at point k" means the k-th
// primitive (and everything after it) never executed.

// FaultKind identifies which ordering primitive an event precedes.
type FaultKind int

const (
	// FaultStore precedes a store of Len bytes at Off.
	FaultStore FaultKind = iota
	// FaultPWB precedes the queueing of one cache line; Off is the
	// line-aligned offset and Len is LineSize. A PWBRange over n lines
	// raises n FaultPWB events.
	FaultPWB
	// FaultPFence precedes a PFence (write-pending queue drain).
	FaultPFence
	// FaultPSync precedes a PSync.
	FaultPSync
)

func (k FaultKind) String() string {
	switch k {
	case FaultStore:
		return "store"
	case FaultPWB:
		return "pwb"
	case FaultPFence:
		return "pfence"
	case FaultPSync:
		return "psync"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent describes one ordering point.
type FaultEvent struct {
	Kind FaultKind
	Off  uint64 // store offset, or line offset for FaultPWB; 0 for fences
	Len  uint64 // store length, or LineSize for FaultPWB; 0 for fences
}

// FaultPlane observes ordering points. OrderingPoint runs on the calling
// goroutine with no pool locks held, so it may call CaptureCrashState
// (crashmc "pulls the plug" that way and lets the run go on) and may
// panic to abandon the workload at that instant. If the pool is used
// from several goroutines the plane must be safe for concurrent calls.
type FaultPlane interface {
	OrderingPoint(FaultEvent)
}

// faultHolder wraps the interface value so it can live in an
// atomic.Pointer (interfaces are two words and not atomically storable).
type faultHolder struct{ fp FaultPlane }

// SetFaultPlane installs (or, with nil, removes) the pool's fault plane.
// Safe to call concurrently with pool use; primitives already past their
// observation point complete unobserved.
func (p *Pool) SetFaultPlane(fp FaultPlane) {
	if fp == nil {
		p.plane.Store(nil)
		return
	}
	p.plane.Store(&faultHolder{fp: fp})
}

func (p *Pool) observe(kind FaultKind, off, n uint64) {
	h := p.plane.Load()
	if h == nil {
		return
	}
	h.fp.OrderingPoint(FaultEvent{Kind: kind, Off: off, Len: n})
}

// planeField is embedded in Pool via the plane member; declared here to
// keep all fault-plane code in one file.
type planeField = atomic.Pointer[faultHolder]

// ---- Crash states and adversarial images ----

// CrashSource selects which content of a pending line a CrashLine applies.
type CrashSource int

const (
	// CrashFromSnapshot applies the line's pwb-time snapshot (the content
	// sitting in the write-pending queue). Only valid for queued lines.
	CrashFromSnapshot CrashSource = iota
	// CrashFromCurrent applies the line's cache content at capture time,
	// modeling an eviction racing the failure. Valid for any pending line.
	CrashFromCurrent
)

// PendingLine describes one cache line that had not yet reached durable
// NVMM when the state was captured.
type PendingLine struct {
	Line   uint64 // line-aligned offset
	Queued bool   // holds a pwb-time snapshot awaiting a fence
	Dirty  bool   // stored to since its last PWB
}

// CrashLine is one entry of a crash-image specification: persist (part
// of) a pending line on top of the durable image. Split carves the line
// at an 8-byte boundary — aligned 8-byte stores are atomic on the modeled
// hardware (x86), so tears never land inside an aligned word, but any
// multi-word value can be cut. Split 0 applies the whole line; otherwise
// Split must be a multiple of 8 in (0, LineSize), and Tail selects which
// side of the boundary persists ([0,Split) when false, [Split,LineSize)
// when true). Entries apply in order, so composing {snapshot, whole}
// followed by {current, head} models a line whose old flush survived and
// whose re-dirtied head was then partially evicted.
type CrashLine struct {
	Line   uint64
	Source CrashSource
	Split  uint64
	Tail   bool
}

// pendingLine is a captured pending line with both of its contents.
type pendingLine struct {
	PendingLine
	snap [LineSize]byte // pwb-time snapshot; meaningful when Queued
	cur  [LineSize]byte // cache content at capture time
}

// CrashState is an immutable copy of a tracked pool's persistence state —
// the durable image plus every pending line's snapshot and cache content.
// It is captured once (cheaply, under the pool lock) and can then mint
// any number of crash images while the original pool keeps running or is
// torn down; in particular it is immune to stores issued after capture,
// which is what lets crashmc check a crash state in the middle of a run
// that goes on storing.
type CrashState struct {
	opts    Options
	durable []byte        // the whole pool as NVMM holds it
	pending []pendingLine // ascending by line
}

// CaptureCrashState snapshots the pool's persistence state: one copy of
// the pool with each pending line's durable bytes patched in. Panics if
// the pool is not tracked.
func (p *Pool) CaptureCrashState() *CrashState {
	if !p.opts.Tracked {
		panic("nvm: CaptureCrashState requires a tracked pool")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := &CrashState{
		opts:    p.opts,
		durable: bytes.Clone(p.data),
		pending: make([]pendingLine, 0, len(p.lines)),
	}
	for line, r := range p.lines {
		pl := pendingLine{PendingLine: PendingLine{Line: line, Queued: r.queued, Dirty: r.dirty}, snap: r.snap}
		copy(pl.cur[:], p.data[line:])
		copy(cs.durable[line:], r.durable[:])
		cs.pending = append(cs.pending, pl)
	}
	slices.SortFunc(cs.pending, func(a, b pendingLine) int { return cmp.Compare(a.Line, b.Line) })
	return cs
}

// Pending lists the captured pending lines in ascending line order.
func (cs *CrashState) Pending() []PendingLine {
	out := make([]PendingLine, len(cs.pending))
	for i := range cs.pending {
		out[i] = cs.pending[i].PendingLine
	}
	return out
}

// Image materializes a crash image: the durable snapshot with the given
// spec entries applied in order. The returned pool is tracked (its
// durable image equals its data) and independent of the original. Panics
// on a spec entry naming a non-pending line, a CrashFromSnapshot entry
// for an unqueued line, or an invalid Split.
func (cs *CrashState) Image(spec []CrashLine) *Pool { return cs.ImageOver(nil, spec) }

// ImageOver is Image minted into the bytes of old, an image an earlier
// Image or ImageOver call returned and whose user is done with it, so a
// caller checking image after image allocates none. old is dead
// afterwards: its bytes are gone, and any access to them panics. A nil
// old, or one of another size, gets fresh bytes.
func (cs *CrashState) ImageOver(old *Pool, spec []CrashLine) *Pool {
	var data []byte
	if old != nil && len(old.data) == len(cs.durable) {
		data, old.data = old.data, nil
		copy(data, cs.durable)
	} else {
		data = bytes.Clone(cs.durable)
	}
	img := &Pool{data: data, opts: cs.opts, lines: make(map[uint64]*lineRecord)}
	for _, cl := range spec {
		i, ok := slices.BinarySearchFunc(cs.pending, cl.Line, func(pl pendingLine, line uint64) int {
			return cmp.Compare(pl.Line, line)
		})
		if !ok {
			panic(fmt.Sprintf("nvm: CrashLine %#x is not a pending line", cl.Line))
		}
		pl := &cs.pending[i]
		var src *[LineSize]byte
		switch cl.Source {
		case CrashFromSnapshot:
			if !pl.Queued {
				panic(fmt.Sprintf("nvm: CrashLine %#x requests snapshot of unqueued line", cl.Line))
			}
			src = &pl.snap
		case CrashFromCurrent:
			src = &pl.cur
		default:
			panic(fmt.Sprintf("nvm: invalid CrashSource %d", cl.Source))
		}
		start, end := uint64(0), uint64(LineSize)
		if cl.Split != 0 {
			if cl.Split%8 != 0 || cl.Split >= LineSize {
				panic(fmt.Sprintf("nvm: invalid Split %d (want multiple of 8 in (0,%d))", cl.Split, LineSize))
			}
			if cl.Tail {
				start = cl.Split
			} else {
				end = cl.Split
			}
		}
		lineEnd := min(cl.Line+end, uint64(len(img.data)))
		if cl.Line+start >= lineEnd {
			continue
		}
		copy(img.data[cl.Line+start:lineEnd], src[start:end])
	}
	return img
}

// Spec builds the crash-image specification of a policy; it is the one
// place a policy becomes a []CrashLine. CrashStrict persists no pending
// line and CrashAll persists every one whole from its cache content. For
// CrashRandom and CrashTorn, each pending line is independently dropped,
// persisted whole, or torn at a random 8-byte boundary, from its snapshot
// or its cache content (both reachable for queued-then-redirtied lines,
// including composed old-flush + partial-eviction mixes); CrashTorn tears
// every retained line, the most adversarial sub-line setting. rng is only
// consulted by those two, and the spec is deterministic in it.
func (cs *CrashState) Spec(policy CrashPolicy, rng *rand.Rand) []CrashLine {
	switch policy {
	case CrashStrict:
		return nil
	case CrashAll:
		spec := make([]CrashLine, len(cs.pending))
		for i := range cs.pending {
			spec[i] = CrashLine{Line: cs.pending[i].Line, Source: CrashFromCurrent}
		}
		return spec
	case CrashRandom, CrashTorn:
	default:
		panic(fmt.Sprintf("nvm: unknown crash policy %d", policy))
	}
	var spec []CrashLine
	tearOf := func(cl CrashLine) CrashLine {
		cl.Split = 8 * uint64(1+rng.Intn(LineSize/8-1))
		cl.Tail = rng.Intn(2) == 0
		return cl
	}
	for i := range cs.pending {
		pl := &cs.pending[i]
		if rng.Intn(3) == 0 {
			continue // dropped: this line stays at its durable content
		}
		cl := CrashLine{Line: pl.Line}
		switch {
		case pl.Queued && pl.Dirty:
			// Both states exist; sometimes compose them (flush landed,
			// then part of the newer content was evicted on top).
			if rng.Intn(4) == 0 {
				spec = append(spec, CrashLine{Line: pl.Line, Source: CrashFromSnapshot})
				cl.Source = CrashFromCurrent
				spec = append(spec, tearOf(cl))
				continue
			}
			if rng.Intn(2) == 0 {
				cl.Source = CrashFromSnapshot
			} else {
				cl.Source = CrashFromCurrent
			}
		case pl.Queued:
			cl.Source = CrashFromSnapshot
		default:
			cl.Source = CrashFromCurrent
		}
		if policy == CrashTorn || rng.Intn(4) == 0 {
			cl = tearOf(cl)
		}
		spec = append(spec, cl)
	}
	return spec
}
