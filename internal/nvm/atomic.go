package nvm

import (
	"sync/atomic"
	"unsafe"
)

// Atomic word access. The unlocked read path (seqlock-validated zero-copy
// reads, see DESIGN.md §14) loads reference words that a concurrent writer
// may be publishing; those loads and stores must be atomic or the race
// detector (rightly) flags them and a real machine may tear them. Only
// 8-byte, 8-aligned words are supported — the alignment x86 and arm64
// guarantee atomic — which covers every published word class: PRefArray
// words (a map binding's value word among them) and record field refs.
//
// The atomic ops act on the pool's native byte order while the plain
// Read/WriteUint64 use little-endian encoding. The two views must agree
// byte-for-byte (a word stored atomically is later read by recovery with
// ReadUint64), so pools only support little-endian hosts; New panics
// otherwise. All Go targets in CI (amd64, arm64) qualify.

func init() {
	probe := uint16(1)
	if *(*byte)(unsafe.Pointer(&probe)) != 1 {
		panic("nvm: atomic word access requires a little-endian host")
	}
}

func (p *Pool) atomicWord(off uint64) *uint64 {
	p.check(off, 8)
	if off%8 != 0 {
		panic("nvm: atomic access to unaligned offset")
	}
	// The backing array is 8-aligned (Go heap / mmap), so an 8-aligned
	// offset yields an 8-aligned address.
	return (*uint64)(unsafe.Pointer(&p.data[off]))
}

// ReadUint64Atomic loads an 8-byte word with atomic (acquire) semantics.
// The returned value matches what ReadUint64 would decode on this host.
func (p *Pool) ReadUint64Atomic(off uint64) uint64 {
	return atomic.LoadUint64(p.atomicWord(off))
}

// WriteUint64Atomic stores an 8-byte word with atomic (release) semantics.
// It participates in the fault plane and the tracked-mode cache model
// exactly like WriteUint64.
func (p *Pool) WriteUint64Atomic(off, v uint64) {
	w := p.atomicWord(off)
	tracked := p.beginStore(off, 8)
	atomic.StoreUint64(w, v)
	p.endStore(tracked)
}
