package nvm

import (
	"sync/atomic"
	"unsafe"
)

// Atomic word access. The lock-free read path (seqlock-validated zero-copy
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
	p.observe(FaultStore, off, 8)
	atomic.StoreUint64(w, v)
	p.noteStore(off, 8)
}

// CopyWithinAtomic copies n bytes from src to dst inside the pool using
// word-at-a-time atomic (release) stores to the destination. The commit
// apply publishes committed lines into blocks that lock-free readers
// observe with ReadUint64Atomic; a plain memcpy would race those acquire
// loads under the Go memory model even though the words are aligned. dst
// and n must be 8-aligned / a multiple of 8 (every apply segment — a
// header-trimmed line or payload — qualifies). src needs no alignment and
// is read plainly: the source block is private to the committing
// transaction.
func (p *Pool) CopyWithinAtomic(dst, src, n uint64) {
	p.check(src, n)
	p.check(dst, n)
	if n == 0 {
		return
	}
	if dst%8 != 0 || n%8 != 0 {
		panic("nvm: atomic copy needs an 8-aligned destination and length")
	}
	p.observe(FaultStore, dst, n)
	for i := uint64(0); i < n; i += 8 {
		var v uint64
		copy((*[8]byte)(unsafe.Pointer(&v))[:], p.data[src+i:src+i+8])
		atomic.StoreUint64((*uint64)(unsafe.Pointer(&p.data[dst+i])), v)
	}
	p.noteStore(dst, n)
}

// CompareAndSwapUint64 atomically swaps the 8-byte word at off from old to
// new, reporting whether the swap happened. It is the publication
// primitive of the lock-free durable types (DESIGN.md §16): the fault
// plane observes the attempt before it takes effect (a crash at that
// point leaves the pre-CAS word), and a successful swap marks the line
// dirty exactly like a store. A failed swap leaves the cache model
// untouched — nothing was written.
func (p *Pool) CompareAndSwapUint64(off, old, new uint64) bool {
	w := p.atomicWord(off)
	p.observe(FaultCAS, off, 8)
	if !atomic.CompareAndSwapUint64(w, old, new) {
		return false
	}
	p.noteStore(off, 8)
	return true
}
