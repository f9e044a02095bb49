package store

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Backend is a persistence plug for the grid, at field granularity so the
// J-NVM backends never marshal whole records (the decisive property the
// evaluation measures).
//
// Ownership: field values handed to Insert and Update are borrowed for the
// call — the wire server passes sub-slices of a connection buffer it
// reuses for the next window — so an implementation copies every value it
// keeps. The key of an Insert and the field names of an Insert or Update
// are owned strings, which callers never modify afterwards: the FS-family
// backends keep the key as it is (VolatileBackend and Cached the field
// names too), while the J-NVM backends keep neither (pdt.Map clones a key
// at every put, the name dictionary a new name). The keys of the other
// operations are only looked at.
type Backend interface {
	Name() string
	// Insert stores a new record.
	Insert(key string, rec *Record) error
	// Read streams every field of the record to consume. The name and
	// value arguments are only valid for the duration of the call (the
	// J-NVM backends stream views straight out of NVMM); consumers that
	// retain a field must copy both.
	Read(key string, consume func(name string, value []byte)) (bool, error)
	// Update overwrites a subset of fields of an existing record.
	Update(key string, fields []Field) (bool, error)
	// Delete removes the record.
	Delete(key string) (bool, error)
	// Count returns the number of stored records.
	Count() int
	Close() error
	// Caps describes the optional operations the backend supports.
	Caps() Caps
}

// Grid is the embedded data grid standing in for Infinispan: per-key lock
// striping for concurrency control (§5.3.2: "accesses to the persistent
// state are protected by the locks of Infinispan") in front of the
// backend, with no record cache of its own (§5.3.1: the J-NVM backends
// run without one; the file-system family's cache is the Cached wrapper).
type Grid struct {
	backend Backend
	caps    Caps

	// vr is non-nil when the backend supports zero-copy view reads: Read
	// then tries a seqlock-validated unlocked fast path before falling
	// back to the stripe lock (DESIGN.md §14).
	vr ViewReader

	stripes [gridStripes]sync.Mutex

	// gens are the per-stripe seqlock generations (only maintained when
	// vr is set): writers make them odd on entry and even on exit, and an
	// unlocked reader is valid only if its stripe generation is even and
	// unchanged across the read.
	gens [gridStripes]genSlot

	stats obs.GridStats
}

// genSlot pads each stripe generation to its own cache line so reader
// validation loads never false-share with neighboring stripes' writers.
type genSlot struct {
	v atomic.Uint64
	_ [56]byte
}

const gridStripes = 128

// NewGrid wraps a backend. A backend whose descriptor names View is read
// through the zero-copy view path; any other is read under the stripe lock.
func NewGrid(b Backend) *Grid {
	g := &Grid{backend: b, caps: b.Caps()}
	if vr := g.caps.View; vr != nil {
		vr.EnableViewReads(&g.stats.ReadPath)
		g.vr = vr
	}
	return g
}

// ReadPath names the read path NewGrid adopted from the backend's
// descriptor: "view" (seqlock-validated zero-copy reads) or "locked"
// (stripe lock).
func (g *Grid) ReadPath() string {
	if g.vr != nil {
		return "view"
	}
	return "locked"
}

// Backend returns the underlying persistence plug.
func (g *Grid) Backend() Backend { return g.backend }

// ObsSnapshot captures the current grid metrics.
func (g *Grid) ObsSnapshot() obs.GridSnapshot { return g.stats.Snapshot() }

// fnv32 is an inlined FNV-1a: hash.Hash32 would cost two heap allocations
// (digest + []byte(key)) per operation. It selects the key's lock stripe
// (and, in the FS family, its directory shard).
func fnv32(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// stripe maps a hashed key to its lock.
func (g *Grid) stripe(h uint32) *sync.Mutex {
	return &g.stripes[h%gridStripes]
}

// lockWrite takes the key's stripe lock as a writer and, when the
// zero-copy read path is active, makes the stripe's seqlock generation
// odd so unlocked readers back off.
func (g *Grid) lockWrite(h uint32) *sync.Mutex {
	mu := g.stripe(h)
	mu.Lock()
	if g.vr != nil {
		g.gens[h%gridStripes].v.Add(1)
	}
	return mu
}

// unlockWrite makes the generation even again (readers that overlapped
// the write see a changed generation and retry) and releases the stripe.
func (g *Grid) unlockWrite(h uint32, mu *sync.Mutex) {
	if g.vr != nil {
		g.gens[h%gridStripes].v.Add(1)
	}
	mu.Unlock()
}

// ErrNotFound is returned for operations on absent keys.
var ErrNotFound = fmt.Errorf("store: key not found")

// found maps a backend result to the grid's: the backend's error, else
// ErrNotFound for an absent key.
func found(ok bool, err error) error {
	if err == nil && !ok {
		return ErrNotFound
	}
	return err
}

// Insert stores a new record.
func (g *Grid) Insert(key string, rec *Record) error {
	defer g.stats.Insert.ObserveSince(obs.Now())
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	return g.backend.Insert(key, rec)
}

// Read streams the record's fields to consume. With a capable backend it
// first tries the unlocked zero-copy path: field views straight out of
// NVMM, validated against the stripe's seqlock generation so the consumer
// never sees a snapshot a writer overlapped. A generation race retries
// once; a second race or an unsupported record shape falls back to the
// stripe lock.
func (g *Grid) Read(key string, consume func(name string, value []byte)) error {
	defer g.stats.Read.ObserveSince(obs.Now())
	h := fnv32(key)
	if g.vr != nil {
		gen := &g.gens[h%gridStripes].v
		for try := 0; try < 2; try++ {
			g1 := gen.Load()
			if g1&1 != 0 {
				break // writer mid-flight on this stripe
			}
			// One view read in obs.StageSample times its stages, chosen
			// by the hit count this path keeps.
			sampled := g.stats.ReadPath.ZeroCopyHits.Load()%obs.StageSample == 0
			ok, valid, served := g.vr.ReadView(key, h, gen, g1, sampled, consume)
			if !served {
				break
			}
			if !valid {
				g.stats.ReadPath.SeqlockRetries.Inc()
				continue
			}
			g.stats.ReadPath.ZeroCopyHits.Inc()
			return found(ok, nil)
		}
		g.stats.ReadPath.CopyFallbacks.Inc()
	}
	mu := g.stripe(h)
	mu.Lock()
	defer mu.Unlock()
	return found(g.backend.Read(key, consume))
}

// Update overwrites fields write-through (backend in the critical path,
// which is why larger caches do not help updates in Figure 9a).
func (g *Grid) Update(key string, fields []Field) error {
	defer g.stats.Update.ObserveSince(obs.Now())
	h := fnv32(key)
	lap := g.updateLap(h)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	lap.Lap(&g.stats.Writes.StripeWaitNs)
	ok, err := g.backend.Update(key, fields)
	lap.Lap(&g.stats.Writes.BackendNs)
	return found(ok, err)
}

// updateLap starts the stage laps of a sampled update: one of each
// stripe's writes in obs.StageSample, chosen by the stripe's seqlock
// generation, which two steps per write advance. A grid without the view
// path keeps no generations and times no update.
func (g *Grid) updateLap(h uint32) obs.Lap {
	if g.vr == nil {
		return obs.Lap{}
	}
	return obs.StartLap(g.gens[h%gridStripes].v.Load()%(2*obs.StageSample) == 0)
}

// ReadModifyWrite runs YCSB's rmw: read all fields, then write back the
// fields produced by mutate, under the key's lock.
func (g *Grid) ReadModifyWrite(key string, mutate func(rec *Record) []Field) error {
	defer g.stats.RMW.ObserveSince(obs.Now())
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	rec := &Record{}
	ok, err := g.backend.Read(key, func(name string, value []byte) {
		// Deep-copy: rec outlives the backend call (mutate sees it and
		// the update may free what it viewed), so it must not alias NVMM
		// views — neither the value bytes nor the name string.
		rec.Fields = append(rec.Fields,
			Field{Name: strings.Clone(name), Value: append([]byte(nil), value...)})
	})
	if err := found(ok, err); err != nil {
		return err
	}
	fields := mutate(rec)
	if len(fields) == 0 {
		return nil
	}
	return found(g.backend.Update(key, fields))
}

// Delete removes the record.
func (g *Grid) Delete(key string) error {
	defer g.stats.Delete.ObserveSince(obs.Now())
	h := fnv32(key)
	mu := g.lockWrite(h)
	defer g.unlockWrite(h, mu)
	return found(g.backend.Delete(key))
}

// Count returns the number of stored records.
func (g *Grid) Count() int { return g.backend.Count() }

// Close releases backend resources.
func (g *Grid) Close() error { return g.backend.Close() }
