package store

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// Scan support — an extension beyond the paper. §5.2 skips YCSB-E because
// Infinispan only exposes scans through JPQL; a J-PDT map with an ordered
// mirror (red-black tree or skip list) supports range scans directly, at
// mirror speed, with the records themselves still read straight out of
// NVMM.

// Scanner is the optional backend capability for ordered range scans.
type Scanner interface {
	// Scan visits up to limit records with key >= start in key order,
	// streaming each record's fields.
	Scan(start string, limit int, consume func(key, field string, value []byte)) error
}

// ErrNoScan is returned by Grid.Scan when the backend has no order.
var ErrNoScan = fmt.Errorf("store: backend does not support scans")

// Scan implements ordered range scans over backends that support them.
// Scans bypass the record cache (they are not per-key operations).
func (g *Grid) Scan(start string, limit int, consume func(key, field string, value []byte)) error {
	s := g.caps.Scan
	if s == nil {
		return ErrNoScan
	}
	t0 := time.Now()
	defer func() { g.stats.Scan.Observe(time.Since(t0)) }()
	return s.Scan(start, limit, consume)
}

// Scan implements Scanner for the J-PDT backend. Only an ordered mirror
// can serve it, so Caps advertises it for those alone.
func (b *JPDTBackend) Scan(start string, limit int, consume func(key, field string, value []byte)) error {
	n := 0
	return b.m.Ascend(start, func(key string, po core.PObject) bool {
		po.(*pRecord).read(b.names, func(name string, val []byte) {
			consume(key, name, val)
		})
		n++
		return n < limit
	})
}

// Scan implements Scanner for the volatile backend (sorted on demand — the
// reference baseline for the extension benchmark).
func (b *VolatileBackend) Scan(start string, limit int, consume func(key, field string, value []byte)) error {
	b.mu.RLock()
	keys := make([]string, 0, len(b.data))
	for k := range b.data {
		if k >= start {
			keys = append(keys, k)
		}
	}
	b.mu.RUnlock()
	sort.Strings(keys)
	if len(keys) > limit {
		keys = keys[:limit]
	}
	for _, k := range keys {
		b.mu.RLock()
		rec := b.data[k]
		b.mu.RUnlock()
		if rec == nil {
			continue
		}
		for _, f := range rec.Fields {
			consume(k, f.Name, f.Value)
		}
	}
	return nil
}
