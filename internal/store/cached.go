package store

import (
	"bytes"
	"slices"
	"strings"
	"sync"

	"repro/internal/container"
)

// Cached puts the paper's volatile record cache (the cache-ratio knob of
// §2.2.1/§5.3.1) in front of b: write-through, holding at least entries
// records, sharded by key hash so reads of keys in different shards never
// serialize on one mutex. Only the file-system family is built with one;
// the J-NVM backends run without (§5.3.1: "caching brings almost no
// performance benefits"). entries <= 0 returns b unchanged.
//
// A cached record is a deep copy that is never modified: a fill copies
// what the backend streamed, a successful update installs a patched copy,
// and a failed update or a delete drops the key. The wrapper reports
// Caps{}, so a grid reads it under the key's stripe lock, which is what
// keeps a fill from racing an update of the same key.
func Cached(b Backend, entries int) Backend {
	if entries <= 0 {
		return b
	}
	c := &cached{Backend: b}
	for i := range c.shards {
		c.shards[i].lru = container.NewLRU[*Record]((entries + gridStripes - 1) / gridStripes)
	}
	return c
}

type cached struct {
	Backend
	shards [gridStripes]lruShard
}

type lruShard struct {
	mu  sync.Mutex
	lru *container.LRU[*Record]
}

func (c *cached) shard(key string) *lruShard { return &c.shards[fnv32(key)%gridStripes] }

// put caches rec under a copy of key: the caller's key may be a buffer it
// reuses (the benchmark drivers' are), and the LRU retains it.
func (c *cached) put(key string, rec *Record) {
	s := c.shard(key)
	s.mu.Lock()
	s.lru.Put(strings.Clone(key), rec)
	s.mu.Unlock()
}

// Caps implements Backend: the cache forwards no capability, since a view
// or a fold behind its back would leave a stale copy.
func (c *cached) Caps() Caps { return Caps{} }

// Insert implements Backend.
func (c *cached) Insert(key string, rec *Record) error {
	err := c.Backend.Insert(key, rec)
	if err == nil {
		c.put(key, rec.Clone()) // the caller may modify rec afterwards
	}
	return err
}

// Read implements Backend, from the cache when the key is there.
func (c *cached) Read(key string, consume func(name string, value []byte)) (bool, error) {
	s := c.shard(key)
	s.mu.Lock()
	rec, hit := s.lru.Get(key)
	s.mu.Unlock()
	if hit {
		for _, f := range rec.Fields {
			consume(f.Name, f.Value)
		}
		return true, nil
	}
	filled := &Record{}
	ok, err := c.Backend.Read(key, func(name string, value []byte) {
		consume(name, value)
		// Deep-copy: what a backend streams is valid only for the call.
		filled.Fields = append(filled.Fields, Field{Name: strings.Clone(name), Value: bytes.Clone(value)})
	})
	if ok && err == nil {
		c.put(key, filled)
	}
	return ok, err
}

// Update implements Backend.
func (c *cached) Update(key string, fields []Field) (bool, error) {
	ok, err := c.Backend.Update(key, fields)
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, hit := s.lru.Get(key)
	switch {
	case !hit:
	case !ok || err != nil:
		// The backend may have applied part of the update; drop the
		// record rather than serve a stale mix.
		s.lru.Remove(key)
	default:
		patched := &Record{Fields: slices.Clone(rec.Fields)}
		for _, f := range fields {
			patched.Set(f.Name, bytes.Clone(f.Value))
		}
		s.lru.Put(key, patched) // key is bound: the LRU keeps its own copy
	}
	return ok, err
}

// Delete implements Backend.
func (c *cached) Delete(key string) (bool, error) {
	ok, err := c.Backend.Delete(key)
	s := c.shard(key)
	s.mu.Lock()
	s.lru.Remove(key)
	s.mu.Unlock()
	return ok, err
}
