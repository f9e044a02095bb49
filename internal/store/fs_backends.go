package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// VolatileBackend stores records in DRAM without persistence or
// marshalling — the paper's "Volatile" reference configuration ("behaves
// as NullFS, except that the marshalling/unmarshalling phase is avoided").
type VolatileBackend struct {
	mu   sync.RWMutex
	data map[string]*Record
}

// NewVolatileBackend creates an empty volatile backend.
func NewVolatileBackend() *VolatileBackend {
	return &VolatileBackend{data: make(map[string]*Record)}
}

// Name implements Backend.
func (b *VolatileBackend) Name() string { return "Volatile" }

// Count implements Backend.
func (b *VolatileBackend) Count() int { b.mu.RLock(); defer b.mu.RUnlock(); return len(b.data) }

// Close implements Backend.
func (b *VolatileBackend) Close() error { return nil }

// Caps implements Backend.
func (b *VolatileBackend) Caps() Caps { return Caps{} }

// Insert implements Backend.
func (b *VolatileBackend) Insert(key string, rec *Record) error {
	b.mu.Lock()
	b.data[key] = rec.Clone()
	b.mu.Unlock()
	return nil
}

// Read implements Backend.
func (b *VolatileBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	b.mu.RLock()
	rec, ok := b.data[key]
	b.mu.RUnlock()
	if !ok {
		return false, nil
	}
	for _, f := range rec.Fields {
		consume(f.Name, f.Value)
	}
	return true, nil
}

// Update implements Backend.
func (b *VolatileBackend) Update(key string, fields []Field) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.data[key]
	if !ok {
		return false, nil
	}
	for _, f := range fields {
		rec.Set(f.Name, append([]byte(nil), f.Value...))
	}
	return true, nil
}

// Delete implements Backend.
func (b *VolatileBackend) Delete(key string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.data[key]; !ok {
		return false, nil
	}
	delete(b.data, key)
	return true, nil
}

// The FS family of §5.1 is Infinispan's file store over three file
// systems: ext4-DAX (FS), tmpfs (TmpFS) and nullfs (NullFS). "The main
// cost comes from data marshalling and not from the file system itself",
// so the three are one backend: each write pays one Marshal, each read
// one Unmarshal, and only where the bytes go differs.

// files holds one marshalled record per key. It does not serialize the
// writers of one key; the grid's stripe locks do.
type files interface {
	// load returns key's bytes; ok is false if key has none.
	load(key string) (buf []byte, ok bool, err error)
	// store writes key's bytes, adding key if it is new.
	store(key string, buf []byte) error
	// remove drops key, reporting whether it was there.
	remove(key string) (bool, error)
	count() int
}

// marshalling is the FS-family backend over its files.
type marshalling struct {
	name string
	files
}

// NewTmpFSBackend keeps marshalled records in an in-memory "file system":
// every operation pays the full marshal/unmarshal conversion but no device
// I/O, isolating the serialization cost exactly as Figure 8's TmpFS bar.
func NewTmpFSBackend() Backend {
	return &marshalling{"TmpFS", &memFiles{bufs: make(map[string][]byte)}}
}

// NewNullFSBackend treats writes as no-ops, like the nullfsvfs module the
// paper cites: a record is marshalled and dropped, and a read of a known
// key unmarshals the last record written to any key, so it has the shape
// of the last insert or update. It isolates pure conversion cost with
// zero storage.
func NewNullFSBackend() Backend {
	return &marshalling{"NullFS", &nullFiles{keySet: newKeySet()}}
}

// NewFSBackend persists marshalled records as one file per key under 256
// shard directories of dir — the paper's default Infinispan configuration
// (ext4 over NVMM in DAX mode; here, whatever file system hosts dir). It
// creates the shards and, on a reopen, rebuilds the key set from them.
// Writes are not forced to the device: the page cache plays the ADR role
// DAX ext4 gives the paper.
func NewFSBackend(dir string) (Backend, error) {
	f := &dirFiles{keySet: newKeySet(), dir: dir}
	for i := uint32(0); i < 256; i++ {
		shard := f.shard(i)
		if err := os.MkdirAll(shard, 0o755); err != nil {
			return nil, err
		}
		ents, err := os.ReadDir(shard)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			f.keys[e.Name()] = struct{}{}
		}
	}
	return &marshalling{"FS", f}, nil
}

// Name implements Backend.
func (b *marshalling) Name() string { return b.name }

// Count implements Backend.
func (b *marshalling) Count() int { return b.count() }

// Close implements Backend.
func (b *marshalling) Close() error { return nil }

// Caps implements Backend.
func (b *marshalling) Caps() Caps { return Caps{} }

// Insert implements Backend.
func (b *marshalling) Insert(key string, rec *Record) error { return b.store(key, Marshal(rec)) }

// get loads and unmarshals key's record.
func (b *marshalling) get(key string) (*Record, bool, error) {
	buf, ok, err := b.load(key)
	if !ok || err != nil {
		return nil, false, err
	}
	rec, err := Unmarshal(buf)
	return rec, err == nil, err
}

// Read implements Backend.
func (b *marshalling) Read(key string, consume func(string, []byte)) (bool, error) {
	rec, ok, err := b.get(key)
	if ok {
		for _, f := range rec.Fields {
			consume(f.Name, f.Value)
		}
	}
	return ok, err
}

// Update implements Backend: read file, unmarshal, merge, marshal, write
// file — the write-through file-store path of Infinispan.
func (b *marshalling) Update(key string, fields []Field) (bool, error) {
	rec, ok, err := b.get(key)
	if !ok {
		return false, err
	}
	for _, f := range fields {
		rec.Set(f.Name, f.Value)
	}
	return true, b.store(key, Marshal(rec))
}

// Delete implements Backend.
func (b *marshalling) Delete(key string) (bool, error) { return b.remove(key) }

// memFiles is tmpfs: the bytes live in memory.
type memFiles struct {
	mu   sync.RWMutex
	bufs map[string][]byte
}

func (f *memFiles) load(key string) ([]byte, bool, error) {
	f.mu.RLock()
	buf, ok := f.bufs[key]
	f.mu.RUnlock()
	return buf, ok, nil
}

// store copies key even when it is there: assigning to a string key
// overwrites the stored key, and the caller's may be a buffer it reuses.
func (f *memFiles) store(key string, buf []byte) error {
	f.mu.Lock()
	f.bufs[strings.Clone(key)] = buf
	f.mu.Unlock()
	return nil
}

func (f *memFiles) remove(key string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.bufs[key]
	delete(f.bufs, key)
	return ok, nil
}

func (f *memFiles) count() int { f.mu.RLock(); defer f.mu.RUnlock(); return len(f.bufs) }

// keySet is the keys nullfs and a directory hold.
type keySet struct {
	mu   sync.RWMutex
	keys map[string]struct{}
}

func newKeySet() keySet { return keySet{keys: make(map[string]struct{})} }

func (s *keySet) has(key string) bool {
	s.mu.RLock()
	_, ok := s.keys[key]
	s.mu.RUnlock()
	return ok
}

// add copies a new key: the caller's may be a buffer it reuses.
func (s *keySet) add(key string) {
	s.mu.Lock()
	if _, ok := s.keys[key]; !ok {
		s.keys[strings.Clone(key)] = struct{}{}
	}
	s.mu.Unlock()
}

func (s *keySet) remove(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.keys[key]
	delete(s.keys, key)
	return ok, nil
}

func (s *keySet) count() int { s.mu.RLock(); defer s.mu.RUnlock(); return len(s.keys) }

// nullFiles is nullfs: the keys and the last bytes stored, which every
// load returns.
type nullFiles struct {
	keySet
	last []byte // under keySet.mu
}

func (f *nullFiles) load(key string) ([]byte, bool, error) {
	f.mu.RLock()
	_, ok := f.keys[key]
	buf := f.last
	f.mu.RUnlock()
	return buf, ok, nil
}

func (f *nullFiles) store(key string, buf []byte) error {
	f.add(key)
	f.mu.Lock()
	f.last = buf
	f.mu.Unlock()
	return nil
}

// dirFiles is a file system: one file per key in shard fnv32(key)&0xff of
// dir. The key set spares a miss its stat.
type dirFiles struct {
	keySet
	dir string
}

func (f *dirFiles) shard(h uint32) string { return filepath.Join(f.dir, fmt.Sprintf("%02x", h&0xff)) }

func (f *dirFiles) path(key string) string { return filepath.Join(f.shard(fnv32(key)), key) }

func (f *dirFiles) load(key string) ([]byte, bool, error) {
	if !f.has(key) {
		return nil, false, nil
	}
	buf, err := os.ReadFile(f.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	return buf, err == nil, err
}

func (f *dirFiles) store(key string, buf []byte) error {
	if err := os.WriteFile(f.path(key), buf, 0o644); err != nil {
		return err
	}
	f.add(key)
	return nil
}

func (f *dirFiles) remove(key string) (bool, error) {
	if ok, _ := f.keySet.remove(key); !ok {
		return false, nil
	}
	if err := os.Remove(f.path(key)); err != nil && !os.IsNotExist(err) {
		return true, err
	}
	return true, nil
}
