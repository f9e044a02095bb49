package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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

// TmpFSBackend keeps marshalled records in an in-memory "file system":
// every operation pays the full marshal/unmarshal conversion but no device
// I/O, isolating the serialization cost exactly as Figure 8's TmpFS bar.
type TmpFSBackend struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewTmpFSBackend creates an empty tmpfs backend.
func NewTmpFSBackend() *TmpFSBackend { return &TmpFSBackend{files: make(map[string][]byte)} }

// Name implements Backend.
func (b *TmpFSBackend) Name() string { return "TmpFS" }

// Count implements Backend.
func (b *TmpFSBackend) Count() int { b.mu.RLock(); defer b.mu.RUnlock(); return len(b.files) }

// Close implements Backend.
func (b *TmpFSBackend) Close() error { return nil }

// Caps implements Backend.
func (b *TmpFSBackend) Caps() Caps { return Caps{} }

// Insert implements Backend.
func (b *TmpFSBackend) Insert(key string, rec *Record) error {
	buf := Marshal(rec)
	b.mu.Lock()
	b.files[key] = buf
	b.mu.Unlock()
	return nil
}

// Read implements Backend.
func (b *TmpFSBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	b.mu.RLock()
	buf, ok := b.files[key]
	b.mu.RUnlock()
	if !ok {
		return false, nil
	}
	rec, err := Unmarshal(buf)
	if err != nil {
		return false, err
	}
	for _, f := range rec.Fields {
		consume(f.Name, f.Value)
	}
	return true, nil
}

// Update implements Backend: read file, unmarshal, merge, marshal, write
// file — the write-through file-store path of Infinispan.
func (b *TmpFSBackend) Update(key string, fields []Field) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := b.files[key]
	if !ok {
		return false, nil
	}
	rec, err := Unmarshal(buf)
	if err != nil {
		return false, err
	}
	for _, f := range fields {
		rec.Set(f.Name, f.Value)
	}
	b.files[key] = Marshal(rec)
	return true, nil
}

// Delete implements Backend.
func (b *TmpFSBackend) Delete(key string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.files[key]; !ok {
		return false, nil
	}
	delete(b.files, key)
	return true, nil
}

// NullFSBackend treats reads and writes as no-ops, like the nullfsvfs
// module the paper cites: data is marshalled and dropped, reads fabricate
// a record of the last-written shape and pay the unmarshal. It isolates
// pure conversion cost with zero storage.
type NullFSBackend struct {
	mu       sync.RWMutex
	template []byte
	count    int
	keys     map[string]bool
}

// NewNullFSBackend creates an empty nullfs backend.
func NewNullFSBackend() *NullFSBackend { return &NullFSBackend{keys: make(map[string]bool)} }

// Name implements Backend.
func (b *NullFSBackend) Name() string { return "NullFS" }

// Count implements Backend.
func (b *NullFSBackend) Count() int { b.mu.RLock(); defer b.mu.RUnlock(); return b.count }

// Close implements Backend.
func (b *NullFSBackend) Close() error { return nil }

// Caps implements Backend.
func (b *NullFSBackend) Caps() Caps { return Caps{} }

// Insert implements Backend.
func (b *NullFSBackend) Insert(key string, rec *Record) error {
	buf := Marshal(rec) // cost paid, bytes dropped
	b.mu.Lock()
	b.template = buf
	if !b.keys[key] {
		b.keys[key] = true
		b.count++
	}
	b.mu.Unlock()
	return nil
}

// Read implements Backend.
func (b *NullFSBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	b.mu.RLock()
	buf := b.template
	known := b.keys[key]
	b.mu.RUnlock()
	if !known || buf == nil {
		return false, nil
	}
	rec, err := Unmarshal(buf)
	if err != nil {
		return false, err
	}
	for _, f := range rec.Fields {
		consume(f.Name, f.Value)
	}
	return true, nil
}

// Update implements Backend.
func (b *NullFSBackend) Update(key string, fields []Field) (bool, error) {
	b.mu.RLock()
	buf := b.template
	known := b.keys[key]
	b.mu.RUnlock()
	if !known || buf == nil {
		return false, nil
	}
	rec, err := Unmarshal(buf)
	if err != nil {
		return false, err
	}
	for _, f := range fields {
		rec.Set(f.Name, f.Value)
	}
	_ = Marshal(rec) // cost paid, bytes dropped
	return true, nil
}

// Delete implements Backend.
func (b *NullFSBackend) Delete(key string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.keys[key] {
		return false, nil
	}
	delete(b.keys, key)
	b.count--
	return true, nil
}

// FSBackend persists marshalled records as one file per key under a
// sharded directory tree — the paper's default Infinispan configuration
// (ext4 over NVMM in DAX mode; here, whatever filesystem hosts dir).
type FSBackend struct {
	dir   string
	mu    sync.RWMutex
	known map[string]bool // avoids stat storms on misses
}

// NewFSBackend creates the directory tree rooted at dir. Writes are not
// forced to the device: the page cache plays the ADR role DAX ext4 gives
// the paper.
func NewFSBackend(dir string) (*FSBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &FSBackend{dir: dir, known: make(map[string]bool)}
	// Rebuild the key set on reopen.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, shard := range entries {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, shard.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			b.known[f.Name()] = true
		}
	}
	return b, nil
}

// Name implements Backend.
func (b *FSBackend) Name() string { return "FS" }

// Count implements Backend.
func (b *FSBackend) Count() int { b.mu.RLock(); defer b.mu.RUnlock(); return len(b.known) }

// Close implements Backend.
func (b *FSBackend) Close() error { return nil }

// Caps implements Backend.
func (b *FSBackend) Caps() Caps { return Caps{} }

func (b *FSBackend) path(key string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	return filepath.Join(b.dir, fmt.Sprintf("%02x", h.Sum32()&0xff), key)
}

// Insert implements Backend.
func (b *FSBackend) Insert(key string, rec *Record) error {
	p := b.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(p, Marshal(rec), 0o644); err != nil {
		return err
	}
	b.mu.Lock()
	b.known[key] = true
	b.mu.Unlock()
	return nil
}

// Read implements Backend.
func (b *FSBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	b.mu.RLock()
	known := b.known[key]
	b.mu.RUnlock()
	if !known {
		return false, nil
	}
	buf, err := os.ReadFile(b.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	rec, err := Unmarshal(buf)
	if err != nil {
		return false, err
	}
	for _, f := range rec.Fields {
		consume(f.Name, f.Value)
	}
	return true, nil
}

// Update implements Backend.
func (b *FSBackend) Update(key string, fields []Field) (bool, error) {
	b.mu.RLock()
	known := b.known[key]
	b.mu.RUnlock()
	if !known {
		return false, nil
	}
	p := b.path(key)
	buf, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	rec, err := Unmarshal(buf)
	if err != nil {
		return false, err
	}
	for _, f := range fields {
		rec.Set(f.Name, f.Value)
	}
	return true, os.WriteFile(p, Marshal(rec), 0o644)
}

// Delete implements Backend.
func (b *FSBackend) Delete(key string) (bool, error) {
	b.mu.Lock()
	known := b.known[key]
	delete(b.known, key)
	b.mu.Unlock()
	if !known {
		return false, nil
	}
	err := os.Remove(b.path(key))
	if os.IsNotExist(err) {
		return true, nil
	}
	return true, err
}
