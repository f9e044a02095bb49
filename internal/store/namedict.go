package store

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pdt"
)

// Field names are per-schema constants, so a J-NVM backend stores each
// one once: its name dictionary is an append-only pdt.PExtArray of
// PStrings bound under the backend's root name + namesSuffix, and a
// record's table holds the name's index instead of a private PString
// (DESIGN.md §3.1). The dictionary is a plain J-PDT structure in every
// backend — never written inside a failure-atomic block — so a name is
// durable, under its own fences, before intern returns its id; a crash
// may leave a name no record uses, never a record whose id does not
// resolve. Names are never removed.
const namesSuffix = ".names"

// maxNames bounds the dictionary: a client inventing field names must not
// grow the pool without bound (a 2^16-entry ref array is 512 KiB). Past
// the cap a record keeps a private name object, as before interning. A
// variable only so the tests reach the cap with a handful of names.
var maxNames = 1 << 16

// nameMirror is the volatile copy of the dictionary. It is immutable once
// published: intern installs a grown copy, so lookups take no lock.
type nameMirror struct {
	ids   map[string]uint32
	names []string
}

type nameDict struct {
	h   *core.Heap
	mu  sync.Mutex // serializes intern's append
	arr *pdt.PExtArray
	mir atomic.Pointer[nameMirror]
}

// openNameDict binds (or reopens) the dictionary of the backend rooted at
// rootName and rebuilds the mirror from the persistent array.
func openNameDict(h *core.Heap, rootName string) (*nameDict, error) {
	arr, err := openOrCreate(h, rootName+namesSuffix, func() (*pdt.PExtArray, error) { return pdt.NewExtArray(h) })
	if err != nil {
		return nil, err
	}
	n := arr.Len()
	m := &nameMirror{ids: make(map[string]uint32, n), names: make([]string, n)}
	for i := range m.names {
		// Append fences a name before the count can cover it, so every
		// slot below the count holds a valid PString.
		ref := arr.Get(i)
		if ref == 0 {
			return nil, fmt.Errorf("store: name dictionary %q: entry %d of %d is null", rootName+namesSuffix, i, n)
		}
		s := string(pdt.ReadBlob(h, ref))
		m.names[i] = s
		m.ids[s] = uint32(i)
	}
	d := &nameDict{h: h, arr: arr}
	d.mir.Store(m)
	return d, nil
}

// lookup resolves a name some record may already use.
func (d *nameDict) lookup(name string) (uint32, bool) {
	id, ok := d.mir.Load().ids[name]
	return id, ok
}

// name resolves an id read out of a record's table.
func (d *nameDict) name(id uint32) (string, bool) {
	names := d.mir.Load().names
	if int(id) >= len(names) {
		return "", false
	}
	return names[id], true
}

// intern returns name's id, appending it to the dictionary on first use.
// ok is false when the dictionary is full and the caller must store the
// name with the record. On return the name is durable: PExtArray.Append
// fences the string before its slot and the slot before the count, and
// the closing fence orders the count before any record that stores the
// id. The mirror keeps its own copy of name, which may be a view into a
// caller's buffer.
func (d *nameDict) intern(name string) (id uint32, ok bool, err error) {
	if id, ok := d.lookup(name); ok {
		return id, true, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.mir.Load()
	if id, ok := old.ids[name]; ok {
		return id, true, nil
	}
	if len(old.names) >= maxNames {
		return 0, false, nil
	}
	ps, err := pdt.NewString(d.h, name)
	if err != nil {
		return 0, false, err
	}
	if err := d.arr.Append(ps); err != nil {
		d.h.Free(ps)
		return 0, false, err
	}
	d.h.PFence()
	id = uint32(len(old.names))
	name = strings.Clone(name)
	m := &nameMirror{ids: maps.Clone(old.ids), names: append(old.names, name)}
	m.ids[name] = id
	d.mir.Store(m)
	return id, true, nil
}
