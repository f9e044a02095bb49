package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/heap"
)

// RootMap is the persistent map of named roots that every region contains
// (JNVM.root in Figure 3). Persistent objects are live by reachability
// from these roots (§2.4).
//
// The persistent layout follows the general J-PDT recipe of §4.3.2: the
// durable state is a persistent extensible array of entry references, and
// a volatile mirror map provides the lookup logic. Adding or removing a
// binding mutates a single reference slot in NVMM, so the structure is
// crash-consistent without failure-atomic blocks.
type RootMap struct {
	obj *Object
	arr *Object

	mu     sync.RWMutex
	mirror map[string]rootSlot
	free   []uint64 // free slot indices in the entries array
}

type rootSlot struct {
	idx   uint64
	entry Ref
}

const (
	rootClassName  = "core.__root"
	rootArrClass   = "core.__rootarr"
	rootEntryClass = "core.__rootent"

	rootInitialSlots = 64

	// entry layout
	entValue  = 0
	entKeyLen = 8
	entKey    = 12
)

func builtinClasses() []*Class {
	return []*Class{
		{
			Name:    rootClassName,
			Factory: func(o *Object) PObject { return o },
			Refs:    func(o *Object) []uint64 { return []uint64{0} },
		},
		{
			Name:    rootArrClass,
			Factory: func(o *Object) PObject { return o },
			Refs: func(o *Object) []uint64 {
				offs := make([]uint64, o.Size()/8)
				for i := range offs {
					offs[i] = uint64(i) * 8
				}
				return offs
			},
		},
		{
			Name:    rootEntryClass,
			Factory: func(o *Object) PObject { return o },
			Refs:    func(o *Object) []uint64 { return []uint64{entValue} },
		},
	}
}

// openRoot resurrects (or creates) the root map after recovery.
func (h *Heap) openRoot() error {
	ref := h.mem.RootRef()
	if ref != 0 && !h.mem.Valid(ref) {
		// A crash interrupted root creation; start over.
		ref = 0
	}
	if ref == 0 {
		return h.createRoot()
	}
	obj := h.Inspect(ref)
	arrRef := obj.ReadRef(0)
	if arrRef == 0 || !h.mem.Valid(arrRef) {
		return fmt.Errorf("core: root map at %#x has no valid entry array", ref)
	}
	rm := &RootMap{obj: obj, arr: h.Inspect(arrRef), mirror: make(map[string]rootSlot)}
	h.root = rm
	return rm.rebuild(h)
}

func (h *Heap) createRoot() error {
	arrPO, err := h.Alloc(h.byName[rootArrClass], rootInitialSlots*8)
	if err != nil {
		return err
	}
	rootPO, err := h.Alloc(h.byName[rootClassName], 8)
	if err != nil {
		return err
	}
	arr, root := arrPO.Core(), rootPO.Core()
	root.WriteRef(0, arr.Ref())
	root.PWB()
	arr.PWB()
	arr.Validate()
	root.Validate()
	h.pool.PFence()
	h.mem.SetRootRef(root.Ref())
	rm := &RootMap{obj: root, arr: arr, mirror: make(map[string]rootSlot)}
	for i := uint64(0); i < rootInitialSlots; i++ {
		rm.free = append(rm.free, i)
	}
	h.root = rm
	return nil
}

// rebuild reconstructs the volatile mirror from the persistent array,
// dropping entries whose value reference was nullified by recovery.
func (rm *RootMap) rebuild(h *Heap) error {
	slots := rm.arr.Size() / 8
	cleaned := false
	for i := uint64(0); i < slots; i++ {
		eref := rm.arr.ReadRef(i * 8)
		if eref == 0 {
			rm.free = append(rm.free, i)
			continue
		}
		ent := h.Inspect(eref)
		if ent.ReadRef(entValue) == 0 {
			// Recovery nullified the value: retire the whole binding.
			rm.arr.WriteRef(i*8, 0)
			rm.arr.PWBField(i*8, 8)
			h.mem.FreeObject(eref)
			rm.free = append(rm.free, i)
			h.RecoveryStats.ReclaimedRoots++
			cleaned = true
			continue
		}
		klen := uint64(ent.ReadUint32(entKeyLen))
		key := string(ent.ReadBytes(entKey, klen))
		rm.mirror[key] = rootSlot{idx: i, entry: eref}
	}
	if cleaned {
		h.pool.PFence()
	}
	return nil
}

// Len returns the number of named roots.
func (rm *RootMap) Len() int {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	return len(rm.mirror)
}

// Exists reports whether a root with this name is bound.
func (rm *RootMap) Exists(name string) bool {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	_, ok := rm.mirror[name]
	return ok
}

// Names returns the bound root names, sorted.
func (rm *RootMap) Names() []string {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	out := make([]string, 0, len(rm.mirror))
	for k := range rm.mirror {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GetRef returns the persistent reference bound to name (0 if unbound).
func (rm *RootMap) GetRef(name string) Ref {
	rm.mu.RLock()
	s, ok := rm.mirror[name]
	rm.mu.RUnlock()
	if !ok {
		return 0
	}
	h := rm.obj.h
	return h.Inspect(s.entry).ReadRef(entValue)
}

// Get resurrects the object bound to name (nil if unbound).
func (rm *RootMap) Get(name string) (PObject, error) {
	ref := rm.GetRef(name)
	if ref == 0 {
		return nil, nil
	}
	return rm.obj.h.Resurrect(ref)
}

// WPut is the weak put of Figure 5: it binds name to the object without
// executing any fence, so a caller following the low-level discipline can
// publish several roots under a single pfence followed by validations.
// The binding survives a crash only once the value object is valid and a
// fence has executed.
func (rm *RootMap) WPut(name string, po PObject) error {
	if po == nil {
		return fmt.Errorf("core: cannot bind nil to root %q", name)
	}
	h := rm.obj.h
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if s, ok := rm.mirror[name]; ok {
		ent := h.Inspect(s.entry)
		ent.WriteRef(entValue, po.Core().Ref())
		ent.PWBField(entValue, 8)
		return nil
	}
	entPO, err := h.Alloc(h.byName[rootEntryClass], entKey+uint64(len(name)))
	if err != nil {
		return err
	}
	ent := entPO.Core()
	ent.WriteRef(entValue, po.Core().Ref())
	ent.WriteUint32(entKeyLen, uint32(len(name)))
	ent.WriteBytes(entKey, []byte(name))
	ent.PWB()
	ent.Validate()
	idx, err := rm.takeSlotLocked()
	if err != nil {
		return err
	}
	rm.arr.WriteRef(idx*8, ent.Ref())
	rm.arr.PWBField(idx*8, 8)
	rm.mirror[name] = rootSlot{idx: idx, entry: ent.Ref()}
	return nil
}

// Put durably binds name to the object: the value is validated and a sync
// closes the publication. This is the strong flavor used by Figure 3's
// JNVM.root.put.
func (rm *RootMap) Put(name string, po PObject) error {
	if err := rm.WPut(name, po); err != nil {
		return err
	}
	po.Core().Validate()
	rm.obj.h.pool.PSync()
	return nil
}

// Remove unbinds name, frees the entry object (not the value) and returns
// the value's reference (0 if name was unbound).
func (rm *RootMap) Remove(name string) Ref {
	h := rm.obj.h
	rm.mu.Lock()
	defer rm.mu.Unlock()
	s, ok := rm.mirror[name]
	if !ok {
		return 0
	}
	val := h.Inspect(s.entry).ReadRef(entValue)
	rm.arr.WriteRef(s.idx*8, 0)
	rm.arr.PWBField(s.idx*8, 8)
	h.pool.PFence() // unlink before the entry invalidation below
	h.mem.FreeObject(s.entry)
	delete(rm.mirror, name)
	rm.free = append(rm.free, s.idx)
	return val
}

// takeSlotLocked reserves a free slot index, growing the persistent array
// if necessary (callers hold rm.mu).
func (rm *RootMap) takeSlotLocked() (uint64, error) {
	if n := len(rm.free); n > 0 {
		idx := rm.free[n-1]
		rm.free = rm.free[:n-1]
		return idx, nil
	}
	h := rm.obj.h
	oldSlots := rm.arr.Size() / 8
	newPO, err := h.Alloc(h.byName[rootArrClass], rm.arr.Size()*2)
	if err != nil {
		return 0, err
	}
	newArr := newPO.Core()
	for i := uint64(0); i < oldSlots; i++ {
		newArr.WriteRef(i*8, rm.arr.ReadRef(i*8))
	}
	newArr.PWB()
	// Atomic swing of the entries array (§4.1.6).
	rm.obj.AtomicReplaceRef(0, newArr)
	old := rm.arr
	rm.arr = newArr
	_ = old // the old array was freed by AtomicReplaceRef
	for i := oldSlots + 1; i < newArr.Size()/8; i++ {
		rm.free = append(rm.free, i)
	}
	return oldSlots, nil
}

// ForEach calls fn for every binding, in unspecified order, with the bound
// reference. Intended for diagnostics and tests.
func (rm *RootMap) ForEach(fn func(name string, ref Ref)) {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	h := rm.obj.h
	for name, s := range rm.mirror {
		fn(name, h.Inspect(s.entry).ReadRef(entValue))
	}
}

// slotsCap is exposed for white-box tests.
func (rm *RootMap) slotsCap() uint64 { return rm.arr.Size() / 8 }

var _ = heap.Payload // keep the import for layout comments
