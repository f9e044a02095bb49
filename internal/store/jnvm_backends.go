package store

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/pdt"
)

// JPDTBackend is the paper's fastest backend (Figure 7): records are
// persistent objects in a J-PDT map, manipulated through the low-level
// interface only — one fence per insert, one atomic reference swing per
// field update, zero marshalling.
type JPDTBackend struct {
	h     *core.Heap
	m     *pdt.Map
	names *nameDict
	objs  recordAlloc // plainObjects(h), built once
}

// NewJPDTBackend creates (or reopens) the backend's persistent map under
// the given root name, hash-mirrored when created. An existing map keeps
// its kind.
func NewJPDTBackend(h *core.Heap, rootName string) (*JPDTBackend, error) {
	m, err := openOrCreateMap(h, rootName)
	if err != nil {
		return nil, err
	}
	names, err := openNameDict(h, rootName)
	if err != nil {
		return nil, err
	}
	return &JPDTBackend{h: h, m: m, names: names, objs: plainObjects(h)}, nil
}

// openOrCreate resurrects the object bound to rootName, or binds the one
// create makes.
func openOrCreate[T core.PObject](h *core.Heap, rootName string, create func() (T, error)) (T, error) {
	var none T
	if h.Root().Exists(rootName) {
		po, err := h.Root().Get(rootName)
		if err != nil {
			return none, err
		}
		m, ok := po.(T)
		if !ok {
			return none, fmt.Errorf("store: root %q is a %T, not a %T", rootName, po, none)
		}
		return m, nil
	}
	m, err := create()
	if err != nil {
		return none, err
	}
	return m, h.Root().Put(rootName, m)
}

func openOrCreateMap(h *core.Heap, rootName string) (*pdt.Map, error) {
	return openOrCreate(h, rootName, func() (*pdt.Map, error) { return pdt.NewMap(h, pdt.MirrorHash) })
}

// Name implements Backend.
func (b *JPDTBackend) Name() string { return "J-PDT" }

// Count implements Backend.
func (b *JPDTBackend) Count() int { return b.m.Len() }

// Caps implements Backend: zero-copy views.
func (b *JPDTBackend) Caps() Caps { return Caps{View: b} }

// Close implements Backend.
func (b *JPDTBackend) Close() error { return nil }

// SetProxyCache switches the underlying map's proxy-cache variant
// (base / cached / eager, §4.3.2) — the only caching J-PDT uses (§5.3.1:
// "with J-PDT, only proxies are kept in the cache").
func (b *JPDTBackend) SetProxyCache(mode pdt.CacheMode) error {
	return b.m.SetCacheMode(mode)
}

// Insert implements Backend: all field objects and the record publish
// under the map's single insert fence.
func (b *JPDTBackend) Insert(key string, rec *Record) error {
	r, err := newRecord(b.names, b.objs, rec.Fields)
	if err != nil {
		return err
	}
	return b.m.Put(key, r) // validates r, fences once, writes the slot
}

// Read implements Backend.
func (b *JPDTBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	po, err := b.m.Get(key)
	if err != nil || po == nil {
		return false, err
	}
	return true, po.(*pRecord).read(b.names, key, consume)
}

// Update implements Backend. A field that keeps its representation is
// updated in place: a referenced value becomes a fresh immutable object
// swung in with AtomicReplaceRef (§4.1.6), which also frees the previous
// one, and an inline value is one atomic 8-byte store. The two words of a
// field cannot change together, so the first field that changes
// representation (inline to reference, reference to inline, another
// inline length) takes the rest of the update through replaceTable.
func (b *JPDTBackend) Update(key string, fields []Field) (bool, error) {
	po, err := b.m.Get(key)
	if err != nil || po == nil {
		return false, err
	}
	r := po.(*pRecord)
	for fi, f := range fields {
		i := r.fieldIndex(b.names, f.Name)
		if i < 0 {
			return false, fmt.Errorf("store: record %q has no field %q", key, f.Name)
		}
		nw := r.ReadUint64(fieldNameOff(i))
		rep, vw, inline := inlineValue(nw&nameInterned != 0, f.Value)
		switch {
		case rep != wordRep(nw):
			err := b.replaceTable(key, r, fields[fi:])
			return err == nil, err
		case inline:
			r.WriteRefAtomic(fieldValOff(i), vw)
			r.PWBField(fieldValOff(i), 8)
			r.PFence()
		default:
			vb, err := pdt.NewBytes(b.h, f.Value)
			if err != nil {
				return false, err
			}
			r.AtomicReplaceRef(fieldValOff(i), vb)
		}
	}
	return true, nil
}

// replaceTable applies fields to a copy of r's table and publishes the
// copy with one swing of the binding's value word, which frees r; the values the copy
// no longer references are freed after it, under the swing's fence.
func (b *JPDTBackend) replaceTable(key string, r *pRecord, fields []Field) error {
	nr, dropped, err := r.rewrite(b.names, b.objs, key, fields)
	if err != nil {
		return err
	}
	if err := b.m.Put(key, nr); err != nil {
		return err
	}
	for _, ref := range dropped {
		b.h.Mem().FreeObject(ref)
	}
	return nil
}

// Delete implements Backend: the record is unlinked (one fence inside
// Remove), then the whole object graph is freed without further fences.
func (b *JPDTBackend) Delete(key string) (bool, error) {
	po, err := b.m.Remove(key)
	if err != nil || po == nil {
		return false, err
	}
	r := po.(*pRecord)
	r.freeChildren(b.h)
	b.h.Free(r)
	return true, nil
}

// JPFABackend runs every mutation inside a failure-atomic block (J-PFA).
// Same data layout as J-PDT; the difference is the redo-log protocol cost
// that Figure 7 measures (J-PDT up to 65% faster).
type JPFABackend struct {
	h     *core.Heap
	mgr   *fa.Manager
	m     *pdt.Map
	names *nameDict
}

// NewJPFABackend creates (or reopens) the backend state.
func NewJPFABackend(h *core.Heap, mgr *fa.Manager, rootName string) (*JPFABackend, error) {
	m, err := openOrCreateMap(h, rootName)
	if err != nil {
		return nil, err
	}
	names, err := openNameDict(h, rootName)
	if err != nil {
		return nil, err
	}
	return &JPFABackend{h: h, mgr: mgr, m: m, names: names}, nil
}

// Name implements Backend.
func (b *JPFABackend) Name() string { return "J-PFA" }

// Count implements Backend.
func (b *JPFABackend) Count() int { return b.m.Len() }

// Caps implements Backend: zero-copy views and deltas, in either commit
// mode.
func (b *JPFABackend) Caps() Caps { return Caps{View: b, Delta: b} }

// Close implements Backend.
func (b *JPFABackend) Close() error { return nil }

// Insert implements Backend. A field name seen for the first time is
// appended to the dictionary outside the block, under its own fences, so
// it is durable before the block can commit a record that stores its id;
// an aborted or crashed block leaves it unused, which is legal.
func (b *JPFABackend) Insert(key string, rec *Record) error {
	return b.mgr.Run(func(tx *fa.Tx) error {
		r, err := newRecord(b.names, txObjects(tx), rec.Fields)
		if err != nil {
			return err
		}
		return b.m.PutTx(tx, key, r)
	})
}

// get resolves key to its record, ready for raw reads. In async commit
// mode two things stand between the map and a trustworthy raw image:
//
//   - An acknowledged insert may still sit in the epoch queue — its map
//     write and mirror update only land at drain — so a miss drains once
//     and retries before reporting not-found (read-your-acknowledged-
//     writes for existence).
//   - A queued update of the record rewrites table words and frees the
//     old value object when its epoch drains, and any goroutine's drain
//     may run at any time: the grid's stripe lock keeps new writers of
//     the key out, not the drain of one already queued. So the record's
//     blocks are settled before anyone looks at them raw; afterwards the
//     table is current and nothing queued can free what it points to for
//     as long as the caller holds the stripe lock.
//
// deltas selects the full settle, which also waits out the ledger deltas
// on the record's counter words — pending, or being applied by an epoch
// in flight — so a raw read observes every acknowledged increment whole
// (reads-see-acknowledged-writes). ADDDELTA passes false: it reads only
// name words, and settling its own key's ledger entry on every op would
// leave nothing to fold. Outside async mode either settle is one atomic
// load per block.
func (b *JPFABackend) get(key string, deltas bool) (*pRecord, error) {
	po, err := b.m.Get(key)
	if err == nil && po == nil && b.mgr.CommitMode() == fa.CommitAsync {
		b.mgr.DrainDurable()
		po, err = b.m.Get(key)
	}
	if err != nil || po == nil {
		return nil, err
	}
	r := po.(*pRecord)
	b.settle(r, deltas)
	return r, nil
}

// settle waits until no queued or in-flight commit holds r's blocks and,
// with deltas, until no ledger delta is pending on them either.
func (b *JPFABackend) settle(r *pRecord, deltas bool) {
	for _, blk := range r.BlockRefs() {
		if deltas {
			b.mgr.Settle(blk)
		} else {
			b.mgr.SettleCommits(blk)
		}
	}
}

// Read implements Backend (reads need no block, as in the paper).
func (b *JPFABackend) Read(key string, consume func(string, []byte)) (bool, error) {
	r, err := b.get(key, true)
	if err != nil || r == nil {
		return false, err
	}
	return true, r.read(b.names, key, consume)
}

// Update implements Backend.
func (b *JPFABackend) Update(key string, fields []Field) (bool, error) {
	r, err := b.get(key, true)
	if err != nil || r == nil {
		return false, err
	}
	err = b.mgr.Run(func(tx *fa.Tx) error {
		for _, f := range fields {
			i := r.fieldIndex(b.names, f.Name)
			if i < 0 {
				return fmt.Errorf("store: record %q has no field %q", key, f.Name)
			}
			if err := b.setFieldTx(tx, r, i, f.Value); err != nil {
				return err
			}
		}
		return nil
	})
	return err == nil, err
}

// setFieldTx stores value in field i of r inside the block. Both table
// words go through the redo log, so the field changes representation —
// inline to reference or back, one inline length to another — with the
// block or not at all; a referenced value it replaces is freed at commit.
func (b *JPFABackend) setFieldTx(tx *fa.Tx, r *pRecord, i int, value []byte) error {
	// Raw: whether the name is interned never changes.
	interned := r.ReadUint64(fieldNameOff(i))&nameInterned != 0
	rep, vw, inline := inlineValue(interned, value)
	if !inline {
		vb, err := pdt.NewBytesTx(tx, value)
		if err != nil {
			return err
		}
		vw = vb.Ref()
	}
	old, err := tx.ReadUint64(r.Object, fieldValOff(i))
	if err != nil {
		return err
	}
	if err := tx.WriteUint64(r.Object, fieldValOff(i), vw); err != nil {
		return err
	}
	// Through the block's view: an earlier field of the same update may
	// have changed this field's representation.
	nw, err := tx.ReadUint64(r.Object, fieldNameOff(i))
	if err != nil {
		return err
	}
	if rep != wordRep(nw) {
		if err := tx.WriteUint64(r.Object, fieldNameOff(i), internedWord(wordID(nw), rep)); err != nil {
			return err
		}
	}
	if wordRep(nw) != repRef || old == 0 {
		return nil
	}
	prev, err := b.h.Resurrect(old)
	if err != nil {
		return err
	}
	return tx.Free(prev)
}

// Delete implements Backend.
func (b *JPFABackend) Delete(key string) (bool, error) {
	found := false
	err := b.mgr.Run(func(tx *fa.Tx) error {
		ref := b.m.GetRef(key)
		if ref == 0 && b.mgr.CommitMode() == fa.CommitAsync {
			// A queued insert of this key has not reached the mirror yet;
			// settle the epoch before concluding it does not exist.
			b.mgr.DrainDurable()
			ref = b.m.GetRef(key)
		}
		if ref == 0 {
			return nil
		}
		found = true
		po, err := b.h.Resurrect(ref)
		if err != nil {
			return err
		}
		r := po.(*pRecord)
		b.settle(r, true)
		for _, off := range recordRefs(r.Object) {
			// Read the child refs through the redo view: a raw read
			// could observe a value ref a queued update epoch is about
			// to replace and free, and freeing it here again would
			// corrupt the heap. The tx read drains queued applies
			// touching the block first (fa.locate's waitClear).
			cref, err := tx.ReadRef(r.Object, off)
			if err != nil {
				return err
			}
			if cref == 0 {
				continue // nullified by a recovery
			}
			child, err := b.h.Resurrect(cref)
			if err != nil {
				return err
			}
			if err := tx.Free(child); err != nil {
				return err
			}
		}
		_, err = b.m.DeleteTx(tx, key)
		return err
	})
	return found, err
}

// PCJBackend models Persistent Collections for Java: the same persistent
// layout accessed through a JNI gate. §5.2 attributes PCJ's slowness to
// "the Java native interface that requires heavy synchronization to call
// a native method": every NVMM access batch takes a global handshake plus
// a fixed native-call overhead, and values cross the boundary through a
// serialization step.
type PCJBackend struct {
	inner *JPDTBackend
	mu    sync.Mutex // the JVM-wide synchronization JNI entails
	// CrossingNs is the modeled cost of one JNI crossing.
	CrossingNs int
}

// DefaultJNICrossingNs is calibrated so that PCJ lands 13.8–22.7x behind
// J-PDT on YCSB (Figure 7) at the default record shape; it covers the JNI
// transition, the VM handshake and PMDK's per-accessor transactional
// bookkeeping.
const DefaultJNICrossingNs = 3200

// NewPCJBackend creates (or reopens) the backend state.
func NewPCJBackend(h *core.Heap, rootName string) (*PCJBackend, error) {
	inner, err := NewJPDTBackend(h, rootName)
	if err != nil {
		return nil, err
	}
	return &PCJBackend{inner: inner, CrossingNs: DefaultJNICrossingNs}, nil
}

// Name implements Backend.
func (b *PCJBackend) Name() string { return "PCJ" }

// Count implements Backend.
func (b *PCJBackend) Count() int { return b.inner.Count() }

// Caps implements Backend: the JNI gate serializes everything, so PCJ
// offers none of the inner backend's fast paths.
func (b *PCJBackend) Caps() Caps { return Caps{} }

// Close implements Backend.
func (b *PCJBackend) Close() error { return nil }

// cross models one JNI native call: acquire the VM handshake, pay the
// transition cost, release.
func (b *PCJBackend) cross(n int) {
	for i := 0; i < n; i++ {
		b.mu.Lock()
		nvm.SpinWait(b.CrossingNs)
		b.mu.Unlock()
	}
}

// Insert implements Backend: one crossing per field object created, plus
// a serialization pass for the value transfer.
func (b *PCJBackend) Insert(key string, rec *Record) error {
	b.cross(2*len(rec.Fields) + 1)
	buf := Marshal(rec)
	r2, err := Unmarshal(buf)
	if err != nil {
		return err
	}
	return b.inner.Insert(key, r2)
}

// Read implements Backend: one crossing per field read back across JNI.
func (b *PCJBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	collected := &Record{}
	ok, err := b.inner.Read(key, func(name string, val []byte) {
		collected.Set(name, val)
	})
	if !ok || err != nil {
		return ok, err
	}
	// Each field name and value is a separate persistent object crossing
	// the JNI boundary.
	b.cross(2 * len(collected.Fields))
	rt, err := Unmarshal(Marshal(collected)) // boundary copy
	if err != nil {
		return false, err
	}
	for _, f := range rt.Fields {
		consume(f.Name, f.Value)
	}
	return true, nil
}

// Update implements Backend: PCJ updates run inside a PMDK transaction —
// begin/commit plus read-old/write-new crossings per field.
func (b *PCJBackend) Update(key string, fields []Field) (bool, error) {
	b.cross(4*len(fields) + 2)
	return b.inner.Update(key, fields)
}

// Delete implements Backend.
func (b *PCJBackend) Delete(key string) (bool, error) {
	b.cross(2)
	return b.inner.Delete(key)
}
