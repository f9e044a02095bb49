package store

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pdt"
)

// FsckRecords verifies the store's own invariants on top of core.Fsck's
// graph checks, for every backend it finds among h's roots (a map bound
// under some name, its name dictionary under that name + ".names"):
// the dictionary is reachable and every entry below its count is a valid
// string; every record's table fits its object, stores only ids the
// dictionary resolves and inline lengths a word can hold. Read-only;
// returns the issue count.
func FsckRecords(h *core.Heap, report func(msg string)) int {
	issues := 0
	complain := func(format string, args ...any) {
		issues++
		if report != nil {
			report(fmt.Sprintf(format, args...))
		}
	}
	for _, root := range h.Root().Names() {
		if strings.HasSuffix(root, namesSuffix) {
			continue
		}
		po, err := h.Root().Get(root)
		if err != nil {
			complain("root %q: %v", root, err)
			continue
		}
		var records []core.Ref
		switch m := po.(type) {
		case *pdt.Map:
			err = m.ForEach(func(_ string, val core.PObject) bool {
				if r, ok := val.(*pRecord); ok {
					records = append(records, r.Ref())
				}
				return true
			})
			if err != nil {
				complain("root %q: %v", root, err)
			}
		case *pdt.LFMap:
			rec := mustClass(h, ClassRecord).ID()
			m.ForEach(func(_ string, vref core.Ref) bool {
				if h.Mem().ClassOf(vref) == rec {
					records = append(records, vref)
				}
				return true
			})
		}
		if len(records) == 0 {
			continue
		}
		names, ok := fsckNames(h, root+namesSuffix, complain)
		if !ok {
			continue
		}
		for _, ref := range records {
			fsckRecord(h.Inspect(ref), names, complain)
		}
	}
	return issues
}

// fsckNames checks the dictionary bound under root and returns its
// length.
func fsckNames(h *core.Heap, root string, complain func(string, ...any)) (int, bool) {
	po, err := h.Root().Get(root)
	if err != nil || po == nil {
		complain("name dictionary %q is not reachable: %v", root, err)
		return 0, false
	}
	arr, ok := po.(*pdt.PExtArray)
	if !ok {
		complain("name dictionary %q is a %T", root, po)
		return 0, false
	}
	n := arr.Len()
	if n > arr.Cap() {
		complain("name dictionary %q: count %d beyond its capacity %d", root, n, arr.Cap())
		return 0, false
	}
	str := h.MustClass(pdt.ClassString).ID()
	for i := 0; i < n; i++ {
		if ref := arr.Get(i); ref == 0 || !h.Mem().Valid(ref) || h.Mem().ClassOf(ref) != str {
			complain("name dictionary %q: entry %d (%#x) is not a valid string", root, i, ref)
		}
	}
	return n, true
}

func fsckRecord(o *core.Object, names int, complain func(string, ...any)) {
	n := int(o.ReadUint32(recCount))
	if recordSize(n) > o.Size() {
		complain("record %#x: %d fields do not fit its %d bytes", o.Ref(), n, o.Size())
		return
	}
	for i := 0; i < n; i++ {
		nw := o.ReadUint64(fieldNameOff(i))
		if nw&nameInterned == 0 {
			continue // per-record name: a reference core.Fsck follows
		}
		if id := int(wordID(nw)); id >= names {
			complain("record %#x field %d: name id %d beyond the dictionary's %d names", o.Ref(), i, id, names)
		}
		if ln, _ := inlineLen(nw); ln > maxInline || nw != internedWord(wordID(nw), wordRep(nw)) {
			complain("record %#x field %d: malformed name word %#x", o.Ref(), i, nw)
		}
	}
}
