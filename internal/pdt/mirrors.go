package pdt

import (
	"sync/atomic"

	"repro/internal/container"
)

// mirror is the volatile key -> binding-index table of §4.3.2: a Go map
// for MirrorHash, a red-black tree or a skip list for the ordered kinds.
// It is not synchronized: Map.mu guards it (DESIGN.md §14), and the
// resurrection rebuild runs single-threaded. n counts the keys
// atomically, so Map.Len reads it without the lock.
type mirror struct {
	hash map[string]int
	tree orderedTable // nil for MirrorHash
	n    atomic.Int64
}

// orderedTable is the ordered mirrors' structure: container.RBTree and
// container.SkipList both implement it.
type orderedTable interface {
	Get(key string) (int, bool)
	Put(key string, idx int)
	Delete(key string) bool
	Ascend(from string, fn func(key string, idx int) bool)
}

func newMirror(kind MirrorKind) *mirror {
	switch kind {
	case MirrorTree:
		return &mirror{tree: container.NewRBTree[int]()}
	case MirrorSkip:
		return &mirror{tree: container.NewSkipList[int](0x5eed)}
	default:
		return &mirror{hash: make(map[string]int)}
	}
}

func (m *mirror) get(k string) (int, bool) {
	if m.tree != nil {
		return m.tree.Get(k)
	}
	v, ok := m.hash[k]
	return v, ok
}

func (m *mirror) put(k string, v int) {
	if _, ok := m.get(k); !ok {
		m.n.Add(1)
	}
	if m.tree != nil {
		m.tree.Put(k, v)
	} else {
		m.hash[k] = v
	}
}

func (m *mirror) del(k string) bool {
	if _, ok := m.get(k); !ok {
		return false
	}
	m.n.Add(-1)
	if m.tree != nil {
		m.tree.Delete(k)
	} else {
		delete(m.hash, k)
	}
	return true
}

func (m *mirror) len() int { return int(m.n.Load()) }

// forEach visits every entry, in key order for an ordered mirror.
func (m *mirror) forEach(fn func(key string, idx int) bool) {
	if m.tree != nil {
		m.tree.Ascend("", fn)
		return
	}
	for k, v := range m.hash {
		if !fn(k, v) {
			return
		}
	}
}
