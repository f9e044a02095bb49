package pdt

import (
	"repro/internal/core"
	"repro/internal/fa"
)

// Set is the persistent set of §4.3: "a persistent map that associates
// each key with itself" — both words of a member's binding reference its
// key string, so a member costs one string.
type Set struct{ m *Map }

// NewSet creates an empty persistent set over the given mirror kind.
func NewSet(h *core.Heap, kind MirrorKind) (*Set, error) {
	m, err := NewMap(h, kind)
	if err != nil {
		return nil, err
	}
	return &Set{m: m}, nil
}

// AsSet views a resurrected persistent map as a set.
func AsSet(m *Map) *Set { return &Set{m: m} }

// Core exposes the underlying persistent object (for root-map publication).
func (s *Set) Core() *core.Object { return s.m.Core() }

// Map exposes the underlying map (diagnostics, Ascend).
func (s *Set) Map() *Map { return s.m }

// Len returns the number of members.
func (s *Set) Len() int { return s.m.Len() }

// Contains reports membership.
func (s *Set) Contains(key string) bool { return s.m.Contains(key) }

// Add inserts key; it is a no-op if already present.
func (s *Set) Add(key string) error {
	m := s.m
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if _, ok := m.mir.get(key); ok {
		return nil
	}
	return m.insertLocked(key, nil)
}

// AddTx inserts key inside a failure-atomic block.
func (s *Set) AddTx(tx *fa.Tx, key string) error {
	m := s.m
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.gateWait()
	if _, ok := m.mir.get(key); ok {
		return nil
	}
	return m.insertTxLocked(tx, key, nil)
}

// Delete removes key, freeing its storage; it reports prior membership.
func (s *Set) Delete(key string) bool { return s.m.Delete(key) }

// Members returns the member keys (sorted for ordered mirrors).
func (s *Set) Members() []string { return s.m.Keys() }

// ForEach iterates a snapshot of the members, in Members order, until fn
// returns false. fn runs without the mirror lock, so it may use the set.
func (s *Set) ForEach(fn func(key string) bool) {
	for _, k := range s.m.Keys() {
		if !fn(k) {
			return
		}
	}
}
