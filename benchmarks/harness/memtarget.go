package harness

import (
	"encoding/binary"
	"fmt"
)

// MemTarget is the dataset in plain Go memory behind the Target
// interface. The traced run applies the operation stream to it to learn
// what the harness itself costs per operation (generate, encode, verify),
// and the tests wrap it to corrupt values and drop writes.
type MemTarget struct {
	fields int
	names  []string
	index  map[string]int
	vals   [][]byte
}

// NewMemTarget loads o's dataset.
func NewMemTarget(o *Oracle) *MemTarget {
	m := &MemTarget{fields: o.w.Fields, names: o.names, index: make(map[string]int, len(o.keys))}
	for k, key := range o.keys {
		m.index[key] = k
		for _, f := range o.InitialFields(k) {
			m.vals = append(m.vals, f.Value)
		}
	}
	return m
}

func (m *MemTarget) slot(key, field string) ([]byte, error) {
	k, ok := m.index[key]
	if !ok {
		return nil, fmt.Errorf("no record %q", key)
	}
	for f, name := range m.names {
		if name == field {
			return m.vals[k*m.fields+f], nil
		}
	}
	return nil, fmt.Errorf("record %q has no field %q", key, field)
}

// Read implements Target.
func (m *MemTarget) Read(key string, consume func(name string, value []byte)) error {
	k, ok := m.index[key]
	if !ok {
		return fmt.Errorf("no record %q", key)
	}
	for f, name := range m.names {
		consume(name, m.vals[k*m.fields+f])
	}
	return nil
}

// Update implements Target.
func (m *MemTarget) Update(key string, fields []Field) error {
	for _, f := range fields {
		v, err := m.slot(key, f.Name)
		if err != nil {
			return err
		}
		copy(v, f.Value)
	}
	return nil
}

// AddDelta implements Target.
func (m *MemTarget) AddDelta(key, field string, delta int64) error {
	v, err := m.slot(key, field)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+uint64(delta))
	return nil
}
