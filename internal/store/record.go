// Package store implements the data-grid substrate of the evaluation: an
// embedded key-value cache in the role of Infinispan (§5.1), with a
// volatile LRU cache in front of pluggable persistence backends — J-PDT,
// J-PFA, PCJ, and the file-system family (FS, TmpFS, NullFS, Volatile).
package store

import (
	"encoding/binary"
	"fmt"
)

// Field is one named field of a record (YCSB's field0..field9).
type Field struct {
	Name  string
	Value []byte
}

// Record is the volatile representation of a stored value: an ordered
// field list, which is what the YCSB client reads and writes.
type Record struct {
	Fields []Field
}

// Get returns the value of the named field.
func (r *Record) Get(name string) ([]byte, bool) {
	for i := range r.Fields {
		if r.Fields[i].Name == name {
			return r.Fields[i].Value, true
		}
	}
	return nil, false
}

// Set replaces (or appends) the named field.
func (r *Record) Set(name string, val []byte) {
	for i := range r.Fields {
		if r.Fields[i].Name == name {
			r.Fields[i].Value = val
			return
		}
	}
	r.Fields = append(r.Fields, Field{Name: name, Value: val})
}

// Clone deep-copies the record (cache entries must not alias caller data).
func (r *Record) Clone() *Record {
	out := &Record{Fields: make([]Field, len(r.Fields))}
	for i, f := range r.Fields {
		v := make([]byte, len(f.Value))
		copy(v, f.Value)
		out.Fields[i] = Field{Name: f.Name, Value: v}
	}
	return out
}

// Marshal serializes a record. This is the conversion cost that dominates
// the file-system backends in Figures 7 and 8 ("the main cost comes from
// data marshalling and not from the file system itself").
//
// Wire format: u32 nfields | per field: u32 nameLen, name, u32 valLen, val.
func Marshal(r *Record) []byte {
	size := 4
	for _, f := range r.Fields {
		size += 8 + len(f.Name) + len(f.Value)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(r.Fields)))
	off := 4
	for _, f := range r.Fields {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(f.Name)))
		off += 4
		off += copy(buf[off:], f.Name)
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(f.Value)))
		off += 4
		off += copy(buf[off:], f.Value)
	}
	return buf
}

// Unmarshal deserializes a record.
func Unmarshal(buf []byte) (*Record, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("store: truncated record header")
	}
	n := binary.LittleEndian.Uint32(buf)
	// Every field needs at least 8 bytes of header, so a count larger
	// than the buffer can hold is corrupt — and must be rejected before
	// the allocation below, or a hostile 4-byte input could demand
	// gigabytes (found by FuzzUnmarshal).
	if uint64(n) > uint64(len(buf)-4)/8 {
		return nil, fmt.Errorf("store: field count %d exceeds buffer capacity", n)
	}
	// All offset arithmetic in 64 bits: 32-bit sums of attacker-controlled
	// lengths wrap around and defeat the bounds checks (found by
	// FuzzUnmarshal).
	off := uint64(4)
	size := uint64(len(buf))
	rec := &Record{Fields: make([]Field, 0, n)}
	for i := uint32(0); i < n; i++ {
		if size-off < 4 {
			return nil, fmt.Errorf("store: truncated field %d name length", i)
		}
		nl := uint64(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if size-off < nl {
			return nil, fmt.Errorf("store: truncated field %d name", i)
		}
		name := string(buf[off : off+nl])
		off += nl
		if size-off < 4 {
			return nil, fmt.Errorf("store: truncated field %d value length", i)
		}
		vl := uint64(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if size-off < vl {
			return nil, fmt.Errorf("store: truncated field %d value", i)
		}
		val := make([]byte, vl)
		copy(val, buf[off:off+vl])
		off += vl
		rec.Fields = append(rec.Fields, Field{Name: name, Value: val})
	}
	return rec, nil
}
