package ycsb

import (
	"fmt"
	"math/rand"

	"repro/internal/store"
)

// OpType enumerates the YCSB operations the evaluation runs (§5.2: read,
// insert, update and rmw; scans are only used by workload E, which the
// paper skips).
type OpType int

// Operation kinds.
const (
	OpRead OpType = iota
	OpUpdate
	OpInsert
	OpRMW
)

// String names the op type.
func (t OpType) String() string {
	switch t {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpRMW:
		return "rmw"
	}
	return fmt.Sprintf("op(%d)", int(t))
}

// Config describes one workload instance. The zero proportions must sum
// to 1 across Read/Update/Insert/RMW.
type Config struct {
	Name        string
	RecordCount int
	FieldCount  int
	FieldLen    int
	Operations  int
	Threads     int

	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	RMWProp    float64

	// Distribution is "zipfian", "latest" or "uniform".
	Distribution string
	// WriteAllFields makes updates rewrite the full record; YCSB's
	// default (false) updates one random field.
	WriteAllFields bool

	Seed int64

	// fieldNames caches the rendered field names so the hot loop never
	// formats them (filled by Defaults).
	fieldNames []string
}

// Defaults fills unset knobs with the paper's defaults, scaled: the paper
// runs 3M records / 100M ops on an 80-core Optane box; the library default
// is 30k records so the full suite runs on a laptop. Benchmarks override.
func (c Config) Defaults() Config {
	if c.RecordCount == 0 {
		c.RecordCount = 30_000
	}
	if c.FieldCount == 0 {
		c.FieldCount = 10
	}
	if c.FieldLen == 0 {
		c.FieldLen = 100
	}
	if c.Operations == 0 {
		c.Operations = 3 * c.RecordCount
	}
	if c.Threads == 0 {
		c.Threads = 1 // the paper's default sequential client
	}
	if c.Distribution == "" {
		c.Distribution = "zipfian"
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.fieldNames) != c.FieldCount {
		c.fieldNames = make([]string, c.FieldCount)
		for i := range c.fieldNames {
			c.fieldNames[i] = FieldName(i)
		}
	}
	return c
}

// fieldName returns the cached rendering of field index i.
func (c Config) fieldName(i int) string {
	if i < len(c.fieldNames) {
		return c.fieldNames[i]
	}
	return FieldName(i)
}

// Workload returns the named standard workload (A, B, C, D or F).
func Workload(name string) (Config, error) {
	c := Config{Name: name}
	switch name {
	case "A": // update heavy
		c.ReadProp, c.UpdateProp = 0.5, 0.5
	case "B": // read mostly
		c.ReadProp, c.UpdateProp = 0.95, 0.05
	case "C": // read only
		c.ReadProp = 1.0
	case "D": // read latest
		c.ReadProp, c.InsertProp = 0.95, 0.05
		c.Distribution = "latest"
	case "F": // read-modify-write
		c.ReadProp, c.RMWProp = 0.5, 0.5
	default:
		return c, fmt.Errorf("ycsb: unknown workload %q", name)
	}
	return c, nil
}

// MustWorkload is Workload for known-good names.
func MustWorkload(name string) Config {
	c, err := Workload(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Key renders record index i as a YCSB key.
func Key(i int) string { return fmt.Sprintf("user%012d", i) }

// appendKey renders Key(i) into dst without allocating (given capacity):
// the hot loop reuses one buffer per thread and hands the store a
// transient string view over it, which every retention point in the store
// clones.
func appendKey(dst []byte, i int) []byte {
	dst = append(dst[:0], "user"...)
	var digits [12]byte
	for p := len(digits) - 1; p >= 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, digits[:]...)
}

// FieldName renders field index i.
func FieldName(i int) string { return fmt.Sprintf("field%d", i) }

// buildValue deterministically fills a field value (xorshift keyed by
// record, field and version).
func buildValue(dst []byte, record, field, version int) {
	x := uint64(record)*2654435761 ^ uint64(field)<<32 ^ uint64(version)<<48 ^ 0x9e3779b97f4a7c15
	for i := range dst {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = byte('a' + (x % 26))
	}
}

// BuildRecord produces the full record for index i.
func (c Config) BuildRecord(i int) *store.Record {
	rec := &store.Record{Fields: make([]store.Field, c.FieldCount)}
	for f := 0; f < c.FieldCount; f++ {
		v := make([]byte, c.FieldLen)
		buildValue(v, i, f, 0)
		rec.Fields[f] = store.Field{Name: c.fieldName(f), Value: v}
	}
	return rec
}

// updateFields produces the field set an update writes.
func (c Config) updateFields(rng *rand.Rand, record, version int) []store.Field {
	if c.WriteAllFields {
		out := make([]store.Field, c.FieldCount)
		for f := 0; f < c.FieldCount; f++ {
			v := make([]byte, c.FieldLen)
			buildValue(v, record, f, version)
			out[f] = store.Field{Name: c.fieldName(f), Value: v}
		}
		return out
	}
	f := rng.Intn(c.FieldCount)
	v := make([]byte, c.FieldLen)
	buildValue(v, record, f, version)
	return []store.Field{{Name: c.fieldName(f), Value: v}}
}

// updateFieldsInto is updateFields for the single-field default, reusing
// the caller's scratch: every backend copies values on update (into NVMM,
// a marshal buffer, or a fresh slice), so the buffer is safe to recycle
// across operations.
func (c Config) updateFieldsInto(rng *rand.Rand, record, version int, dst []store.Field, val []byte) []store.Field {
	if c.WriteAllFields {
		return c.updateFields(rng, record, version)
	}
	f := rng.Intn(c.FieldCount)
	buildValue(val, record, f, version)
	dst[0] = store.Field{Name: c.fieldName(f), Value: val}
	return dst[:1]
}
