package harness

import (
	"encoding/binary"
	"fmt"
)

// Workload is one row of the benchmark: a dataset, an operation mix and
// the stack it runs on. README.md records why each one exists.
type Workload struct {
	Name     string
	Backend  string // gridserver -backend / bench.BackendKind
	Commit   string // "" (per-Tx), "async"
	Net      bool   // child gridserver + wire clients, else in-process Grid
	Records  int
	Fields   int
	FieldLen int
	ReadFrac float64
	Write    OpKind // OpUpdate or OpAddDelta
	Scramble bool
	// ChunkOps is the op count of one timing chunk on the embedded
	// workloads; every timing is a median over chunks.
	ChunkOps int
	// RefKops is the reference speed: the throughput of the in-memory
	// replay of this workload's stream on the build host when the
	// benchmark was defined (reference.go). It anchors the unit of every
	// timing and nothing else.
	RefKops float64
}

// Conns and Depth are the networked workloads' closed loop: each of Conns
// connections keeps a window of Depth requests in flight and sends the
// next window when the last reply of this one arrived.
const (
	Conns = 2
	Depth = 16
)

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
var Workloads = []*Workload{
	{Name: "emb-a", Backend: "J-PFA", Records: 100_000, Fields: 10, FieldLen: 100,
		ReadFrac: 0.50, Write: OpUpdate, Scramble: true, ChunkOps: 50_000, RefKops: 1000},
	{Name: "emb-b", Backend: "J-PDT", Records: 100_000, Fields: 10, FieldLen: 100,
		ReadFrac: 0.95, Write: OpUpdate, Scramble: true, ChunkOps: 100_000, RefKops: 900},
	{Name: "net-a", Backend: "J-PFA", Commit: "async", Net: true, Records: 100_000, Fields: 10, FieldLen: 100,
		ReadFrac: 0.50, Write: OpUpdate, Scramble: true, RefKops: 1000},
	{Name: "net-counter", Backend: "J-PFA", Commit: "async", Net: true, Records: 10_000, Fields: 1, FieldLen: 8,
		ReadFrac: 0.10, Write: OpAddDelta, Scramble: false, RefKops: 5700},
}

// FindWorkload returns the named workload.
func FindWorkload(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Scaled returns a copy of w with a dataset 1/div the size (-quick).
func (w *Workload) Scaled(div int) *Workload {
	c := *w
	c.Records = w.Records / div / Conns * Conns
	if c.ChunkOps > 0 {
		c.ChunkOps = w.ChunkOps / div
	}
	return &c
}

// UserBytes is the live user data of the loaded dataset: keys, field
// names and values. space_amp divides the heap's footprint by it.
func (w *Workload) UserBytes() int {
	per := len(KeyName(0))
	for f := 0; f < w.Fields; f++ {
		per += len(FieldName(f)) + w.FieldLen
	}
	return per * w.Records
}

// Target is the surface an operation stream is applied to: the grid, a
// bare backend, or a fake in the tests.
type Target interface {
	Read(key string, consume func(name string, value []byte)) error
	Update(key string, fields []Field) error
	AddDelta(key, field string, delta int64) error
}

// Oracle is the client's ack log: for every (record, field) the last
// value issued and the last value acknowledged. Versions for OpUpdate
// workloads, running sums for OpAddDelta ones. A lane only touches its
// own records, so the lanes share one Oracle without locking.
type Oracle struct {
	w      *Workload
	keys   []string
	names  []string
	issued []uint64
	acked  []uint64
}

// NewOracle describes the freshly loaded dataset (everything at 0).
func NewOracle(w *Workload) *Oracle {
	o := &Oracle{w: w,
		keys:   make([]string, w.Records),
		names:  make([]string, w.Fields),
		issued: make([]uint64, w.Records*w.Fields),
		acked:  make([]uint64, w.Records*w.Fields),
	}
	for i := range o.keys {
		o.keys[i] = KeyName(i)
	}
	for f := range o.names {
		o.names[f] = FieldName(f)
	}
	return o
}

// InitialFields builds record key's fields as loaded.
func (o *Oracle) InitialFields(key int) []Field {
	fs := make([]Field, o.w.Fields)
	for f := range fs {
		v := make([]byte, o.w.FieldLen)
		if o.w.Write == OpUpdate {
			EncodeValue(v, key, f, 0)
		}
		fs[f] = Field{Name: o.names[f], Value: v}
	}
	return fs
}

// Issue registers a write about to be sent and fills val with its payload
// (OpUpdate). It returns the value the field will hold once applied.
func (o *Oracle) Issue(op *Op, val []byte) uint64 {
	i := op.Key*o.w.Fields + op.Field
	if op.Kind == OpAddDelta {
		o.issued[i] += uint64(op.Delta)
	} else {
		o.issued[i]++
		EncodeValue(val, op.Key, op.Field, uint32(o.issued[i]))
	}
	return o.issued[i]
}

// Ack registers that the write which made the field hold v was
// acknowledged.
func (o *Oracle) Ack(op *Op, v uint64) { o.acked[op.Key*o.w.Fields+op.Field] = v }

// fieldValue decodes what a stored field holds: a version or a counter.
func (o *Oracle) fieldValue(key, field int, value []byte) (uint64, error) {
	if o.w.Write == OpAddDelta {
		if len(value) != 8 {
			return 0, fmt.Errorf("counter of %d bytes", len(value))
		}
		return binary.LittleEndian.Uint64(value), nil
	}
	v, err := DecodeValue(value, key, field)
	return uint64(v), err
}

// Checker verifies one record as its fields stream by. Each field must
// hold a value in lo[f]..hi[f]: while a stream runs both are what the
// lane had issued when it sent the read (one lane owns the record and the
// stack applies a lane's requests in order, so a read has exactly one
// legal answer); after a crash they are the acked and the issued value.
type Checker struct {
	o      *Oracle
	key    int
	seen   int
	lo, hi []uint64
	err    error
}

// Begin starts checking record key against the per-field bounds.
func (c *Checker) Begin(key int, lo, hi []uint64) {
	c.key, c.seen, c.lo, c.hi, c.err = key, 0, lo, hi, nil
}

// Field consumes one field; its signature is Target.Read's callback.
func (c *Checker) Field(name string, value []byte) {
	if c.err != nil {
		return
	}
	f := c.seen
	c.seen++
	if f >= c.o.w.Fields || name != c.o.names[f] {
		c.err = fmt.Errorf("%s: unexpected field %q at position %d", c.o.keys[c.key], name, f)
		return
	}
	got, err := c.o.fieldValue(c.key, f, value)
	if err != nil {
		c.err = fmt.Errorf("%s.%s: %v", c.o.keys[c.key], name, err)
		return
	}
	if got < c.lo[f] || got > c.hi[f] {
		c.err = fmt.Errorf("%s.%s: holds %d, legal range is %d..%d", c.o.keys[c.key], name, got, c.lo[f], c.hi[f])
	}
}

// End returns the record's verdict.
func (c *Checker) End() error {
	if c.err == nil && c.seen != c.o.w.Fields {
		c.err = fmt.Errorf("%s: %d fields, want %d", c.o.keys[c.key], c.seen, c.o.w.Fields)
	}
	return c.err
}

// Issued and Acked return record key's per-field slices of the ack log.
func (o *Oracle) Issued(key int) []uint64 { return o.issued[key*o.w.Fields : (key+1)*o.w.Fields] }
func (o *Oracle) Acked(key int) []uint64  { return o.acked[key*o.w.Fields : (key+1)*o.w.Fields] }

// Failures counts failed operations and keeps the first few messages.
type Failures struct {
	N    int
	Msgs []string
}

// Add records one failure.
func (f *Failures) Add(err error) {
	f.N++
	if len(f.Msgs) < 5 {
		f.Msgs = append(f.Msgs, err.Error())
	}
}

// Merge folds o into f.
func (f *Failures) Merge(o *Failures) {
	f.N += o.N
	for _, m := range o.Msgs {
		if len(f.Msgs) < 5 {
			f.Msgs = append(f.Msgs, m)
		}
	}
}
