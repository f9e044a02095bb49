package store

import "strings"

// BatchOpKind enumerates the grid operations a batch can carry.
type BatchOpKind uint8

// Batch operation kinds.
const (
	BatchInsert BatchOpKind = iota
	BatchRead
	BatchUpdate
	BatchDelete
	BatchRMW
	BatchAddDelta
)

// BatchOp is one operation of a batch. Fields carries the payload of
// Insert/Update/RMW (RMW overwrites exactly the given fields under the
// key's lock, the YCSB read-modify-write shape); Field/Delta carry the
// AddDelta counter increment.
type BatchOp struct {
	Kind   BatchOpKind
	Key    string
	Fields []Field
	Field  string
	Delta  int64
}

// BatchResult is the outcome of one batch operation. Read results are
// deep copies: unlike the streaming Read, a batch result outlives the
// backend call, so it must not alias NVMM views.
type BatchResult struct {
	Err    error
	Fields []Field
}

// Apply executes one operation and is the network server's entry point
// (DESIGN.md §16): the server calls it request by request over a pipeline
// window and, under the async commit pipeline, fences the whole window
// once instead of per op. A read streams its fields to consume exactly
// like Grid.Read — views that are live only inside the callback, under
// the key's stripe lock — and no other kind calls consume.
//
// Concurrency: every kind rides the grid's stripe locks exactly like the
// direct method it calls. Inserts and deletes on different keys also
// touch the map's shared array, which the backend serializes itself
// (pdt.Map's write lock and commit gate), so Apply adds no lock of its own.
func (g *Grid) Apply(op *BatchOp, consume func(name string, value []byte)) error {
	switch op.Kind {
	case BatchInsert:
		return g.Insert(op.Key, &Record{Fields: op.Fields})
	case BatchRead:
		return g.Read(op.Key, consume)
	case BatchUpdate:
		return g.Update(op.Key, op.Fields)
	case BatchDelete:
		return g.Delete(op.Key)
	case BatchRMW:
		return g.ReadModifyWrite(op.Key, func(*Record) []Field { return op.Fields })
	case BatchAddDelta:
		return g.AddDelta(op.Key, op.Field, op.Delta)
	}
	return ErrNotFound
}

// ApplyBatch executes ops in order through Apply, one result per op, with
// a consumer that deep-copies every field a read streams.
func (g *Grid) ApplyBatch(ops []BatchOp, res []BatchResult) {
	var r *BatchResult
	keep := func(name string, value []byte) {
		r.Fields = append(r.Fields,
			Field{Name: strings.Clone(name), Value: append([]byte(nil), value...)})
	}
	for i := range ops {
		r = &res[i]
		r.Fields = nil
		r.Err = g.Apply(&ops[i], keep)
	}
}
