// Package wire is the grid's network protocol: a length-prefixed binary
// framing with RESP-style pipelining (DESIGN.md §16). Clients write any
// number of request frames without waiting; the server folds each
// pipeline window it finds buffered into one grid batch — and, under the
// async commit pipeline, into one group-commit epoch — then answers with
// one response frame per request, in order.
//
// Frame layout (all integers big-endian, strings uvarint-length-prefixed):
//
//	| u32 length | u8 op | payload (length-1 bytes) |
//
// The length covers the op byte and payload. Requests and responses share
// the framing; a response echoes the request op and prefixes its payload
// with a status byte. Field lists are a uvarint count followed by
// (name, value) string pairs.
//
// The codec enforces hard limits (frame, key, value and field-count
// caps) so a malformed or hostile frame fails fast with ErrMalformed
// instead of ballooning allocations — the fuzz suite pins that down.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/store"
)

// Protocol limits. A frame that exceeds them is malformed by definition;
// the server drops the connection rather than trust the length prefix.
const (
	MaxFrame     = 16 << 20 // whole frame payload cap (op byte included)
	MaxKeyLen    = 64 << 10
	MaxFieldName = 64 << 10
	MaxValueLen  = 4 << 20
	MaxFields    = 1024

	headerLen = 4 // u32 length prefix
)

// Op enumerates the request kinds.
type Op uint8

// The wire operations. OpPing and OpStats bypass the grid; the rest map
// one-to-one onto store.Grid operations.
const (
	OpPing Op = iota + 1
	OpInsert
	OpRead
	OpUpdate
	OpDelete
	OpRMW
	OpStats
	OpAddDelta // appended after OpStats so committed corpora keep their op bytes
	opMax
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpInsert:
		return "insert"
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpRMW:
		return "rmw"
	case OpStats:
		return "stats"
	case OpAddDelta:
		return "adddelta"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the leading byte of every response payload.
type Status uint8

// Response statuses.
const (
	StatusOK       Status = 0
	StatusNotFound Status = 1
	StatusErr      Status = 2
)

// ErrMalformed reports a frame that violates the protocol (bad lengths,
// truncated payload, unknown op, limit overflow). The server closes the
// connection on it: framing state past a malformed frame is unknowable.
var ErrMalformed = errors.New("wire: malformed frame")

// Request is one decoded client request.
type Request struct {
	Op     Op
	Key    string
	Fields []store.Field
	// Field and Delta carry the OpAddDelta counter increment.
	Field string
	Delta int64
}

// Response is one decoded server response. One filled by Client.Recv is
// valid until the next Recv on that client (its Fields and their values
// are the client's buffers); one filled by DecodeResponse owns its data.
type Response struct {
	Op     Op
	Status Status
	// Fields carries a read result (StatusOK reads only).
	Fields []store.Field
	// Blob carries the OpStats JSON payload.
	Blob []byte
	// Msg carries the StatusErr message.
	Msg string
}

// ---- primitive encoding ----

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// decoder walks a frame payload with bounds checks; every read error
// collapses into ErrMalformed. With a names table it decodes in place
// (the server's and the client's mode): field values are sub-slices of
// buf and field names come out of the table. Without one every decoded
// field is a copy.
type decoder struct {
	buf   []byte
	off   int
	names nameTable
}

// nameTable interns the field names of one connection: a workload names
// the same few fields in every request, so after the first window a
// decoded name costs a map probe, not an allocation. Names are owned
// strings either way (DESIGN.md §16); the table only saves the copy. It
// is bounded — once full, or for a long name, a name is a fresh string.
type nameTable map[string]string

const (
	maxInternedNames = 64
	maxInternedLen   = 64
)

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok { // the conversion in a map index does not allocate
		return s
	}
	s := string(b)
	if len(t) < maxInternedNames && len(b) <= maxInternedLen {
		t[s] = s
	}
	return s
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(limit int) ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(limit) || n > uint64(len(d.buf)-d.off) {
		return nil, ErrMalformed
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) str(limit int) (string, error) {
	b, err := d.bytes(limit)
	return string(b), err
}

// name decodes a field name: interned in in-place mode, else a fresh string.
func (d *decoder) name() (string, error) {
	b, err := d.bytes(MaxFieldName)
	if err != nil || d.names == nil {
		return string(b), err
	}
	return d.names.intern(b), nil
}

// fields decodes a field list onto the empty dst (in-place mode, reusing
// its capacity) or into a fresh slice (copying mode).
func (d *decoder) fields(dst []store.Field) ([]store.Field, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxFields {
		return nil, ErrMalformed
	}
	if d.names == nil {
		dst = make([]store.Field, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		val, err := d.bytes(MaxValueLen)
		if err != nil {
			return nil, err
		}
		if d.names == nil {
			val = append([]byte(nil), val...)
		}
		dst = append(dst, store.Field{Name: name, Value: val})
	}
	return dst, nil
}

func (d *decoder) done() error {
	if d.off != len(d.buf) {
		return ErrMalformed // trailing garbage
	}
	return nil
}

func appendField(dst []byte, name string, value []byte) []byte {
	return appendBytes(appendString(dst, name), value)
}

func appendFields(dst []byte, fs []store.Field) []byte {
	dst = appendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = appendField(dst, f.Name, f.Value)
	}
	return dst
}

// ---- request codec ----

// AppendRequest appends the full frame (length prefix included) for req.
func AppendRequest(dst []byte, req *Request) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	dst = append(dst, byte(req.Op))
	switch req.Op {
	case OpPing, OpStats:
	default:
		dst = appendString(dst, req.Key)
	}
	switch req.Op {
	case OpInsert, OpUpdate, OpRMW:
		dst = appendFields(dst, req.Fields)
	case OpAddDelta:
		dst = appendString(dst, req.Field)
		dst = binary.AppendVarint(dst, req.Delta)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-headerLen))
	return dst
}

// DecodeRequest parses a frame body (op byte plus payload) into req.
// Field values are copied out of the frame buffer; names and keys are
// freshly allocated strings.
func DecodeRequest(frame []byte, req *Request) error {
	req.Fields = nil
	return decodeRequest(frame, req, nil)
}

// decodeRequest is DecodeRequest with the decoding mode made explicit. A
// non-nil names table selects the server's in-place mode: field values
// alias frame, req.Fields reuses the capacity it arrives with, and field
// names (Request.Field included) are interned. Keys are owned strings in
// both modes — the FS-family backends keep the caller's key (store.Backend).
func decodeRequest(frame []byte, req *Request, names nameTable) error {
	*req = Request{Fields: req.Fields[:0]}
	if len(frame) < 1 {
		return ErrMalformed
	}
	op := Op(frame[0])
	if op == 0 || op >= opMax {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, frame[0])
	}
	req.Op = op
	d := decoder{buf: frame, off: 1, names: names}
	switch op {
	case OpPing, OpStats:
		return d.done()
	}
	key, err := d.str(MaxKeyLen)
	if err != nil {
		return err
	}
	req.Key = key
	switch op {
	case OpInsert, OpUpdate, OpRMW:
		if req.Fields, err = d.fields(req.Fields); err != nil {
			return err
		}
	case OpAddDelta:
		if req.Field, err = d.name(); err != nil {
			return err
		}
		if req.Delta, err = d.varint(); err != nil {
			return err
		}
	}
	return d.done()
}

// ---- response codec ----

// AppendResponse appends the full frame (length prefix included) for resp.
func AppendResponse(dst []byte, resp *Response) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, byte(resp.Op), byte(resp.Status))
	switch {
	case resp.Status == StatusErr:
		dst = appendString(dst, resp.Msg)
	case resp.Status == StatusOK && resp.Op == OpRead:
		dst = appendFields(dst, resp.Fields)
	case resp.Status == StatusOK && resp.Op == OpStats:
		dst = appendBytes(dst, resp.Blob)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-headerLen))
	return dst
}

// A READ reply can also be streamed, for a producer that learns the field
// count only by walking the record: beginReadReply appends the frame up to
// a one-byte count placeholder, the caller appends (name, value) pairs
// with appendField, and endReadReply back-patches count and length. The
// result is byte-identical to AppendResponse of the same fields.
func beginReadReply(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, byte(OpRead), byte(StatusOK), 0)
}

// endReadReply finishes the reply begun at dst[start:] with n streamed
// fields. A count of 128 or more does not fit the placeholder byte; the
// pairs then shift right to make room for the longer uvarint.
func endReadReply(dst []byte, start, n int) []byte {
	cnt := start + headerLen + 2
	if n < 0x80 {
		dst[cnt] = byte(n)
	} else {
		var uv [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(uv[:], uint64(n))
		end := len(dst)
		dst = append(dst, uv[:k-1]...)
		copy(dst[cnt+k:], dst[cnt+1:end])
		copy(dst[cnt:], uv[:k])
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-headerLen))
	return dst
}

// DecodeResponse parses a frame body (op byte plus payload) into resp.
// Every decoded field, message and blob is an owned copy.
func DecodeResponse(frame []byte, resp *Response) error {
	return decodeResponse(frame, resp, nil, nil)
}

// decodeResponse is DecodeResponse with the decoding mode made explicit.
// A non-nil names table selects the client's in-place mode: field values
// alias frame, and resp.Fields is decoded onto the empty fields, reusing
// its capacity. Msg and Blob are copies in both modes, so an error or a
// stats document outlives the next reply.
func decodeResponse(frame []byte, resp *Response, fields []store.Field, names nameTable) error {
	*resp = Response{}
	if len(frame) < 2 {
		return ErrMalformed
	}
	op := Op(frame[0])
	if op == 0 || op >= opMax {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, frame[0])
	}
	st := Status(frame[1])
	if st > StatusErr {
		return fmt.Errorf("%w: unknown status %d", ErrMalformed, frame[1])
	}
	resp.Op, resp.Status = op, st
	d := decoder{buf: frame, off: 2, names: names}
	var err error
	switch {
	case st == StatusErr:
		resp.Msg, err = d.str(MaxFieldName)
	case st == StatusOK && op == OpRead:
		resp.Fields, err = d.fields(fields)
	case st == StatusOK && op == OpStats:
		var b []byte
		b, err = d.bytes(MaxFrame)
		resp.Blob = append([]byte(nil), b...)
	}
	if err != nil {
		return err
	}
	return d.done()
}

// ---- frame I/O ----

// appendFrame reads one frame body onto the end of buf and returns the
// grown buffer and the body, a sub-slice of it. Growing may move the
// buffer; sub-slices handed out earlier keep pointing at the old array,
// which stays intact, so a window's frames can be appended one after the
// other while requests decoded in place still reference the earlier ones.
func appendFrame(br *bufio.Reader, buf []byte) (grown, frame []byte, err error) {
	hdr, err := br.Peek(headerLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(headerLen) // cannot fail: Peek just buffered these bytes
	if n == 0 || n > MaxFrame {
		return buf, nil, fmt.Errorf("%w: frame length %d", ErrMalformed, n)
	}
	off := len(buf)
	buf = slices.Grow(buf, int(n))[:off+int(n)]
	if _, err := io.ReadFull(br, buf[off:]); err != nil {
		return buf[:off], nil, err
	}
	return buf, buf[off:], nil
}

// BufferedFrame reports whether a complete frame is already sitting in
// br's buffer — the batching test: the server keeps extending a pipeline
// window only while the next frame needs no network wait, so a slow
// client can never stall a batch that is ready to execute.
func BufferedFrame(br *bufio.Reader) bool {
	if br.Buffered() < headerLen {
		return false
	}
	hdr, err := br.Peek(headerLen)
	if err != nil {
		return false
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrame {
		// Malformed length: report it as available so the reader path
		// consumes it and surfaces ErrMalformed instead of spinning.
		return true
	}
	return br.Buffered() >= headerLen+int(n)
}
