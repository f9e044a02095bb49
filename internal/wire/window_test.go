package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/store"
)

// fixedBackend serves the same record for every key but "missing" (not
// found) and "broken" (an error after streaming part of the record). A
// field with a nil value is skipped, the way pRecord.read skips a field
// the recovery GC nullified.
type fixedBackend struct{ fields []store.Field }

func (b *fixedBackend) Name() string                               { return "fixed" }
func (b *fixedBackend) Insert(string, *store.Record) error         { return nil }
func (b *fixedBackend) Update(string, []store.Field) (bool, error) { return true, nil }
func (b *fixedBackend) Delete(string) (bool, error)                { return true, nil }
func (b *fixedBackend) Count() int                                 { return 1 }
func (b *fixedBackend) Close() error                               { return nil }
func (b *fixedBackend) Caps() store.Caps                           { return store.Caps{} }
func (b *fixedBackend) Read(key string, consume func(string, []byte)) (bool, error) {
	if key == "missing" {
		return false, nil
	}
	for i, f := range b.fields {
		if key == "broken" && i == len(b.fields)/2 {
			return false, errors.New("medium error")
		}
		if f.Value != nil {
			consume(f.Name, f.Value)
		}
	}
	if key == "broken" {
		return false, errors.New("medium error")
	}
	return true, nil
}

// The streamed READ reply — header, count placeholder, pairs appended from
// inside the consume callback, back-patched count and length — must be
// byte-identical to AppendResponse of the same fields, whatever the count
// (128 and up need a longer count than the placeholder) and whatever came
// before it in the output buffer.
func TestStreamedReadReplyMatchesAppendResponse(t *testing.T) {
	check := func(name string, served []store.Field, key string, want Response) {
		t.Helper()
		g := store.NewGrid(&fixedBackend{fields: served})
		w := newWindow(4)
		w.out = append(w.out, "earlier frames"...)
		wantBytes := AppendResponse(append([]byte(nil), w.out...), &want)
		w.apply(g, &Request{Op: OpRead, Key: key})
		if !bytes.Equal(w.out, wantBytes) {
			t.Errorf("%s: streamed reply differs from AppendResponse (%d vs %d bytes)",
				name, len(w.out), len(wantBytes))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 10, 127, 128, 1024} {
		fields := randFields(rng, n)
		name := fmt.Sprintf("%d fields", n)
		check(name, fields, "k", Response{Op: OpRead, Fields: fields})
		check(name+", not found", fields, "missing", Response{Op: OpRead, Status: StatusNotFound})
		check(name+", backend error", fields, "broken",
			Response{Op: OpRead, Status: StatusErr, Msg: "medium error"})
		if n >= 2 {
			holed := append([]store.Field(nil), fields...)
			holed[n/2].Value = nil
			kept := append(append([]store.Field(nil), fields[:n/2]...), fields[n/2+1:]...)
			check(name+", one nullified", holed, "k", Response{Op: OpRead, Fields: kept})
		}
	}
}

// In-place decoding: values alias the frame, names are interned (one
// string per distinct name per connection), Fields capacity is reused, and
// the request still equals what the copying decoder produces.
func TestDecodeInPlaceBorrowsValuesAndInternsNames(t *testing.T) {
	in := Request{Op: OpUpdate, Key: "user1", Fields: fieldsFixture()}
	frame := AppendRequest(nil, &in)[headerLen:]
	names := make(nameTable)
	var req, again, copied Request
	if err := decodeRequest(frame, &req, names); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequest(frame, &copied); err != nil {
		t.Fatal(err)
	}
	lo, hi := uintptr(unsafe.Pointer(&frame[0])), uintptr(unsafe.Pointer(&frame[len(frame)-1]))
	for i, f := range req.Fields {
		if f.Name != copied.Fields[i].Name || !bytes.Equal(f.Value, copied.Fields[i].Value) {
			t.Fatalf("field %d: in-place %q=%q, copying %q=%q", i, f.Name, f.Value,
				copied.Fields[i].Name, copied.Fields[i].Value)
		}
		if len(f.Value) > 0 {
			if p := uintptr(unsafe.Pointer(&f.Value[0])); p < lo || p > hi {
				t.Errorf("field %d: in-place value was copied out of the frame", i)
			}
			if p := uintptr(unsafe.Pointer(&copied.Fields[i].Value[0])); p >= lo && p <= hi {
				t.Errorf("field %d: DecodeRequest value aliases the frame", i)
			}
		}
	}
	again.Fields = req.Fields // a slot being reused by the next window
	if err := decodeRequest(frame, &again, names); err != nil {
		t.Fatal(err)
	}
	if &again.Fields[0] != &req.Fields[0] {
		t.Error("Fields capacity not reused across decodes")
	}
	for i := range req.Fields {
		if unsafe.StringData(again.Fields[i].Name) != unsafe.StringData(req.Fields[i].Name) {
			t.Errorf("field %d: name %q not interned", i, req.Fields[i].Name)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := decodeRequest(frame, &again, names); err != nil {
			t.Fatal(err)
		}
	}); n > 1 { // the key
		t.Errorf("in-place decode of a warm connection: %v allocs, want 1 (the key)", n)
	}

	// The table is bounded: past the cap, and for long names, a name is
	// still decoded correctly but no longer retained.
	for i := 0; i < 4*maxInternedNames; i++ {
		names.intern([]byte(fmt.Sprintf("name-%d", i)))
	}
	long := strings.Repeat("x", maxInternedLen+1)
	if got := names.intern([]byte(long)); got != long {
		t.Fatalf("long name decoded as %q", got)
	}
	if len(names) > maxInternedNames {
		t.Fatalf("name table grew to %d entries, cap %d", len(names), maxInternedNames)
	}
	if _, kept := names[long]; kept {
		t.Fatal("over-long name retained")
	}
}

// One oversized frame must not pin its buffers for the connection's
// lifetime: after the window that carried it, in and out are back at
// their defaults, and the small windows that follow neither regrow nor
// reallocate them.
func TestWindowDropsOversizedBuffers(t *testing.T) {
	big := Request{Op: OpUpdate, Key: "k", Fields: []store.Field{
		{Name: "f", Value: make([]byte, 2*retainFactor*inDefault)}}}
	small := Request{Op: OpUpdate, Key: "k", Fields: []store.Field{{Name: "f", Value: []byte("v")}}}
	var stream []byte
	stream = AppendRequest(stream, &big)
	for i := 0; i < 3; i++ {
		stream = AppendRequest(stream, &small)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	w := newWindow(4)
	readOne := func() {
		t.Helper()
		if _, err := w.read(br); err != nil {
			t.Fatal(err)
		}
	}

	readOne()
	w.out = append(w.out, make([]byte, 2*retainFactor*outDefault)...) // a huge READ reply
	if cap(w.in) <= retainFactor*inDefault || cap(w.out) <= retainFactor*outDefault {
		t.Fatalf("setup: buffers did not grow (in %d, out %d)", cap(w.in), cap(w.out))
	}
	w.reset()
	if cap(w.in) != inDefault || cap(w.out) != outDefault {
		t.Fatalf("after the oversized window: in cap %d (default %d), out cap %d (default %d)",
			cap(w.in), inDefault, cap(w.out), outDefault)
	}
	if stale := w.reqs[:1][0]; stale.Fields != nil {
		t.Fatal("a stale request slot still aliases the dropped window buffer")
	}
	inPtr, outPtr := unsafe.SliceData(w.in), unsafe.SliceData(w.out)
	for i := 0; i < 3; i++ {
		readOne()
		w.out = AppendResponse(w.out, &Response{Op: OpUpdate})
		w.reset()
		if unsafe.SliceData(w.in) != inPtr || unsafe.SliceData(w.out) != outPtr {
			t.Fatalf("small window %d reallocated a default-sized buffer", i)
		}
	}

	// Field-slice capacity is bounded the same way.
	w.reqs = w.reqs[:1]
	w.reqs[0].Fields = make([]store.Field, 0, 4*retainFields)
	w.reset()
	if w.reqs[:1][0].Fields != nil {
		t.Fatal("oversized Fields capacity kept across windows")
	}
}
