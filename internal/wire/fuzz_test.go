package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"repro/internal/store"
)

func fieldsFixture() []store.Field {
	return []store.Field{
		{Name: "field0", Value: []byte("abcdefghij")},
		{Name: "field1", Value: []byte{}},
		{Name: "field2", Value: bytes.Repeat([]byte{0x5a}, 300)},
	}
}

// FuzzDecodeRequest hammers the request decoder with arbitrary frame
// bodies. The invariant is total: any input either decodes into a
// request that re-encodes to an equivalent frame, or fails cleanly —
// never a panic, never an unbounded allocation (the limits cap every
// length read before it is used).
func FuzzDecodeRequest(f *testing.F) {
	seed := [][]byte{
		AppendRequest(nil, &Request{Op: OpPing})[headerLen:],
		AppendRequest(nil, &Request{Op: OpStats})[headerLen:],
		AppendRequest(nil, &Request{Op: OpRead, Key: "user000000000042"})[headerLen:],
		AppendRequest(nil, &Request{Op: OpDelete, Key: "k"})[headerLen:],
		AppendRequest(nil, &Request{Op: OpInsert, Key: "k", Fields: fieldsFixture()})[headerLen:],
		AppendRequest(nil, &Request{Op: OpUpdate, Key: "k", Fields: fieldsFixture()})[headerLen:],
		AppendRequest(nil, &Request{Op: OpRMW, Key: "k", Fields: fieldsFixture()})[headerLen:],
		{},
		{0},
		{byte(OpRead), 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for _, s := range seed {
		f.Add(s)
	}
	names := make(nameTable)
	var inPlace Request // one slot reused across inputs, like a server connection's
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		err := DecodeRequest(body, &req)
		// The server's in-place mode must accept exactly the same frames
		// and decode them to the same request.
		errInPlace := decodeRequest(body, &inPlace, names)
		if (err == nil) != (errInPlace == nil) {
			t.Fatalf("copying decode: %v, in-place decode: %v", err, errInPlace)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(normalize(req.Fields), normalize(inPlace.Fields)) || req.Op != inPlace.Op ||
			req.Key != inPlace.Key || req.Field != inPlace.Field || req.Delta != inPlace.Delta {
			t.Fatalf("in-place decode differs:\n copying  %+v\n in-place %+v", req, inPlace)
		}
		// A decoded request must survive re-encode + decode unchanged.
		frame := AppendRequest(nil, &req)
		rebody, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatalf("re-encoded frame unreadable: %v", err)
		}
		var again Request
		if err := DecodeRequest(rebody, &again); err != nil {
			t.Fatalf("re-encoded frame undecodable: %v", err)
		}
		if again.Op != req.Op || again.Key != req.Key || len(again.Fields) != len(req.Fields) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", req, again)
		}
	})
}

// FuzzDecodeResponse is the same totality check for the response side.
func FuzzDecodeResponse(f *testing.F) {
	seed := [][]byte{
		AppendResponse(nil, &Response{Op: OpPing, Status: StatusOK})[headerLen:],
		AppendResponse(nil, &Response{Op: OpRead, Status: StatusOK, Fields: fieldsFixture()})[headerLen:],
		AppendResponse(nil, &Response{Op: OpRead, Status: StatusNotFound})[headerLen:],
		AppendResponse(nil, &Response{Op: OpInsert, Status: StatusErr, Msg: "pool exhausted"})[headerLen:],
		AppendResponse(nil, &Response{Op: OpStats, Status: StatusOK, Blob: []byte(`{"ops":1}`)})[headerLen:],
		{},
		{byte(OpRead)},
		{byte(OpRead), 3},
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp Response
		if err := DecodeResponse(body, &resp); err != nil {
			return
		}
		frame := AppendResponse(nil, &resp)
		rebody, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatalf("re-encoded frame unreadable: %v", err)
		}
		var again Response
		if err := DecodeResponse(rebody, &again); err != nil {
			t.Fatalf("re-encoded frame undecodable: %v", err)
		}
		if again.Op != resp.Op || again.Status != resp.Status || again.Msg != resp.Msg {
			t.Fatalf("re-decode mismatch: %+v vs %+v", resp, again)
		}
	})
}
