package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/store"
)

// Synchronous one-request helpers for the tests. Read copies the fields it
// returns, since a received response is only valid until the next Recv.

func (c *Client) Insert(key string, fields []store.Field) error {
	var resp Response
	if err := c.do(&Request{Op: OpInsert, Key: key, Fields: fields}, &resp); err != nil {
		return err
	}
	return statusErr(&resp)
}

func (c *Client) Read(key string) (fields []store.Field, found bool, err error) {
	var resp Response
	if err := c.do(&Request{Op: OpRead, Key: key}, &resp); err != nil {
		return nil, false, err
	}
	switch resp.Status {
	case StatusOK:
		for _, f := range resp.Fields {
			fields = append(fields, store.Field{Name: f.Name, Value: bytes.Clone(f.Value)})
		}
		return fields, true, nil
	case StatusNotFound:
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("wire: read: %s", resp.Msg)
}

func (c *Client) AddDelta(key, field string, delta int64) error {
	var resp Response
	if err := c.do(&Request{Op: OpAddDelta, Key: key, Field: field, Delta: delta}, &resp); err != nil {
		return err
	}
	return statusErr(&resp)
}

func statusErr(resp *Response) error {
	switch resp.Status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return store.ErrNotFound
	}
	return fmt.Errorf("wire: %s: %s", resp.Op, resp.Msg)
}

func sameFields(got, want []store.Field) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d fields, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || !bytes.Equal(got[i].Value, want[i].Value) {
			return fmt.Errorf("field %d is %q (%d B), want %q (%d B)",
				i, got[i].Name, len(got[i].Value), want[i].Name, len(want[i].Value))
		}
	}
	return nil
}

// aliases reports whether v lies inside buf's array.
func aliases(v, buf []byte) bool {
	if len(v) == 0 || cap(buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return p >= lo && p < lo+uintptr(cap(buf))
}

// Every READ reply of a pipelined window, decoded in place out of the
// client's frame buffer, equals the record the server stores, in every
// window of a run whose replies slide through the 64 KiB read buffer.
func TestClientRecvPipelinedReads(t *testing.T) {
	addr, _, stop := startTestServer(t, ServerConfig{})
	defer stop()
	cl, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const records, depth = 64, 16
	rng := rand.New(rand.NewSource(38))
	stored := make([][]store.Field, records)
	key := func(i int) string { return fmt.Sprintf("user%012d", i) }
	for i := range stored {
		for f := 0; f < 10; f++ {
			val := make([]byte, 100)
			rng.Read(val)
			stored[i] = append(stored[i], store.Field{Name: fmt.Sprintf("field%d", f), Value: val})
		}
		if err := cl.Insert(key(i), stored[i]); err != nil {
			t.Fatal(err)
		}
	}

	var resp Response
	for w := 0; w < 40; w++ {
		keys := rng.Perm(records)[:depth]
		for _, k := range keys {
			if err := cl.Send(&Request{Op: OpRead, Key: key(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := cl.Recv(&resp); err != nil {
				t.Fatal(err)
			}
			if resp.Op != OpRead || resp.Status != StatusOK {
				t.Fatalf("window %d: read %s: op %v status %d %s", w, key(k), resp.Op, resp.Status, resp.Msg)
			}
			if err := sameFields(resp.Fields, stored[k]); err != nil {
				t.Fatalf("window %d: read %s: %v", w, key(k), err)
			}
		}
	}
}

// A reply larger than the client's 64 KiB read buffer decodes equal, its
// values in the client's frame buffer; an error's Msg and a Stats Blob
// are copies that the replies after them leave intact.
func TestClientRecvLargeReplyAndOwnedCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	record := randFields(rng, 3)
	for i := range record {
		record[i].Value = make([]byte, 40<<10)
		rng.Read(record[i].Value)
	}
	stats := []byte(`{"server":{"requests":12345},"pad":"` + string(bytes.Repeat([]byte{'x'}, 1000)) + `"}`)
	addr, _, stop := startTestServer(t, ServerConfig{
		Grid:      store.NewGrid(&fixedBackend{fields: record}),
		StatsJSON: func() []byte { return bytes.Clone(stats) },
	})
	defer stop()
	cl, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	reqs := []Request{
		{Op: OpRead, Key: "broken"},
		{Op: OpStats},
		{Op: OpRead, Key: "k"},
		{Op: OpRead, Key: "missing"},
		{Op: OpRead, Key: "k"},
		{Op: OpPing},
	}
	for i := range reqs {
		if err := cl.Send(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp Response
	recv := func(op Op, st Status) {
		t.Helper()
		if err := cl.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Op != op || resp.Status != st {
			t.Fatalf("reply op %v status %d, want %v status %d", resp.Op, resp.Status, op, st)
		}
	}
	recv(OpRead, StatusErr)
	msg := resp.Msg
	recv(OpStats, StatusOK)
	blob := resp.Blob
	for i := 0; i < 2; i++ {
		recv(OpRead, StatusOK)
		if err := sameFields(resp.Fields, record); err != nil {
			t.Fatalf("large reply %d: %v", i, err)
		}
		if !aliases(resp.Fields[0].Value, cl.rbuf) {
			t.Fatalf("large reply %d did not decode out of the frame buffer", i)
		}
		if i == 0 {
			recv(OpRead, StatusNotFound)
		}
	}
	recv(OpPing, StatusOK)
	if msg != "medium error" {
		t.Fatalf("error message after later replies: %q", msg)
	}
	if !bytes.Equal(blob, stats) {
		t.Fatalf("stats blob changed under later replies: %.60q", blob)
	}
}
