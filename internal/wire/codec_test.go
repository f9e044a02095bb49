package wire

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/store"
)

func randFields(rng *rand.Rand, n int) []store.Field {
	fs := make([]store.Field, n)
	for i := range fs {
		name := make([]byte, 1+rng.Intn(16))
		for j := range name {
			name[j] = byte('a' + rng.Intn(26))
		}
		val := make([]byte, rng.Intn(200))
		rng.Read(val)
		fs[i] = store.Field{Name: string(name), Value: val}
	}
	return fs
}

// ReadFrame reads one frame body (op byte plus payload) from br, reusing
// buf when it is large enough. The returned slice is only valid until the
// next ReadFrame on the same buf.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	_, frame, err := appendFrame(br, buf[:0])
	return frame, err
}

// normalize maps the encodings that are identical on the wire onto one
// canonical form (nil vs empty slices).
func normalize(fs []store.Field) []store.Field {
	if len(fs) == 0 {
		return nil
	}
	out := make([]store.Field, len(fs))
	for i, f := range fs {
		out[i] = f
		if len(f.Value) == 0 {
			out[i].Value = []byte{}
		}
	}
	return out
}

func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []Op{OpPing, OpInsert, OpRead, OpUpdate, OpDelete, OpRMW, OpStats, OpAddDelta}
	for iter := 0; iter < 2000; iter++ {
		in := Request{Op: ops[rng.Intn(len(ops))]}
		switch in.Op {
		case OpPing, OpStats:
		default:
			key := make([]byte, rng.Intn(40))
			rng.Read(key)
			in.Key = string(key)
		}
		switch in.Op {
		case OpInsert, OpUpdate, OpRMW:
			in.Fields = randFields(rng, rng.Intn(5))
		case OpAddDelta:
			name := make([]byte, 1+rng.Intn(16))
			rng.Read(name)
			in.Field = string(name)
			in.Delta = rng.Int63() - rng.Int63() // exercise negative varints
		}

		frame := AppendRequest(nil, &in)
		body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatalf("iter %d: ReadFrame: %v", iter, err)
		}
		var out Request
		if err := DecodeRequest(body, &out); err != nil {
			t.Fatalf("iter %d: DecodeRequest(%v): %v", iter, in.Op, err)
		}
		in.Fields, out.Fields = normalize(in.Fields), normalize(out.Fields)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("iter %d: round trip mismatch:\n in  %+v\n out %+v", iter, in, out)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := []Op{OpPing, OpInsert, OpRead, OpUpdate, OpDelete, OpRMW, OpStats, OpAddDelta}
	for iter := 0; iter < 2000; iter++ {
		in := Response{Op: ops[rng.Intn(len(ops))], Status: Status(rng.Intn(3))}
		switch {
		case in.Status == StatusErr:
			in.Msg = "some error detail"
		case in.Status == StatusOK && in.Op == OpRead:
			in.Fields = randFields(rng, rng.Intn(5))
		case in.Status == StatusOK && in.Op == OpStats:
			in.Blob = []byte(`{"x":1}`)
		}

		frame := AppendResponse(nil, &in)
		body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatalf("iter %d: ReadFrame: %v", iter, err)
		}
		var out Response
		if err := DecodeResponse(body, &out); err != nil {
			t.Fatalf("iter %d: DecodeResponse(%v/%d): %v", iter, in.Op, in.Status, err)
		}
		in.Fields, out.Fields = normalize(in.Fields), normalize(out.Fields)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("iter %d: round trip mismatch:\n in  %+v\n out %+v", iter, in, out)
		}
	}
}

// Pipelined frames decode back-to-back from one stream, and the decoded
// values do not alias the (reused) frame buffer.
func TestPipelinedFramesNoAliasing(t *testing.T) {
	var stream []byte
	want := make([]Request, 20)
	rng := rand.New(rand.NewSource(3))
	for i := range want {
		want[i] = Request{Op: OpInsert, Key: string(rune('a' + i)), Fields: randFields(rng, 3)}
		stream = AppendRequest(stream, &want[i])
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	got := make([]Request, len(want))
	for i := range got {
		frame, err := ReadFrame(br, buf[:0])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = frame[:0] // reuse, like the server loop
		if err := DecodeRequest(frame, &got[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	for i := range want {
		if !reflect.DeepEqual(normalize(want[i].Fields), normalize(got[i].Fields)) || want[i].Key != got[i].Key {
			t.Fatalf("frame %d corrupted by buffer reuse:\n want %+v\n got  %+v", i, want[i], got[i])
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"zero op":            {0},
		"unknown op":         {byte(opMax)},
		"truncated key":      {byte(OpRead), 10, 'a', 'b'},
		"trailing garbage":   append(AppendRequest(nil, &Request{Op: OpPing})[headerLen:], 0xff),
		"huge field count":   {byte(OpInsert), 1, 'k', 0xff, 0xff, 0xff, 0xff, 0x7f},
		"key over limit":     append([]byte{byte(OpRead), 0x81, 0x80, 0x40}, make([]byte, 10)...), // length 1<<20+1
		"fields cut short":   {byte(OpUpdate), 1, 'k', 2, 1, 'f'},
		"value len overflow": {byte(OpUpdate), 1, 'k', 1, 1, 'f', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"delta missing":      {byte(OpAddDelta), 1, 'k', 1, 'f'},
		"delta truncated":    {byte(OpAddDelta), 1, 'k', 1, 'f', 0xff},
	}
	for name, frame := range cases {
		var req Request
		if err := DecodeRequest(frame, &req); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"zero length", []byte{0, 0, 0, 0}},
		{"over MaxFrame", []byte{0xff, 0xff, 0xff, 0xff}},
	} {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.frame)), nil)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", tc.name, err)
		}
	}
}

func TestBufferedFrame(t *testing.T) {
	frame := AppendRequest(nil, &Request{Op: OpRead, Key: "k"})
	two := append(append([]byte(nil), frame...), frame...)

	br := bufio.NewReader(bytes.NewReader(two))
	br.Peek(len(two)) // force both into the buffer
	if !BufferedFrame(br) {
		t.Fatal("complete frame in buffer not detected")
	}
	if _, err := ReadFrame(br, nil); err != nil {
		t.Fatal(err)
	}
	if !BufferedFrame(br) {
		t.Fatal("second complete frame not detected")
	}
	if _, err := ReadFrame(br, nil); err != nil {
		t.Fatal(err)
	}
	if BufferedFrame(br) {
		t.Fatal("empty buffer reported a frame")
	}

	// A partial frame must not count as available...
	br = bufio.NewReader(bytes.NewReader(frame[:len(frame)-1]))
	br.Peek(len(frame) - 1)
	if BufferedFrame(br) {
		t.Fatal("partial frame reported as available")
	}
	// ...but a malformed length must, so the read path surfaces the error.
	bad := []byte{0xff, 0xff, 0xff, 0xff, 0, 0}
	br = bufio.NewReader(bytes.NewReader(bad))
	br.Peek(len(bad))
	if !BufferedFrame(br) {
		t.Fatal("malformed length not reported as available")
	}
}
