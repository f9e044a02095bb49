package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/stack"
	"repro/internal/store"
)

// BenchmarkServerWindow is the allocation gate of the server path
// (scripts/check_allocs.sh): an in-process Server over loopback answers
// 16-deep pipeline windows of one request kind against YCSB-shaped records
// (10 fields x 100 B, plus an 8-byte counter) on J-PFA with async commit.
// One op is one request. The client side is raw — pre-encoded request
// bytes out, a fixed buffer of reply bytes in — so the allocs/op column is
// the server's alone. grid-update is the reference row the update ceiling
// is stated against: the same updates through Grid.Update directly.
func BenchmarkServerWindow(b *testing.B) {
	const (
		records = 512
		depth   = 16
	)
	env, err := stack.OpenGrid(stack.GridConfig{
		Backend: stack.JPFA, Records: records, FieldCount: 10, FieldLen: 100, Commit: "async",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	var keys [records]string
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	key := func(i int) string { return keys[i%records] }
	value := make([]byte, 100)
	for i := 0; i < records; i++ {
		rec := &store.Record{}
		for f := 0; f < 10; f++ {
			rec.Fields = append(rec.Fields, store.Field{Name: fmt.Sprintf("field%d", f), Value: value})
		}
		rec.Fields = append(rec.Fields, store.Field{Name: "count", Value: make([]byte, 8)})
		if err := env.Grid.Insert(key(i), rec); err != nil {
			b.Fatal(err)
		}
	}
	env.AwaitDurable()
	update := []store.Field{{Name: "field3", Value: value}}

	b.Run("grid-update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := env.Grid.Update(key(i), update); err != nil {
				b.Fatal(err)
			}
			if i%depth == depth-1 {
				env.AwaitDurable()
			}
		}
		env.AwaitDurable()
	})

	srv := NewServer(ServerConfig{Grid: env.Grid, AwaitDurable: env.AwaitDurable})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown(10 * time.Second)
		if err := <-served; err != nil {
			b.Error(err)
		}
	}()

	for _, kind := range []struct {
		name string
		req  func(i int) Request
	}{
		{"read", func(i int) Request { return Request{Op: OpRead, Key: key(i)} }},
		{"update", func(i int) Request { return Request{Op: OpUpdate, Key: key(i), Fields: update} }},
		{"adddelta", func(i int) Request { return Request{Op: OpAddDelta, Key: key(i), Field: "count", Delta: 1} }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			// Every window of a kind asks for different keys but has the
			// same encoded size in both directions (fixed-width keys,
			// same-shaped records), so a few pre-encoded windows and one
			// reply buffer serve the whole run.
			var windows [records / depth][]byte
			for w := range windows {
				for i := 0; i < depth; i++ {
					req := kind.req(w*depth + i)
					windows[w] = AppendRequest(windows[w], &req)
				}
			}
			reqLen := len(windows[0]) / depth
			roundTrip := func(w, n int, reply []byte) {
				if _, err := conn.Write(windows[w%len(windows)][:n*reqLen]); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, reply); err != nil {
					b.Fatal(err)
				}
			}
			// Warm-up: learn the reply size, fill the connection's name
			// table and grow its buffers.
			if _, err := conn.Write(windows[0][:reqLen]); err != nil {
				b.Fatal(err)
			}
			var hdr [headerLen]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				b.Fatal(err)
			}
			replyLen := headerLen + int(binary.BigEndian.Uint32(hdr[:]))
			reply := make([]byte, depth*replyLen)
			if _, err := io.ReadFull(conn, reply[:replyLen-headerLen]); err != nil {
				b.Fatal(err)
			}
			if Status(reply[1]) != StatusOK {
				b.Fatalf("warm-up reply status %d", reply[1])
			}
			for w := range windows {
				roundTrip(w, depth, reply)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for done, w := 0, 0; done < b.N; done, w = done+depth, w+1 {
				n := min(depth, b.N-done)
				roundTrip(w, n, reply[:n*replyLen])
			}
		})
	}
}

// BenchmarkClientWindow is the allocation gate of the client path
// (scripts/check_allocs.sh): a Client sends 16-deep pipeline windows of
// one request kind to a raw loopback peer, which answers every request
// with a pre-encoded reply — for a READ, a YCSB-shaped record of 10
// fields x 100 B. The bigupdate row sends a 100 KiB value, a frame larger
// than the client's 64 KiB write buffer. One op is one request and its
// reply; the peer only copies bytes, so the allocs/op column is the
// client's alone.
func BenchmarkClientWindow(b *testing.B) {
	const depth = 16
	value := make([]byte, 100)
	var record []store.Field
	for f := 0; f < 10; f++ {
		record = append(record, store.Field{Name: fmt.Sprintf("field%d", f), Value: value})
	}
	const key = "user000000000042"
	for _, kind := range []struct {
		name  string
		req   Request
		reply Response
	}{
		{"read", Request{Op: OpRead, Key: key}, Response{Op: OpRead, Fields: record}},
		{"update", Request{Op: OpUpdate, Key: key, Fields: record[3:4]}, Response{Op: OpUpdate}},
		{"adddelta", Request{Op: OpAddDelta, Key: key, Field: "count", Delta: 1}, Response{Op: OpAddDelta}},
		{"bigupdate", Request{Op: OpUpdate, Key: key, Fields: []store.Field{{Name: "field0", Value: make([]byte, 100<<10)}}}, Response{Op: OpUpdate}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			reply := AppendResponse(nil, &kind.reply)
			replies := bytes.Repeat(reply, depth)
			peer := make(chan error, 1)
			go func() { peer <- answerWindows(l, replies, len(reply)) }()
			cl, err := DialTimeout(l.Addr().String(), time.Second)
			if err != nil {
				b.Fatal(err)
			}
			var resp Response
			window := func(n int) {
				for i := 0; i < n; i++ {
					if err := cl.Send(&kind.req); err != nil {
						b.Fatal(err)
					}
				}
				if err := cl.Flush(); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if err := cl.Recv(&resp); err != nil {
						b.Fatal(err)
					}
					if resp.Op != kind.req.Op || len(resp.Fields) != len(kind.reply.Fields) {
						b.Fatalf("reply op %v with %d fields", resp.Op, len(resp.Fields))
					}
				}
			}
			window(depth) // warm-up: fill the name table, size the field slice

			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += depth {
				window(min(depth, b.N-done))
			}
			b.StopTimer()
			cl.Close()
			if err := <-peer; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// answerWindows serves one connection of BenchmarkClientWindow: it reads
// every request frame already buffered and answers them in one write of
// as many pre-encoded replies, until the client hangs up.
func answerWindows(l net.Listener, replies []byte, replyLen int) error {
	conn, err := l.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		n := 0
		for n == 0 || BufferedFrame(br) {
			if buf, err = ReadFrame(br, buf); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
					return nil
				}
				return err
			}
			n++
		}
		if _, err := conn.Write(replies[:n*replyLen]); err != nil {
			return err
		}
	}
}
