package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/wire"
)

// server is one run of the command in this process.
type server struct {
	addr    string
	stop    chan os.Signal
	errc    chan error
	out     chan []string // every line the run printed, once it returns
	stopped bool
}

// start runs the command with args and waits for its "listening" line.
func start(t *testing.T, args ...string) *server {
	t.Helper()
	pr, pw := io.Pipe()
	s := &server{stop: make(chan os.Signal, 1), errc: make(chan error, 1), out: make(chan []string, 1)}
	go func() {
		s.errc <- run(args, pw, s.stop)
		pw.Close()
	}()
	addr := make(chan string, 1)
	go func() {
		var lines []string
		for br := bufio.NewReader(pr); ; {
			line, err := br.ReadString('\n')
			if err != nil {
				break
			}
			if f := strings.Fields(line); len(f) > 3 && f[1] == "listening" {
				addr <- f[3]
			}
			lines = append(lines, strings.TrimSuffix(line, "\n"))
		}
		close(addr)
		s.out <- lines
	}()
	var ok bool
	if s.addr, ok = <-addr; !ok {
		t.Fatalf("gridserver exited before listening: %v\n%s", <-s.errc, strings.Join(<-s.out, "\n"))
	}
	t.Cleanup(func() {
		if !s.stopped {
			s.shutdown(t)
		}
	})
	return s
}

// shutdown sends SIGTERM and requires a clean drain; it returns the
// run's output.
func (s *server) shutdown(t *testing.T) string {
	t.Helper()
	s.stopped = true
	s.stop <- syscall.SIGTERM
	select {
	case err := <-s.errc:
		out := strings.Join(<-s.out, "\n")
		if err != nil || !strings.Contains(out, "gridserver: drained") {
			t.Fatalf("shutdown: %v\n%s", err, out)
		}
		return out
	case <-time.After(30 * time.Second):
		t.Fatal("gridserver did not drain")
	}
	return ""
}

// call sends one request and returns its response.
func call(t *testing.T, cl *wire.Client, req *wire.Request) *wire.Response {
	t.Helper()
	var resp wire.Response
	if err := cl.Send(req); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("%v %q: status %d %s", req.Op, req.Key, resp.Status, resp.Msg)
	}
	return &resp
}

func readValue(t *testing.T, cl *wire.Client, key string) string {
	t.Helper()
	resp := call(t, cl, &wire.Request{Op: wire.OpRead, Key: key})
	if len(resp.Fields) != 1 || resp.Fields[0].Name != "f" {
		t.Fatalf("read %q: fields %v", key, resp.Fields)
	}
	return string(resp.Fields[0].Value)
}

// lookup follows a dotted path ("recovery.0.live_objects") through a
// decoded JSON document.
func lookup(doc any, path string) (any, bool) {
	for _, k := range strings.Split(path, ".") {
		switch x := doc.(type) {
		case map[string]any:
			doc = x[k]
		case []any:
			i, err := strconv.Atoi(k)
			if err != nil || i >= len(x) {
				return nil, false
			}
			doc = x[i]
		default:
			return nil, false
		}
	}
	return doc, doc != nil
}

// TestServeStatsRestart serves a file-backed J-PFA pool in async mode,
// inserts and reads a record over the wire, reads the layers' counters
// from a Stats reply, drains on SIGTERM, and reads the record back from a
// second run on the same directory.
func TestServeStatsRestart(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-backend", stack.JPFA, "-commit", "async",
		"-data", t.TempDir(), "-records", "64", "-fields", "1", "-fieldlen", "8"}

	s := start(t, args...)
	cl, err := wire.DialTimeout(s.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	call(t, cl, &wire.Request{Op: wire.OpInsert, Key: "k", Fields: []store.Field{{Name: "f", Value: []byte("v1")}}})
	if v := readValue(t, cl, "k"); v != "v1" {
		t.Fatalf("read %q, want v1", v)
	}
	blob, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"stack.nvm.pwbs", "stack.grid.zero_copy_hits", "recovery.0.live_objects", "records"} {
		if _, ok := lookup(doc, key); !ok {
			t.Errorf("Stats reply lacks %s: %s", key, blob)
		}
	}
	if n, _ := lookup(doc, "records"); n != 1.0 {
		t.Errorf("Stats reply: records %v, want 1", n)
	}
	cl.Close()
	s.shutdown(t)

	s = start(t, args...)
	cl, err = wire.DialTimeout(s.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v := readValue(t, cl, "k"); v != "v1" {
		t.Fatalf("after restart: read %q, want v1", v)
	}
	cl.Close()
	if out := s.shutdown(t); !strings.Contains(out, "recovered 1 records") {
		t.Errorf("restart did not report the recovered record:\n%s", out)
	}
}
