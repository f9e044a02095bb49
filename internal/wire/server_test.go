package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/store"
)

// startTestServer spins up a wire server over a real grid on a loopback
// listener and returns its address plus a shutdown func.
func startTestServer(t *testing.T, cfg ServerConfig) (string, *Server, func()) {
	t.Helper()
	if cfg.Grid == nil {
		env, err := stack.OpenGrid(stack.GridConfig{
			Backend: stack.JPFA,
			Records: 4096,
			Commit:  "async",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { env.Close() })
		cfg.Grid = env.Grid
		cfg.AwaitDurable = env.AwaitDurable
	}
	srv := NewServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	stop := func() {
		if !srv.Shutdown(10 * time.Second) {
			t.Error("server did not drain in 10s")
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
	return l.Addr().String(), srv, stop
}

// TestServerPipelinedConcurrentConnections is the tentpole race test:
// several connections pipeline mixed batches at once (inserts and
// deletes hit the structural lock, reads and updates the stripe locks),
// each connection checking its responses arrive in request order. Run
// under -race this pins down the ApplyBatch locking story.
func TestServerPipelinedConcurrentConnections(t *testing.T) {
	addr, srv, stop := startTestServer(t, ServerConfig{MaxBatch: 8})
	defer stop()

	const conns = 6
	const rounds = 40
	const window = 12 // deeper than MaxBatch: forces multi-window folds
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialTimeout(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			var resp Response
			for r := 0; r < rounds; r++ {
				reqs := make([]Request, window)
				for i := range reqs {
					key := fmt.Sprintf("c%d-r%d-%d", c, r, i)
					switch i % 4 {
					case 0:
						reqs[i] = Request{Op: OpInsert, Key: key, Fields: []store.Field{
							{Name: "f", Value: []byte(key)},
						}}
					case 1:
						reqs[i] = Request{Op: OpRead, Key: fmt.Sprintf("c%d-r%d-%d", c, r, i-1)}
					case 2:
						reqs[i] = Request{Op: OpUpdate, Key: fmt.Sprintf("c%d-r%d-%d", c, r, i-2), Fields: []store.Field{
							{Name: "f", Value: []byte("updated")},
						}}
					default:
						reqs[i] = Request{Op: OpDelete, Key: fmt.Sprintf("c%d-r%d-%d", c, r, i-3)}
					}
					if err := cl.Send(&reqs[i]); err != nil {
						errs <- err
						return
					}
				}
				if err := cl.Flush(); err != nil {
					errs <- err
					return
				}
				for i := range reqs {
					if err := cl.Recv(&resp); err != nil {
						errs <- fmt.Errorf("conn %d round %d recv %d: %w", c, r, i, err)
						return
					}
					if resp.Op != reqs[i].Op {
						errs <- fmt.Errorf("conn %d round %d: response %d is %v, want %v (out of order?)",
							c, r, i, resp.Op, reqs[i].Op)
						return
					}
					if resp.Status == StatusErr {
						errs <- fmt.Errorf("conn %d round %d op %v: %s", c, r, resp.Op, resp.Msg)
						return
					}
					// The read of the just-inserted key must see it: the
					// window executes in request order.
					if i%4 == 1 && resp.Status != StatusOK {
						errs <- fmt.Errorf("conn %d round %d: read-after-insert miss", c, r)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := srv.Stats().Snapshot()
	if snap.Requests != conns*rounds*window {
		t.Fatalf("requests counted %d, want %d", snap.Requests, conns*rounds*window)
	}
	if snap.Batches < uint64(conns*rounds) {
		t.Fatalf("batches %d below one per round per conn", snap.Batches)
	}
}

// TestServerAddDeltaOverWire drives the leaderboard fast path end to
// end: pipelined OpAddDelta frames fold in one window/epoch, a wire read
// sees the exact folded sum, and the Stats blob carries the delta and
// group-commit counters the benchmark diffs.
func TestServerAddDeltaOverWire(t *testing.T) {
	env, err := stack.OpenGrid(stack.GridConfig{
		Backend: stack.JPFA,
		Records: 4096,
		Commit:  "async",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	addr, _, stop := startTestServer(t, ServerConfig{
		Grid:         env.Grid,
		AwaitDurable: env.AwaitDurable,
		StatsJSON: func() []byte {
			b, err := json.Marshal(struct {
				Stack *obs.StackSnapshot `json:"stack"`
			}{env.Snapshot()})
			if err != nil {
				return []byte("{}")
			}
			return b
		},
	})
	defer stop()

	cl, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Insert("lb", []store.Field{{Name: "score", Value: make([]byte, 8)}}); err != nil {
		t.Fatal(err)
	}

	// One deep pipeline window of increments on the same hot key.
	const window = 64
	for i := 0; i < window; i++ {
		if err := cl.Send(&Request{Op: OpAddDelta, Key: "lb", Field: "score", Delta: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp Response
	for i := 0; i < window; i++ {
		if err := cl.Recv(&resp); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if resp.Op != OpAddDelta || resp.Status != StatusOK {
			t.Fatalf("recv %d: op %v status %d (%s)", i, resp.Op, resp.Status, resp.Msg)
		}
	}
	if err := cl.AddDelta("lb", "score", 8); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddDelta("nope", "score", 1); err != store.ErrNotFound {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}

	fields, found, err := cl.Read("lb")
	if err != nil || !found {
		t.Fatalf("read: found=%v err=%v", found, err)
	}
	var got int64 = -1
	for _, f := range fields {
		if f.Name == "score" && len(f.Value) == 8 {
			got = int64(binary.LittleEndian.Uint64(f.Value))
		}
	}
	if want := int64(window*3 + 8); got != want {
		t.Fatalf("score over wire = %d, want %d", got, want)
	}

	blob, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stack struct {
			FA struct {
				DeltaOps     uint64 `json:"delta_ops"`
				DeltasFolded uint64 `json:"deltas_folded"`
				Epochs       uint64 `json:"group_epochs"`
				AsyncCommits uint64 `json:"async_commits"`
			} `json:"fa"`
		} `json:"stack"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("stats blob: %v\n%s", err, blob)
	}
	fa := doc.Stack.FA
	if fa.DeltaOps == 0 || fa.DeltasFolded == 0 {
		t.Fatalf("stats blob missing delta counters: %+v", fa)
	}
	if fa.Epochs == 0 || fa.AsyncCommits == 0 {
		t.Fatalf("stats blob missing group counters: %+v", fa)
	}
}

// A malformed frame drops exactly that connection; the listener and
// other connections keep serving.
func TestServerDropsMalformedConn(t *testing.T) {
	addr, _, stop := startTestServer(t, ServerConfig{})
	defer stop()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Valid header, unknown op byte.
	if _, err := raw.Write([]byte{0, 0, 0, 1, 0xee}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("connection survived a malformed frame")
	}

	cl, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("healthy connection broken by another conn's bad frame: %v", err)
	}
}

// Shutdown drains: a window in flight when SIGTERM-equivalent hits is
// answered and flushed before the connection closes.
func TestServerDrainAnswersInFlightWindow(t *testing.T) {
	// Per-Tx commit: writes are durable when the grid returns, so the
	// durability hook is free to be nothing but a delay.
	env, err := stack.OpenGrid(stack.GridConfig{Backend: stack.JPFA, Records: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	addr, srv, _ := startTestServer(t, ServerConfig{
		Grid: env.Grid,
		// Hold the window open so Shutdown lands inside it.
		AwaitDurable: func() { time.Sleep(200 * time.Millisecond) },
	})

	cl, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if err := cl.Send(&Request{Op: OpInsert, Key: fmt.Sprintf("drain-%d", i), Fields: []store.Field{
			{Name: "f", Value: []byte("v")},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	var drained atomic.Bool
	go func() {
		time.Sleep(50 * time.Millisecond) // let the window start executing
		drained.Store(srv.Shutdown(10 * time.Second))
	}()

	var resp Response
	for i := 0; i < n; i++ {
		if err := cl.Recv(&resp); err != nil {
			t.Fatalf("response %d lost to drain: %v", i, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("response %d: status %d", i, resp.Status)
		}
	}
	// After the window flushed, the connection must close (drain), not
	// accept more work.
	deadline := time.Now().Add(5 * time.Second)
	for !drained.Load() {
		if time.Now().After(deadline) {
			t.Fatal("shutdown did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The connection cap holds: with MaxConns=2, a third connection is not
// served until a slot frees.
func TestServerConnBackpressure(t *testing.T) {
	addr, _, stop := startTestServer(t, ServerConfig{MaxConns: 2})
	defer stop()

	c1, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}

	// Third conn connects (kernel backlog) but gets no service while both
	// slots are held.
	c3, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.Send(&Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := c3.Flush(); err != nil {
		t.Fatal(err)
	}
	c3.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	var resp Response
	if err := c3.Recv(&resp); err == nil {
		t.Fatal("third connection served beyond MaxConns=2")
	} else if !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("want read timeout, got %v", err)
	}

	// Free a slot; the queued connection must now be served.
	c2.Close()
	c3.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := c3.Recv(&resp); err != nil {
		t.Fatalf("queued connection not served after slot freed: %v", err)
	}
	if resp.Op != OpPing || resp.Status != StatusOK {
		t.Fatalf("unexpected response %+v", resp)
	}
}

// taggedValue is a self-describing field value: the key, the writer, its
// version and the field name, repeated to the full length, so a reader
// can tell a consistent record from a mix of two updates or from another
// record's bytes showing through a recycled block.
func taggedValue(key string, writer, version int, field string) []byte {
	token := fmt.Sprintf("%s/w%d/v%d/%s;", key, writer, version, field)
	return []byte(strings.Repeat(token, 100/len(token)+1)[:100])
}

// Two connections pipeline UPDATEs and READs over the same few keys. Each
// UPDATE rewrites every field under one tag; each READ — most of them
// right behind an unacknowledged UPDATE of the same key, the shape that
// used to hand out a view of a block a concurrent drain was freeing —
// must come back as one consistent record: every field whole and all of
// them from the same update. Run under -race this also pins down that the
// reply is streamed under the key's stripe lock.
func TestServerSameKeysConsistentReads(t *testing.T) {
	addr, _, stop := startTestServer(t, ServerConfig{})
	defer stop()

	keys := []string{"hot-0", "hot-1", "hot-2", "hot-3", "hot-4"}
	names := []string{"field0", "field1", "field2", "field3"}
	record := func(key string, writer, version int) []store.Field {
		fs := make([]store.Field, len(names))
		for i, n := range names {
			fs[i] = store.Field{Name: n, Value: taggedValue(key, writer, version, n)}
		}
		return fs
	}
	seed, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := seed.Insert(k, record(k, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	const conns = 2
	const rounds = 150
	const window = 16
	var wg sync.WaitGroup
	for c := 1; c <= conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialTimeout(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			var resp Response
			reqs := make([]Request, window)
			for r := 0; r < rounds; r++ {
				for i := range reqs {
					key := keys[(c+r+i/2)%len(keys)]
					if i%2 == 0 {
						reqs[i] = Request{Op: OpUpdate, Key: key, Fields: record(key, c, r*window+i)}
					} else {
						reqs[i] = Request{Op: OpRead, Key: key} // the key just updated
					}
					if err := cl.Send(&reqs[i]); err != nil {
						t.Error(err)
						return
					}
				}
				if err := cl.Flush(); err != nil {
					t.Error(err)
					return
				}
				for i := range reqs {
					if err := cl.Recv(&resp); err != nil {
						t.Errorf("conn %d round %d recv %d: %v", c, r, i, err)
						return
					}
					if resp.Op != reqs[i].Op || resp.Status != StatusOK {
						t.Errorf("conn %d round %d reply %d: op %v status %d %s", c, r, i, resp.Op, resp.Status, resp.Msg)
						return
					}
					if resp.Op != OpRead {
						continue
					}
					if len(resp.Fields) != len(names) {
						t.Errorf("conn %d round %d: read of %s has %d fields", c, r, reqs[i].Key, len(resp.Fields))
						return
					}
					// The tag of field 0 names the update the whole record
					// must come from.
					tag, _, _ := strings.Cut(string(resp.Fields[0].Value), "/"+names[0]+";")
					var writer, version int
					if _, err := fmt.Sscanf(strings.TrimPrefix(tag, reqs[i].Key), "/w%d/v%d", &writer, &version); err != nil {
						t.Errorf("conn %d round %d: read of %s returned %q", c, r, reqs[i].Key, resp.Fields[0].Value)
						return
					}
					for j, f := range resp.Fields {
						if want := taggedValue(reqs[i].Key, writer, version, names[j]); f.Name != names[j] || string(f.Value) != string(want) {
							t.Errorf("conn %d round %d: read of %s is not one record: field %d %s=%q, want %q",
								c, r, reqs[i].Key, j, f.Name, f.Value, want)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestServerPoolFull fills a pool with pipelined INSERTs on every J-NVM
// stack: the inserts that find no room answer StatusErr, READ and DELETE
// keep serving, an INSERT after the DELETE succeeds, and the server stays
// up. The grid has no record cache, so its reads take the zero-copy path
// and the heap defers frees until no reader can hold them (DESIGN.md
// §14): the insert after the deletes finds their blocks only because an
// allocator that runs out reclaims that backlog first.
func TestServerPoolFull(t *testing.T) {
	for _, tc := range []struct{ name, backend, commit string }{
		{"jpdt", stack.JPDT, ""},
		{"jpfa", stack.JPFA, "per-tx"},
		{"jpfa-async", stack.JPFA, "async"},
	} {
		t.Run(tc.name, func(t *testing.T) { serverPoolFull(t, tc.backend, tc.commit) })
	}
}

func serverPoolFull(t *testing.T, backend, commit string) {
	st, err := stack.Open(nvm.New(2<<20, nvm.Options{}), stack.Config{
		Backend: backend, Commit: commit, LogSlots: 8, LogSlotSize: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	g := st.Grid
	if g.ReadPath() != "view" {
		t.Fatalf("grid read path %q, want view", g.ReadPath())
	}
	addr, _, stop := startTestServer(t, ServerConfig{
		Grid:         g,
		AwaitDurable: st.AwaitDurable,
	})
	defer stop()
	cl, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	fields := []store.Field{{Name: "f", Value: make([]byte, 300)}}
	var stored []string
	failed := 0
	var resp Response
	for round := 0; failed == 0; round++ {
		if round == 1000 {
			t.Fatalf("a 2 MiB pool took %d records without filling", len(stored))
		}
		const window = 32
		keys := make([]string, window)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%06d", round*window+i)
			if err := cl.Send(&Request{Op: OpInsert, Key: keys[i], Fields: fields}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if err := cl.Recv(&resp); err != nil {
				t.Fatalf("recv after %d records: %v", len(stored), err)
			}
			switch resp.Status {
			case StatusOK:
				stored = append(stored, key)
			case StatusErr:
				if !strings.Contains(resp.Msg, "out of NVMM") {
					t.Fatalf("insert %s: %q, want out of NVMM", key, resp.Msg)
				}
				failed++
			default:
				t.Fatalf("insert %s: status %d", key, resp.Status)
			}
		}
	}
	if len(stored) == 0 {
		t.Fatal("no insert succeeded")
	}
	t.Logf("pool full after %d records, %d inserts refused in the last window", len(stored), failed)

	if got, found, err := cl.Read(stored[0]); err != nil || !found || len(got) != 1 || len(got[0].Value) != 300 {
		t.Fatalf("read on a full pool: found=%v err=%v fields=%d", found, err, len(got))
	}
	victims := stored[len(stored)-4:]
	for _, key := range victims {
		if err := cl.Send(&Request{Op: OpDelete, Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, key := range victims {
		if err := cl.Recv(&resp); err != nil || resp.Status != StatusOK {
			t.Fatalf("delete %s on a full pool: status %d %q (%v)", key, resp.Status, resp.Msg, err)
		}
	}
	if err := cl.Insert("after-delete", fields); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	if _, found, err := cl.Read("after-delete"); err != nil || !found {
		t.Fatalf("read after re-insert: found=%v err=%v", found, err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("server down after the pool filled: %v", err)
	}
}
