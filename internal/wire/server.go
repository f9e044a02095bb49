package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// ServerConfig wires a Server to a grid and its durability pipeline.
type ServerConfig struct {
	Grid *store.Grid

	// AwaitDurable, when non-nil, is called once per pipeline window that
	// contained at least one write, after the whole window executed and
	// before any of its responses are flushed. Under the async commit
	// pipeline this is the batching→epoch fold of DESIGN.md §16: the
	// window's commits ride one epoch drain, so an acknowledged write is
	// always durable. Nil means writes are durable when the grid returns
	// (per-Tx mode, and the structurally-persistent backends).
	AwaitDurable func()

	// StatsJSON provides the OpStats payload (a JSON document; the server
	// never looks inside it).
	StatsJSON func() []byte

	// MaxConns caps concurrent connections; the accept loop stops pulling
	// from the listen backlog when the cap is reached (kernel-side
	// backpressure). 0 means 256.
	MaxConns int

	// MaxBatch caps the requests folded into one pipeline window. 0
	// means 128. The cap is the server-side backpressure bound: a client
	// that pipelines deeper than this still gets every response, but in
	// multiple windows.
	MaxBatch int
}

// Server serves the grid over the wire protocol. Create with NewServer,
// run with Serve, stop with Shutdown.
type Server struct {
	cfg   ServerConfig
	stats obs.ServerStats

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	drainCh chan struct{}
	sem     chan struct{}
	wg      sync.WaitGroup
}

// NewServer builds a server around the config.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 128
	}
	if cfg.StatsJSON == nil {
		cfg.StatsJSON = func() []byte { return []byte("{}") }
	}
	return &Server{
		cfg:     cfg,
		conns:   make(map[net.Conn]struct{}),
		drainCh: make(chan struct{}),
		sem:     make(chan struct{}, cfg.MaxConns),
	}
}

// Stats exposes the live server counters.
func (s *Server) Stats() *obs.ServerStats { return &s.stats }

// Serve accepts connections on l until Shutdown (returns nil) or a
// non-drain accept error (returned).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		// Connection-limit backpressure: hold an accept slot before
		// pulling the next connection off the backlog.
		select {
		case s.sem <- struct{}{}:
		case <-s.drainCh:
			return nil
		}
		conn, err := l.Accept()
		if err != nil {
			<-s.sem
			select {
			case <-s.drainCh:
				return nil
			default:
				return err
			}
		}
		s.stats.ConnsAccepted.Inc()
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			<-s.sem
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Shutdown drains the server: stop accepting, let every in-flight
// pipeline window finish and flush, then close the connections. Blocks
// until all handlers exit or the timeout passes; returns true on a clean
// drain.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
		if s.listener != nil {
			s.listener.Close()
		}
		// Unpark handlers blocked between windows; handlers mid-window
		// are unaffected (deadlines only gate reads) and flush first.
		now := time.Now()
		for c := range s.conns {
			c.SetReadDeadline(now)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Per-connection buffer sizing. A buffer that one window grew beyond
// retainFactor times its default is dropped back to the default after the
// window, so a single 16 MB frame does not pin 16 MB for the connection's
// lifetime (times MaxConns).
const (
	inDefault    = 16 << 10
	outDefault   = 32 << 10
	retainFactor = 16
	retainFields = 64 // Request.Fields capacity kept across windows
)

// window is one connection's reusable state. A pipeline window is a
// single pass with no per-field allocation: request frames are appended
// to in and decoded in place (field values are sub-slices of in, borrowed
// by the grid for the call; keys and names are owned strings), and every
// response frame is appended to out as its request executes — a READ
// reply streams the record's NVMM views straight into out from inside the
// grid's consume callback, under the key's stripe lock.
type window struct {
	in    []byte
	reqs  []Request
	names nameTable
	out   []byte

	// nfields counts the fields streamed into the READ reply under
	// construction; consume is w.field bound once per connection.
	nfields int
	consume func(name string, value []byte)
}

func newWindow(maxBatch int) *window {
	w := &window{
		in:    make([]byte, 0, inDefault),
		reqs:  make([]Request, 0, maxBatch),
		names: make(nameTable),
		out:   make([]byte, 0, outDefault),
	}
	w.consume = w.field
	return w
}

func (w *window) field(name string, value []byte) {
	w.out = appendField(w.out, name, value)
	w.nfields++
}

// read appends the next frame of br to the window and decodes it in place
// into the next request slot; n is the frame body's length.
func (w *window) read(br *bufio.Reader) (n int, err error) {
	in, frame, err := appendFrame(br, w.in)
	if err != nil {
		return 0, err
	}
	w.in = in
	w.reqs = w.reqs[:len(w.reqs)+1]
	return len(frame), decodeRequest(frame, &w.reqs[len(w.reqs)-1], w.names)
}

// reset empties the window for the next one and bounds what it pins.
func (w *window) reset() {
	if cap(w.in) > retainFactor*inDefault {
		w.in = make([]byte, 0, inDefault)
		// Stale request slots still alias the dropped buffer.
		clear(w.reqs[:cap(w.reqs)])
	}
	if cap(w.out) > retainFactor*outDefault {
		w.out = make([]byte, 0, outDefault)
	}
	for i := range w.reqs {
		if cap(w.reqs[i].Fields) > retainFields {
			w.reqs[i].Fields = nil
		}
	}
	w.in, w.reqs, w.out = w.in[:0], w.reqs[:0], w.out[:0]
}

// batchKinds maps a grid-bound wire op onto its batch kind.
var batchKinds = [opMax]store.BatchOpKind{
	OpInsert:   store.BatchInsert,
	OpRead:     store.BatchRead,
	OpUpdate:   store.BatchUpdate,
	OpDelete:   store.BatchDelete,
	OpRMW:      store.BatchRMW,
	OpAddDelta: store.BatchAddDelta,
}

// apply executes one grid-bound request and appends its response frame.
func (w *window) apply(g *store.Grid, req *Request) {
	op := store.BatchOp{Kind: batchKinds[req.Op], Key: req.Key, Fields: req.Fields,
		Field: req.Field, Delta: req.Delta}
	start := len(w.out)
	if req.Op == OpRead {
		w.out = beginReadReply(w.out)
		w.nfields = 0
	}
	resp := Response{Op: req.Op, Status: StatusOK}
	switch err := g.Apply(&op, w.consume); {
	case err == nil:
		if req.Op == OpRead {
			w.out = endReadReply(w.out, start, w.nfields)
			return
		}
	case errors.Is(err, store.ErrNotFound):
		resp.Status = StatusNotFound
	default:
		resp.Status = StatusErr
		resp.Msg = err.Error()
	}
	// Anything a failed READ streamed before the error is dropped.
	w.out = AppendResponse(w.out[:start], &resp)
}

// handle runs one connection: read a pipeline window, execute it request
// by request, fence once, flush the responses in one write, repeat.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.stats.ConnsClosed.Inc()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
		<-s.sem
	}()

	maxBatch := s.cfg.MaxBatch
	br := bufio.NewReaderSize(conn, 64<<10)
	w := newWindow(maxBatch)

	for {
		// Block for the window's first frame, then extend the window with
		// whatever complete frames are already buffered — never waiting on
		// the network for a deeper batch.
		for len(w.reqs) < maxBatch {
			if len(w.reqs) > 0 && !BufferedFrame(br) {
				break
			}
			n, err := w.read(br)
			if err != nil {
				// A malformed frame drops the connection, unexecuted
				// requests of the window included: framing state past it
				// is unknowable. Anything else is the peer or a drain
				// ending the stream between windows (a buffered frame
				// cannot fail to read).
				switch {
				case errors.Is(err, ErrMalformed):
					s.stats.ConnErrors.Inc()
				case s.isDraining():
					s.stats.Drains.Inc()
				case !errors.Is(err, io.EOF):
					s.stats.ConnErrors.Inc()
				}
				return
			}
			s.stats.BytesIn.Add(uint64(headerLen + n))
		}

		s.stats.Batches.Inc()
		s.stats.Requests.Add(uint64(len(w.reqs)))
		s.stats.BatchSize.ObserveNs(uint64(len(w.reqs)))

		wrote := false
		for i := range w.reqs {
			req := &w.reqs[i]
			switch req.Op {
			case OpPing:
				w.out = AppendResponse(w.out, &Response{Op: OpPing})
			case OpStats:
				w.out = AppendResponse(w.out, &Response{Op: OpStats, Blob: s.cfg.StatsJSON()})
			default:
				wrote = wrote || req.Op != OpRead
				w.apply(s.cfg.Grid, req)
			}
		}
		if wrote && s.cfg.AwaitDurable != nil {
			// One durability wait for the whole window: every write above
			// is acknowledged below only once the epoch covering it
			// drained.
			s.cfg.AwaitDurable()
			s.stats.WriteFences.Inc()
		}

		if _, err := conn.Write(w.out); err != nil {
			s.stats.ConnErrors.Inc()
			return
		}
		s.stats.BytesOut.Add(uint64(len(w.out)))
		w.reset()

		if s.isDraining() {
			// Graceful drain: the in-flight window is answered, durable,
			// and flushed; now close.
			s.stats.Drains.Inc()
			return
		}
	}
}
