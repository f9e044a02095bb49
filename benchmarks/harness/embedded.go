package harness

import (
	"fmt"
	"math"
	"time"
)

// driver applies one lane's operations to a Target one at a time,
// checking every result against the oracle.
type driver struct {
	o      *Oracle
	stream *OpStream
	chk    Checker
	field  func(name string, value []byte) // chk.Field, bound once: no closure per read
	val    []byte
	fields [1]Field

	// await is set on an async stack, where a write is acknowledged by
	// the durability wait that follows it, not by its return: writes park
	// in pending until settle runs one wait for all of them, the way the
	// server pays one wait per pipeline window.
	await   func()
	pending []pendingWrite
}

type pendingWrite struct {
	op Op
	v  uint64
}

func newDriver(w *Workload, o *Oracle, seed uint64, await func()) *driver {
	d := &driver{o: o, stream: NewOpStream(w, seed, 1, 0), val: make([]byte, w.FieldLen), await: await}
	d.chk.o = o
	d.field = d.chk.Field
	return d
}

// do executes op and returns why it failed, if it did. A read must
// return, per field, a value between the last acknowledged and the last
// issued; on a synchronous stack the two are equal.
func (d *driver) do(t Target, op *Op) error {
	key := d.o.keys[op.Key]
	var v uint64
	switch op.Kind {
	case OpRead:
		d.chk.Begin(op.Key, d.o.Acked(op.Key), d.o.Issued(op.Key))
		if err := t.Read(key, d.field); err != nil {
			return fmt.Errorf("read %s: %w", key, err)
		}
		return d.chk.End()
	case OpUpdate:
		v = d.o.Issue(op, d.val)
		d.fields[0] = Field{Name: d.o.names[op.Field], Value: d.val}
		if err := t.Update(key, d.fields[:]); err != nil {
			return fmt.Errorf("update %s: %w", key, err)
		}
	case OpAddDelta:
		v = d.o.Issue(op, nil)
		if err := t.AddDelta(key, d.o.names[op.Field], op.Delta); err != nil {
			return fmt.Errorf("adddelta %s: %w", key, err)
		}
	}
	if d.await == nil {
		d.o.Ack(op, v)
	} else {
		d.pending = append(d.pending, pendingWrite{*op, v})
	}
	return nil
}

// settle acknowledges the parked writes after one durability wait. The
// caller runs it between operations, outside any timing.
func (d *driver) settle() {
	d.await()
	for i := range d.pending {
		d.o.Ack(&d.pending[i].op, d.pending[i].v)
	}
	d.pending = d.pending[:0]
}

// Phase is what one timed stretch of a workload measured. Timings are
// kept per chunk, each already scaled to reference speed by the host
// speed measured around that chunk (reference.go), and reduced by medians
// over chunks.
type Phase struct {
	Ops       int
	Elapsed   time.Duration
	ChunkOps  []float64 // kops/s per chunk, at reference speed
	RawKops   []float64 // kops/s per chunk, as the clock saw it
	Speed     []float64 // host speed around each chunk
	ReadP50   []float64 // ns at reference speed, per chunk (per chunk and connection on net-*); NaN: no read in the chunk
	WriteP50  []float64
	RSSAnon   []float64 // MB: the server's at every slice end; on emb-* the harness's, once, before the reference exists
	ChunkCPU  []float64 // us of system-under-test CPU per operation at reference speed, per chunk
	Read      Hist      // every sample of the phase, raw
	Write     Hist
	selfCPU   time.Duration // user+sys of the harness over the phase, when it is not the system under test
	serverCPU time.Duration // user+sys of the child server over the phase
	Before    Counters
	After     Counters
	Fails     Failures
}

// Kops is the phase's throughput: the median chunk, at reference speed.
func (p *Phase) Kops() float64 { return Median(p.ChunkOps) }

// chunkHists times one chunk's operations by kind.
type chunkHists struct{ read, write Hist }

// closeInto reduces the chunk to its median latencies, scaled by the
// host speed around the chunk, and empties it.
func (c *chunkHists) closeInto(p *Phase, speed float64) {
	p50 := func(h *Hist) float64 {
		if h.Count() == 0 {
			return math.NaN()
		}
		return h.Quantile(0.5) * speed
	}
	p.ReadP50 = append(p.ReadP50, p50(&c.read))
	p.WriteP50 = append(p.WriteP50, p50(&c.write))
	p.Read.Merge(&c.read)
	p.Write.Merge(&c.write)
	c.read.Reset()
	c.write.Reset()
}

// runChunks applies the driver's stream to t in chunks of chunkOps until
// dur has passed (at least one chunk), timing every operation, with a
// reference chunk between every two. With rec, one operation in
// spanEvery also becomes a span named after the rung.
func runChunks(d *driver, t Target, chunkOps int, dur time.Duration, ref *Reference, rec *SpanRecorder, rung string) *Phase {
	defer pinThread()()
	p := &Phase{}
	var ch chunkHists
	var op Op
	start := time.Now()
	before := ref.Speed()
	for {
		cs, ccpu := time.Now(), selfCPU()
		for i := 0; i < chunkOps; i++ {
			d.stream.Next(&op)
			t0 := time.Now()
			err := d.do(t, &op)
			lat := time.Since(t0)
			if op.Kind == OpRead {
				ch.read.Add(uint64(lat))
			} else {
				ch.write.Add(uint64(lat))
			}
			if err != nil {
				p.Fails.Add(err)
			}
			if rec != nil && (p.Ops+i)%spanEvery == 0 {
				rec.Add(rung, op.Kind, uint64(p.Ops+i), t0, lat)
			}
			if len(d.pending) >= Depth {
				d.settle()
			}
		}
		raw := float64(chunkOps) / time.Since(cs).Seconds() / 1e3
		cpu := float64((selfCPU() - ccpu).Microseconds()) / float64(chunkOps)
		after := ref.Speed()
		speed := (before + after) / 2
		before = after
		p.Ops += chunkOps
		p.RawKops = append(p.RawKops, raw)
		p.Speed = append(p.Speed, speed)
		p.ChunkOps = append(p.ChunkOps, raw/speed)
		p.ChunkCPU = append(p.ChunkCPU, cpu*speed)
		ch.closeInto(p, speed)
		if time.Since(start) >= dur {
			break
		}
	}
	p.Elapsed = time.Since(start)
	return p
}

// loadBatch is how many records are loaded between two host-speed
// samples of a set-up.
const loadBatch = 10_000

// loadStack inserts records lo..hi-1.
func loadStack(s *Stack, o *Oracle, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if err := s.Insert(o.keys[i], o.InitialFields(i)); err != nil {
			return fmt.Errorf("load %s: %w", o.keys[i], err)
		}
	}
	return nil
}

// setupEmbedded opens a fresh stack under dir and loads the dataset:
// what setup_s times, at reference speed.
func setupEmbedded(w *Workload, dir string, ref *Reference) (*Stack, *Oracle, *PoolDir, time.Duration, error) {
	var s *Stack
	var pd *PoolDir
	sw := ref.Stopwatch(1)
	err := sw.Step(func() (err error) {
		if pd, err = NewPoolDir(dir); err != nil {
			return err
		}
		if s, err = OpenStack(w, dir); err != nil {
			pd.Remove()
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	o := NewOracle(w)
	for lo := 0; lo < w.Records; lo += loadBatch {
		if err := sw.Step(func() error { return loadStack(s, o, lo, min(lo+loadBatch, w.Records)) }); err != nil {
			s.Close()
			pd.Remove()
			return nil, nil, nil, 0, err
		}
	}
	return s, o, pd, sw.Total(), nil
}

// auditStack reads every record of a recovered stack and checks it
// against the ack log: an acknowledged write that is gone, or a value no
// write produced, is a failed operation.
func auditStack(s Target, o *Oracle, fails *Failures) int {
	var chk Checker
	chk.o = o
	for k := range o.keys {
		chk.Begin(k, o.Acked(k), o.Issued(k))
		err := s.Read(o.keys[k], chk.Field)
		if err == nil {
			err = chk.End()
		}
		if err != nil {
			fails.Add(fmt.Errorf("audit after crash: %w", err))
		}
	}
	return len(o.keys)
}

// recoverySamples is how many reference chunks make up the host-speed
// sample on either side of a recovery, which is one uncuttable second.
const recoverySamples = 3

// Recovery is one restart on the crashed image.
type Recovery struct {
	ReadyMs  float64 // at reference speed
	Speed    float64 // host speed around it
	Counters Counters
}

// recoverEmbedded restores the crashed image and times the open until the
// grid can serve (at reference speed), as often as reps asks given the
// first one's time. The last recovered stack is audited.
func recoverEmbedded(w *Workload, img *Image, dir string, reps func(first time.Duration) int, ref *Reference, o *Oracle, fails *Failures) ([]Recovery, int, error) {
	var out []Recovery
	audited := 0
	for i, n := 0, 1; i < n; i++ {
		rdir := fmt.Sprintf("%s/recover-%d", dir, i)
		pd, err := img.Restore(rdir)
		if err != nil {
			return nil, 0, err
		}
		var s *Stack
		var got int
		sw := ref.Stopwatch(recoverySamples)
		err = sw.Step(func() (err error) {
			if s, err = OpenStack(w, rdir); err == nil {
				got = s.Count()
			}
			return err
		})
		if err != nil {
			pd.Remove()
			return nil, 0, fmt.Errorf("recover crashed image: %w", err)
		}
		if i == 0 {
			n = reps(sw.Total())
		}
		if got != w.Records {
			fails.Add(fmt.Errorf("recovered %d records, want %d", got, w.Records))
		}
		c, err := s.Counters()
		if err == nil && i == n-1 {
			audited = auditStack(s, o, fails)
		}
		s.Close()
		if rerr := pd.Remove(); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, 0, err
		}
		out = append(out, Recovery{ReadyMs: sw.Total().Seconds() * 1e3, Speed: sw.LastSpeed(), Counters: c})
	}
	return out, audited, nil
}
