package harness

import "time"

// Reference measures how fast the host is right now, so that timings can
// be reported at a fixed host speed.
//
// The build host's speed wanders by ±10–20 % over seconds to tens of
// seconds (other tenants, frequency), which no statistic over one run's
// chunks removes: ten runs of the same code spread by 10–23 % in raw
// throughput. An interleaved ALU loop or pointer chase does not track it
// either (spread 18 % -> 14–19 %): the workloads are far more sensitive to
// what the neighbours do to the memory system than such loops are. What
// does track it is the workload itself without the program: the same
// operation stream replayed against the dataset in plain Go memory
// (MemTarget), a chunk of it between every two chunks of the timed phase.
// Raw throughput over that replay's throughput repeats within 3 % where
// raw throughput repeats within 15–22 %.
//
// Speed returns the replay's throughput over the workload's RefKops, the
// replay's throughput on the build host when the benchmark was defined.
// Dividing a throughput by it (multiplying a time by it) gives the value
// "at reference speed": what the run would have measured on a host where
// the replay runs at exactly RefKops. RefKops anchors the unit and nothing
// else; the driver compares a change with its parent on one host.
type Reference struct {
	d       *driver
	t       *MemTarget
	nominal float64
	speeds  []float64
}

// refOps is the length of one reference chunk: about 30 ms.
const refOps = 25_000

// NewReference loads the replay's own copy of w's dataset.
func NewReference(w *Workload, seed uint64) *Reference {
	o := NewOracle(w)
	r := &Reference{d: newDriver(w, o, seed, nil), t: NewMemTarget(o), nominal: w.RefKops}
	r.Speed() // touch the dataset once before any sample counts
	r.speeds = r.speeds[:0]
	return r
}

// Speed runs one reference chunk and returns the host's speed relative to
// the reference speed. A nil Reference reports 1: timings stay raw.
func (r *Reference) Speed() float64 {
	if r == nil {
		return 1
	}
	defer pinThread()()
	var op Op
	start := time.Now()
	for i := 0; i < refOps; i++ {
		r.d.stream.Next(&op)
		_ = r.d.do(r.t, &op) // the in-memory dataset cannot fail an operation
	}
	s := float64(refOps) / time.Since(start).Seconds() / 1e3 / r.nominal
	r.speeds = append(r.speeds, s)
	return s
}

// Stopwatch adds up consecutive steps at reference speed: every step's
// duration is scaled by the mean of a host-speed sample taken before it
// and one taken after it. Long work is cut into steps (the load of a
// dataset, ten thousand records at a time) so the samples follow the
// host's speed as it wanders; work that cannot be cut (a recovery) is one
// step between wider samples.
type Stopwatch struct {
	ref    *Reference
	chunks int
	last   float64
	speed  float64
	total  time.Duration
}

// Stopwatch starts one; every speed sample is the mean of `chunks`
// reference chunks.
func (r *Reference) Stopwatch(chunks int) *Stopwatch {
	s := &Stopwatch{ref: r, chunks: chunks}
	s.last = s.sample()
	return s
}

func (s *Stopwatch) sample() float64 {
	sum := 0.0
	for i := 0; i < s.chunks; i++ {
		sum += s.ref.Speed()
	}
	return sum / float64(s.chunks)
}

// Step times fn as the next step.
func (s *Stopwatch) Step(fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	now := s.sample()
	s.speed = (s.last + now) / 2
	s.total += time.Duration(float64(d) * s.speed)
	s.last = now
	return err
}

// LastSpeed is the host speed the last step was scaled by.
func (s *Stopwatch) LastSpeed() float64 { return s.speed }

// Total is the sum of the steps so far, at reference speed.
func (s *Stopwatch) Total() time.Duration { return s.total }

// MedianSpeed is the median of every sample taken so far.
func (r *Reference) MedianSpeed() float64 {
	if r == nil || len(r.speeds) == 0 {
		return 1
	}
	return Median(r.speeds)
}
