package harness

import "math"

// The load generators are owned by the benchmark: a refactor of
// internal/ycsb (or of math/rand) must not be able to change the op
// stream a seed produces, or two commits would be measured on different
// loads.

// RNG is splitmix64: one word of state, full 64-bit period, and no
// dependency on the standard library's generator.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; distinct seeds give unrelated streams.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed*0x9E3779B97F4A7C15 + 0x1234567} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform value in [0,n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Zipfian is the Gray et al. generator YCSB uses, over [0,n) with skew
// theta. Unscrambled ("hot") it favours low indices: item 0 is hottest.
type Zipfian struct {
	n                  int
	theta, alpha, eta  float64
	zetan, halfPowThet float64
	scramble           bool
}

// ZipfTheta is YCSB's default skew.
const ZipfTheta = 0.99

// NewZipfian builds the generator. With scramble the popularity ranks are
// spread over the key space by hashing (YCSB's scrambled zipfian), so hot
// keys do not share cache lines or map shards.
func NewZipfian(n int, theta float64, scramble bool) *Zipfian {
	z := &Zipfian{n: n, theta: theta, scramble: scramble}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.halfPowThet = zeta2
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// Next draws one index.
func (z *Zipfian) Next(r *RNG) int {
	u := r.Float64()
	uz := u * z.zetan
	var v int
	switch {
	case uz < 1:
		v = 0
	case uz < z.halfPowThet:
		v = 1
	default:
		v = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if v >= z.n {
			v = z.n - 1
		}
	}
	if z.scramble {
		return int(fnv64(uint64(v)) % uint64(z.n))
	}
	return v
}

func fnv64(v uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

// OpKind is one operation of the mix.
type OpKind uint8

// The operation kinds the workloads issue.
const (
	OpRead OpKind = iota
	OpUpdate
	OpAddDelta
)

// Op is one generated operation: what to do, to which record and field.
// Delta is set for OpAddDelta only.
type Op struct {
	Kind  OpKind
	Key   int
	Field int
	Delta int64
}

// OpStream turns a seed into the workload's operation sequence. A stream
// owns the keys {i*stride+lane}: with two connections each lane updates
// only its own keys, so every read has exactly one legal answer.
type OpStream struct {
	rng          *RNG
	zipf         *Zipfian
	readFrac     float64
	write        OpKind
	fields       int
	stride, lane int
}

// NewOpStream builds lane `lane` of `stride` over w's key space.
func NewOpStream(w *Workload, seed uint64, stride, lane int) *OpStream {
	return &OpStream{
		rng:      NewRNG(seed*1000003 + uint64(lane)),
		zipf:     NewZipfian(w.Records/stride, ZipfTheta, w.Scramble),
		readFrac: w.ReadFrac,
		write:    w.Write,
		fields:   w.Fields,
		stride:   stride,
		lane:     lane,
	}
}

// NextKey draws a record of this lane.
func (s *OpStream) NextKey() int { return s.zipf.Next(s.rng)*s.stride + s.lane }

// Next generates the next operation.
func (s *OpStream) Next(op *Op) {
	op.Key = s.NextKey()
	op.Delta = 0
	if s.rng.Float64() < s.readFrac {
		op.Kind = OpRead
		return
	}
	op.Kind = s.write
	op.Field = s.rng.Intn(s.fields)
	if s.write == OpAddDelta {
		op.Delta = int64(1 + s.rng.Intn(8))
	}
}
