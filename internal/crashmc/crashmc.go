// Package crashmc is a deterministic crash-consistency explorer ("model
// checker" in the bounded, systematic-testing sense of the term).
//
// The paper's correctness argument (§3.2, §4.1) is that failure-atomic
// blocks and single-pfence publication survive a power failure at *any*
// instant. crashmc makes that claim executable: it runs a workload once
// over a tracked nvm.Pool with a FaultPlane installed, counting every
// ordering point (each store, PWB-line, PFence and PSync), then runs it
// once more and, at each explored point k, "pulls the plug" immediately
// before the k-th primitive executes: it captures the pool's CrashState
// there, checks it, and lets the run go on. From each CrashState several
// adversarial images are minted — the strict image (only fenced data),
// the everything-persisted image, and seeded random line-subsets with
// sub-line tears — and every image is recovered once through the standard
// core/heap/fa/pdt path (the §4.1.3 procedure), then checked against the
// workload's application-level oracle: fsck clean,
// failure-atomic blocks all-or-nothing, no reachable half-initialized
// object, store records intact, and the recovered heap still writable.
//
// Everything is deterministic in (workload, seed): a failure is
// reproduced by its (point, sample, seed) triple alone, and a greedy
// minimizer shrinks the failing line-subset before reporting.
package crashmc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/nvm"
)

// Run is one instantiation of a workload: volatile closures sharing an
// application-level oracle that Exec maintains and Check consults.
type Run struct {
	// Setup formats the pool and creates the persistent structures,
	// ending durable (PSync). It runs unobserved: crash exploration
	// targets the steady-state mutations, not first-run formatting.
	Setup func(pool *nvm.Pool) error
	// Exec mutates the structures. Every ordering point it issues is
	// observed, and the explored ones are checked right there, in the
	// middle of Exec. It must be deterministic: single-goroutine, no
	// Go-map iteration, all randomness from the run's seeded rng.
	Exec func(pool *nvm.Pool) error
	// Check recovers the crash image and verifies the workload invariants
	// against the oracle. It is called many times per run, mostly from
	// inside Exec, and must not mutate the oracle or anything else Exec
	// reads (its rng included). It owns img and may write to it (e.g.
	// probe that the recovered heap accepts new operations).
	Check func(img *nvm.Pool) error
}

// Workload names a crash-exploration scenario.
type Workload struct {
	Name      string
	PoolBytes int
	// New builds a fresh Run; the seed drives the op mix and oracle.
	New func(seed int64) *Run
}

// plane is the FaultPlane of one run. It counts ordering points and, as
// the run reaches each point still in points, captures the crash state
// there and hands it to check with the run, whose oracle stands exactly
// where the plug would be pulled. The run then goes on: the state is an
// immutable copy, so the stores Exec issues after it never reach the
// images check mints, and check recovers those images on pools of their
// own. check returning false ends the checks; the run still finishes.
type plane struct {
	pool   *nvm.Pool
	run    *Run
	count  int
	points []int // points still to check, ascending
	check  func(run *Run, point int, state *nvm.CrashState) bool
}

func (pl *plane) OrderingPoint(nvm.FaultEvent) {
	pl.count++
	if len(pl.points) > 0 && pl.points[0] == pl.count {
		pl.points = pl.points[1:]
		if !pl.check(pl.run, pl.count, pl.pool.CaptureCrashState()) {
			pl.points = nil
		}
	}
}

// Options tunes an exploration.
type Options struct {
	// Points bounds how many crash points are explored; 0 explores all.
	// When bounded, points are stride-sampled with seeded jitter so the
	// whole run is covered.
	Points int
	// Samples is the number of random line-subset images per point, on
	// top of the two deterministic images (strict, all-pending). Odd
	// sample indices force sub-line tears on every retained line.
	Samples int
	// Seed drives the workload op mix and all subset sampling.
	Seed int64
	// Point, when >0, explores only that crash point — the repro path.
	Point int
	// Sample, when Point is set and Sample >= -2, checks only that
	// sample index (-1 strict, -2 all-pending).
	Sample int
	// MaxFailures stops the exploration early (default 3, <0 unlimited).
	MaxFailures int
	// Log, when set, receives progress lines.
	Log func(format string, a ...any)
}

// Failure is one reproducible invariant violation.
type Failure struct {
	Workload string          `json:"workload"`
	Point    int             `json:"point"`  // 1-based crash point; total+1 = after the last op
	Sample   int             `json:"sample"` // -1 strict, -2 all-pending, else subset index
	Seed     int64           `json:"seed"`
	Subset   []nvm.CrashLine `json:"subset,omitempty"` // minimized failing line-subset
	Err      string          `json:"err"`
}

// Repro renders the one-command reproduction for this failure.
func (f *Failure) Repro() string {
	return fmt.Sprintf("go run ./cmd/crashmc -workload %s -seed %d -point %d -sample %d",
		f.Workload, f.Seed, f.Point, f.Sample)
}

func (f *Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAIL %s point=%d sample=%d seed=%d: %s\n", f.Workload, f.Point, f.Sample, f.Seed, f.Err)
	if len(f.Subset) > 0 {
		fmt.Fprintf(&b, "  minimized subset (%d lines):", len(f.Subset))
		for _, cl := range f.Subset {
			src := "snapshot"
			if cl.Source == nvm.CrashFromCurrent {
				src = "current"
			}
			fmt.Fprintf(&b, " {line=%#x %s", cl.Line, src)
			if cl.Split != 0 {
				side := "head"
				if cl.Tail {
					side = "tail"
				}
				fmt.Fprintf(&b, " %s<%d>", side, cl.Split)
			}
			b.WriteString("}")
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  reproduce: %s", f.Repro())
	return b.String()
}

// Report summarizes one workload's exploration.
type Report struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Points   int       `json:"points"`   // total ordering points in the workload
	Explored int       `json:"explored"` // crash points actually explored
	Images   int       `json:"images"`   // crash images checked
	Failures []Failure `json:"failures,omitempty"`
}

// runWorkload executes one fresh run of w to completion under a plane
// that checks points as the run reaches them (none when points is
// empty). It returns the plane, which holds the run and its count, and
// the state captured after the last operation.
func runWorkload(w *Workload, seed int64, points []int, check func(*Run, int, *nvm.CrashState) bool) (*plane, *nvm.CrashState, error) {
	pool := nvm.New(w.PoolBytes, nvm.Options{Tracked: true})
	run := w.New(seed)
	if err := run.Setup(pool); err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", w.Name, err)
	}
	pool.PSync() // setup ends durable; exploration covers Exec only
	pl := &plane{pool: pool, run: run, points: points, check: check}
	pool.SetFaultPlane(pl)
	err := run.Exec(pool)
	pool.SetFaultPlane(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s exec: %w", w.Name, err)
	}
	return pl, pool.CaptureCrashState(), nil
}

// safeCheck runs Check, converting panics into errors: recovery must
// tolerate any crash image, so a panic is itself an invariant violation.
func safeCheck(run *Run, img *nvm.Pool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panicked: %v", r)
		}
	}()
	return run.Check(img)
}

// subsetSeed mixes (seed, point, sample) into the rng seed for one
// subset draw (splitmix64 finalizer), so any sampled image is
// reconstructible from its triple.
func subsetSeed(seed int64, point, sample int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(point)<<20 + uint64(sample) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// specFor rebuilds the crash-image spec for a sample index at a point:
// -1 is the strict image, -2 the all-pending one, and a subset index draws
// a random (even) or torn (odd) spec from its own seeded rng.
func specFor(state *nvm.CrashState, seed int64, point, sample int) []nvm.CrashLine {
	policy := nvm.CrashRandom
	switch {
	case sample == -1:
		policy = nvm.CrashStrict
	case sample == -2:
		policy = nvm.CrashAll
	case sample%2 == 1:
		policy = nvm.CrashTorn
	}
	return state.Spec(policy, rand.New(rand.NewSource(subsetSeed(seed, point, sample))))
}

// pickPoints selects which crash points to explore: all of them when the
// budget allows, otherwise a seeded jittered stride over [1, total] so
// every region of the run stays covered and the choice is reproducible.
func pickPoints(total, budget int, seed int64) []int {
	if budget <= 0 || budget >= total {
		pts := make([]int, total)
		for i := range pts {
			pts[i] = i + 1
		}
		return pts
	}
	rng := rand.New(rand.NewSource(subsetSeed(seed, 0, -3)))
	stride := float64(total) / float64(budget)
	pts := make([]int, 0, budget)
	seen := make(map[int]bool, budget)
	for i := 0; i < budget; i++ {
		lo := int(float64(i) * stride)
		hi := int(float64(i+1) * stride)
		if hi <= lo {
			hi = lo + 1
		}
		p := 1 + lo + rng.Intn(hi-lo)
		if p > total {
			p = total
		}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	sort.Ints(pts)
	return pts
}

// minimizeSpec greedily drops spec entries while the failure persists,
// then tries to un-tear surviving entries, so reports implicate the
// fewest lines possible. Check owns the image it is handed, so every
// attempt mints a fresh one.
func minimizeSpec(run *Run, state *nvm.CrashState, spec []nvm.CrashLine) []nvm.CrashLine {
	fails := func(s []nvm.CrashLine) bool {
		return safeCheck(run, state.Image(s)) != nil
	}
	cur := append([]nvm.CrashLine(nil), spec...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]nvm.CrashLine(nil), cur[:i]...), cur[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	for i := range cur {
		if cur[i].Split != 0 {
			cand := append([]nvm.CrashLine(nil), cur...)
			cand[i].Split = 0
			cand[i].Tail = false
			if fails(cand) {
				cur = cand
			}
		}
	}
	return cur
}

// Explore runs the full exploration of one workload in two runs. The
// count pass counts the ordering points, from which the points to explore
// are picked, and holds the completed run to its own oracle. The check
// pass checks every picked point as it reaches it and the point after
// the last operation once it ends; it must issue as many ordering points
// as the count pass, or the (point, sample, seed) triples would not
// reproduce.
func Explore(w *Workload, opt Options) (*Report, error) {
	if opt.MaxFailures == 0 {
		opt.MaxFailures = 3
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Workload: w.Name, Seed: opt.Seed}

	pl, end, err := runWorkload(w, opt.Seed, nil, nil)
	if err != nil {
		return nil, err
	}
	rep.Points = pl.count
	logf("%s: %d ordering points", w.Name, rep.Points)

	// The completed run must also satisfy its own oracle in both crash
	// worlds (nothing pending lost, everything pending persisted).
	for _, sample := range []int{-1, -2} {
		img := end.Image(specFor(end, opt.Seed, rep.Points+1, sample))
		if err := safeCheck(pl.run, img); err != nil {
			return nil, fmt.Errorf("%s: completed run fails its own oracle (sample %d): %w", w.Name, sample, err)
		}
	}

	points := pickPoints(rep.Points, opt.Points, opt.Seed)
	// The "crash after the last operation" point rides along for free.
	points = append(points, rep.Points+1)
	if opt.Point > 0 {
		points = []int{opt.Point}
	}

	samples := []int{-1, -2}
	for s := 0; s < opt.Samples; s++ {
		samples = append(samples, s)
	}
	if opt.Point > 0 && opt.Sample >= -2 {
		samples = []int{opt.Sample}
	}

	// check checks every sample image of one point and reports whether
	// the exploration goes on. Each image is minted over the last one,
	// which its Check is done with.
	var img *nvm.Pool
	check := func(run *Run, point int, state *nvm.CrashState) bool {
		rep.Explored++
		for _, sample := range samples {
			spec := specFor(state, opt.Seed, point, sample)
			rep.Images++
			img = state.ImageOver(img, spec)
			err := safeCheck(run, img)
			if err == nil {
				continue
			}
			f := Failure{
				Workload: w.Name,
				Point:    point,
				Sample:   sample,
				Seed:     opt.Seed,
				Err:      err.Error(),
				Subset:   minimizeSpec(run, state, spec),
			}
			rep.Failures = append(rep.Failures, f)
			logf("%s", f.String())
			if opt.MaxFailures > 0 && len(rep.Failures) >= opt.MaxFailures {
				logf("%s: stopping after %d failures", w.Name, len(rep.Failures))
				return false
			}
		}
		if rep.Explored%50 == 0 {
			logf("%s: explored %d/%d points, %d images, %d failures",
				w.Name, rep.Explored, len(points), rep.Images, len(rep.Failures))
		}
		return true
	}
	pl, end, err = runWorkload(w, opt.Seed, points, check)
	if err != nil {
		return nil, err
	}
	if pl.count != rep.Points {
		return nil, fmt.Errorf("%s: nondeterministic workload: %d vs %d ordering points", w.Name, rep.Points, pl.count)
	}
	for _, point := range pl.points {
		if point != rep.Points+1 {
			return nil, fmt.Errorf("%s: point %d is past the run's %d ordering points", w.Name, point, rep.Points)
		}
		check(pl.run, point, end)
	}
	return rep, nil
}
