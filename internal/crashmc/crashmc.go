// Package crashmc is a deterministic crash-consistency explorer ("model
// checker" in the bounded, systematic-testing sense of the term).
//
// The paper's correctness argument (§3.2, §4.1) is that failure-atomic
// blocks and single-pfence publication survive a power failure at *any*
// instant. crashmc makes that claim executable: it runs a workload once
// over a tracked nvm.Pool with a FaultPlane installed, counting every
// ordering point (each store, PWB-line, PFence and PSync), then replays
// the workload once per explored point k, "pulling the plug" immediately
// before the k-th primitive executes. Each crash yields a CrashState from
// which several adversarial images are minted — the strict image (only
// fenced data), the everything-persisted image, and seeded random
// line-subsets with sub-line tears — and every image is recovered through
// the standard core/heap/fa/pdt path, once with the serial §4.1.3 oracle
// and once with the parallel pipeline, then checked against the
// workload's application-level oracle: fsck clean, failure-atomic blocks
// all-or-nothing, no reachable half-initialized object, store records
// intact, and the recovered heap still writable.
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
	// observed, and a crash abandons it mid-flight via panic. It must be
	// deterministic: single-goroutine, no Go-map iteration, all
	// randomness from the run's seeded rng.
	Exec func(pool *nvm.Pool) error
	// Check recovers the crash image with the given recovery parallelism
	// (1 = the paper's serial procedure) and verifies the workload
	// invariants against the oracle. It is called many times per run and
	// must not mutate the oracle. It owns img and may write to it (e.g.
	// probe that the recovered heap accepts new operations).
	Check func(img *nvm.Pool, parallelism int) error

	// Audit, if set, runs after Check passes and verifies pre-replay
	// invariants over the raw crash image, e.g. fa.AuditCommittedSlots: a
	// live log slot with a zero entry count only arises when a commit
	// mark outran its stage-1 log persist, which is a protocol bug. It
	// holds on torn images too: a slot's mark and count are separate
	// aligned words, nothing ever clears a count under a live mark, and
	// retirement writes only the one-word watermark.
	Audit func(imgs []*nvm.Pool) error

	// Multi-pool forms, used when Workload.Pools > 1 (DESIGN.md §17):
	// the plug is pulled on the whole machine at once, so the fault
	// plane spans every pool, ordering points count globally, and a
	// crash yields one image per pool. Setup may still run concurrent
	// goroutines (it is unobserved); Exec must stay deterministic and
	// single-goroutine across all pools.
	SetupN func(pools []*nvm.Pool) error
	ExecN  func(pools []*nvm.Pool) error
	CheckN func(imgs []*nvm.Pool, parallelism int) error
}

func (r *Run) setup(pools []*nvm.Pool) error {
	if r.SetupN != nil {
		return r.SetupN(pools)
	}
	return r.Setup(pools[0])
}

func (r *Run) exec(pools []*nvm.Pool) error {
	if r.ExecN != nil {
		return r.ExecN(pools)
	}
	return r.Exec(pools[0])
}

func (r *Run) check(imgs []*nvm.Pool, parallelism int) error {
	if r.CheckN != nil {
		return r.CheckN(imgs, parallelism)
	}
	return r.Check(imgs[0], parallelism)
}

// Workload names a crash-exploration scenario.
type Workload struct {
	Name      string
	PoolBytes int // per pool
	// Pools is the NVMM pool count (0 or 1 = the classic single pool).
	Pools int
	// New builds a fresh Run; the seed drives the op mix and oracle.
	New func(seed int64) *Run
}

// crashSignal unwinds Exec when the plane fires.
type crashSignal struct{}

// plane is the FaultPlane that counts ordering points and pulls the plug
// at the trigger point. The crash state is captured at the panic site,
// before deferred cleanup (e.g. fa's abort-on-panic) can write to the
// pool; events observed after firing (from exactly that cleanup) are
// ignored.
type plane struct {
	pools   []*nvm.Pool
	trigger int // 1-based ordering point to crash at; 0 = count only
	count   int
	fired   bool
	states  []*nvm.CrashState // one per pool, captured together at the crash
}

func (pl *plane) capture() {
	pl.states = make([]*nvm.CrashState, len(pl.pools))
	for i, p := range pl.pools {
		pl.states[i] = p.CaptureCrashState()
	}
}

func (pl *plane) OrderingPoint(nvm.FaultEvent) {
	if pl.fired {
		return
	}
	pl.count++
	if pl.trigger != 0 && pl.count == pl.trigger {
		pl.fired = true
		pl.capture()
		panic(crashSignal{})
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
	// Par is the parallel recovery worker count checked against the
	// serial oracle (default 8).
	Par int
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
	Par      int             `json:"par"`              // recovery parallelism that failed (1 and/or Par)
	Subset   []nvm.CrashLine `json:"subset,omitempty"` // minimized failing line-subset
	// PoolSubsets replaces Subset for multi-pool workloads: the
	// minimized failing line-subset of every pool, in pool order.
	PoolSubsets [][]nvm.CrashLine `json:"pool_subsets,omitempty"`
	Err         string            `json:"err"`
	Diverged    bool              `json:"diverged,omitempty"` // serial and parallel disagreed
}

// Repro renders the one-command reproduction for this failure.
func (f *Failure) Repro() string {
	return fmt.Sprintf("go run ./cmd/crashmc -workload %s -seed %d -point %d -sample %d",
		f.Workload, f.Seed, f.Point, f.Sample)
}

func (f *Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAIL %s point=%d sample=%d seed=%d par=%d", f.Workload, f.Point, f.Sample, f.Seed, f.Par)
	if f.Diverged {
		b.WriteString(" [serial/parallel diverge]")
	}
	fmt.Fprintf(&b, ": %s\n", f.Err)
	renderSubset := func(label string, subset []nvm.CrashLine) {
		fmt.Fprintf(&b, "  minimized subset%s (%d lines):", label, len(subset))
		for _, cl := range subset {
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
	if len(f.Subset) > 0 {
		renderSubset("", f.Subset)
	}
	for p, sub := range f.PoolSubsets {
		if len(sub) > 0 {
			renderSubset(fmt.Sprintf(" pool %d", p), sub)
		}
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
	Images   int       `json:"images"`   // crash images checked (×2 recovery modes)
	Failures []Failure `json:"failures,omitempty"`
}

// runTo executes a fresh run of w, crashing at ordering point trigger
// (0 = run to completion). Returns the run (with its oracle advanced to
// the crash), the plane (count + captured state), and Exec's error when
// it completed without crashing.
func runTo(w *Workload, seed int64, trigger int) (*Run, *plane, error) {
	np := w.Pools
	if np < 1 {
		np = 1
	}
	pools := make([]*nvm.Pool, np)
	for i := range pools {
		pools[i] = nvm.New(w.PoolBytes, nvm.Options{Tracked: true})
	}
	run := w.New(seed)
	if err := run.setup(pools); err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", w.Name, err)
	}
	for _, p := range pools {
		p.PSync() // setup ends durable; exploration covers Exec only
	}
	pl := &plane{pools: pools, trigger: trigger}
	for _, p := range pools {
		p.SetFaultPlane(pl)
	}
	var execErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSignal); ok {
					return
				}
				panic(r)
			}
		}()
		execErr = run.exec(pools)
	}()
	for _, p := range pools {
		p.SetFaultPlane(nil)
	}
	if trigger == 0 || !pl.fired {
		if execErr != nil {
			return nil, nil, fmt.Errorf("%s exec: %w", w.Name, execErr)
		}
		// Completed: capture the end-of-run state so the caller can
		// explore the "crash after the last operation" point too.
		pl.capture()
	}
	return run, pl, nil
}

// safeCheck runs Check, converting panics into errors: recovery must
// tolerate any crash image, so a panic is itself an invariant violation.
func safeCheck(run *Run, imgs []*nvm.Pool, parallelism int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panicked: %v", r)
		}
	}()
	return run.check(imgs, parallelism)
}

func safeAudit(run *Run, imgs []*nvm.Pool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("audit panicked: %v", r)
		}
	}()
	return run.Audit(imgs)
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

// specFor rebuilds the crash-image spec for a sample index at a point,
// for one pool. Pool 0's draw matches the historical single-pool draw,
// so existing (point, sample, seed) repro triples stay valid.
func specFor(state *nvm.CrashState, seed int64, point, sample, pool int) []nvm.CrashLine {
	switch sample {
	case -1: // strict: durable image only
		return nil
	case -2: // all pending lines persist whole
		var spec []nvm.CrashLine
		for _, pl := range state.Pending() {
			spec = append(spec, nvm.CrashLine{Line: pl.Line, Source: nvm.CrashFromCurrent})
		}
		return spec
	default:
		rng := rand.New(rand.NewSource(subsetSeed(seed, point, sample) ^ int64(pool)*-0x61c8864680b583eb))
		return state.SampleSpec(rng, sample%2 == 1)
	}
}

// specsFor draws every pool's spec for one (point, sample).
func specsFor(states []*nvm.CrashState, seed int64, point, sample int) [][]nvm.CrashLine {
	specs := make([][]nvm.CrashLine, len(states))
	for i, st := range states {
		specs[i] = specFor(st, seed, point, sample, i)
	}
	return specs
}

// imagesFor mints one adversarial image per pool. Fresh images are built
// for every check — Check owns and may mutate them.
func imagesFor(states []*nvm.CrashState, specs [][]nvm.CrashLine) []*nvm.Pool {
	imgs := make([]*nvm.Pool, len(states))
	for i, st := range states {
		imgs[i] = st.Image(specs[i])
	}
	return imgs
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

// minimizeSpecs greedily drops spec entries — across every pool — while
// the failure persists, then tries to un-tear surviving entries, so
// reports implicate the fewest lines possible.
func minimizeSpecs(run *Run, states []*nvm.CrashState, specs [][]nvm.CrashLine, parallelism int) [][]nvm.CrashLine {
	fails := func(s [][]nvm.CrashLine) bool {
		return safeCheck(run, imagesFor(states, s), parallelism) != nil
	}
	cur := make([][]nvm.CrashLine, len(specs))
	for p := range specs {
		cur[p] = append([]nvm.CrashLine(nil), specs[p]...)
	}
	clone := func() [][]nvm.CrashLine {
		c := make([][]nvm.CrashLine, len(cur))
		for p := range cur {
			c[p] = append([]nvm.CrashLine(nil), cur[p]...)
		}
		return c
	}
	for changed := true; changed; {
		changed = false
		for p := range cur {
			for i := 0; i < len(cur[p]); i++ {
				cand := clone()
				cand[p] = append(append([]nvm.CrashLine(nil), cur[p][:i]...), cur[p][i+1:]...)
				if fails(cand) {
					cur = cand
					changed = true
					i--
				}
			}
		}
	}
	for p := range cur {
		for i := range cur[p] {
			if cur[p][i].Split != 0 {
				cand := clone()
				cand[p][i].Split = 0
				cand[p][i].Tail = false
				if fails(cand) {
					cur = cand
				}
			}
		}
	}
	return cur
}

// Explore runs the full exploration of one workload.
func Explore(w *Workload, opt Options) (*Report, error) {
	if opt.Par <= 0 {
		opt.Par = 8
	}
	if opt.MaxFailures == 0 {
		opt.MaxFailures = 3
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Workload: w.Name, Seed: opt.Seed}

	// Pass 1: count ordering points and sanity-check determinism — two
	// identical runs must issue identical ordering-point sequences, or
	// the (point, sample, seed) triples would not reproduce.
	run, pl, err := runTo(w, opt.Seed, 0)
	if err != nil {
		return nil, err
	}
	_, pl2, err := runTo(w, opt.Seed, 0)
	if err != nil {
		return nil, err
	}
	if pl.count != pl2.count {
		return nil, fmt.Errorf("%s: nondeterministic workload: %d vs %d ordering points", w.Name, pl.count, pl2.count)
	}
	rep.Points = pl.count
	logf("%s: %d ordering points", w.Name, rep.Points)

	// The completed run must also satisfy its own oracle in both crash
	// worlds (nothing pending lost, everything pending persisted).
	for _, sample := range []int{-1, -2} {
		imgs := imagesFor(pl.states, specsFor(pl.states, opt.Seed, rep.Points+1, sample))
		if err := safeCheck(run, imgs, 1); err != nil {
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

	for _, point := range points {
		var states []*nvm.CrashState
		crun := run
		if point > rep.Points {
			states = pl.states // end-of-run state from the count pass
		} else {
			r, cpl, err := runTo(w, opt.Seed, point)
			if err != nil {
				return nil, err
			}
			if !cpl.fired {
				return nil, fmt.Errorf("%s: replay finished before point %d (nondeterministic workload)", w.Name, point)
			}
			states = cpl.states
			crun = r
		}
		rep.Explored++
		for _, sample := range samples {
			specs := specsFor(states, opt.Seed, point, sample)
			rep.Images++
			serialErr := safeCheck(crun, imagesFor(states, specs), 1)
			parErr := safeCheck(crun, imagesFor(states, specs), opt.Par)
			var auditErr error
			if serialErr == nil && parErr == nil && crun.Audit != nil {
				auditErr = safeAudit(crun, imagesFor(states, specs))
			}
			if serialErr == nil && parErr == nil && auditErr == nil {
				continue
			}
			f := Failure{
				Workload: w.Name,
				Point:    point,
				Sample:   sample,
				Seed:     opt.Seed,
				Diverged: (serialErr == nil) != (parErr == nil),
			}
			switch {
			case serialErr != nil:
				f.Par, f.Err = 1, serialErr.Error()
			case parErr != nil:
				f.Par, f.Err = opt.Par, parErr.Error()
			default:
				f.Par, f.Err = 1, "audit: "+auditErr.Error()
			}
			if f.Diverged {
				f.Err = fmt.Sprintf("serial=%v parallel=%v", serialErr, parErr)
			}
			if auditErr == nil {
				// Audit failures skip minimization: the greedy predicate
				// replays Check only, which passes on these images.
				min := minimizeSpecs(crun, states, specs, f.Par)
				if len(min) == 1 {
					f.Subset = min[0]
				} else {
					f.PoolSubsets = min
				}
			}
			rep.Failures = append(rep.Failures, f)
			logf("%s", f.String())
			if opt.MaxFailures > 0 && len(rep.Failures) >= opt.MaxFailures {
				logf("%s: stopping after %d failures", w.Name, len(rep.Failures))
				return rep, nil
			}
		}
		if rep.Explored%50 == 0 {
			logf("%s: explored %d/%d points, %d images, %d failures",
				w.Name, rep.Explored, len(points), rep.Images, len(rep.Failures))
		}
	}
	return rep, nil
}
