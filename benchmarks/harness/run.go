package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Options selects one run.
type Options struct {
	Workload  *Workload
	Seed      uint64
	Seconds   float64 // length of the timed phase
	Trace     bool    // per-layer run instead of the end-to-end run
	Quick     bool    // smoke: a tenth of the dataset, one recovery, one set-up
	WorkDir   string  // pool links and scratch live under it
	ServerBin string  // gridserver binary (networked workloads)
	TraceDir  string  // where the span file goes
	Log       io.Writer
}

// Set-up (and, in the traced run, recovery) repeats inside one run so its
// metric is a median. Three of the 1–3 s kind are what the driver's time
// cap leaves room for; the 50–150 ms ones of net-counter repeat until a
// second is spent.
const (
	minRepeats   = 3
	maxRepeats   = 15
	repeatBudget = time.Second
)

// repeats is how often to repeat something whose first run took first.
func (r *run) repeats(first time.Duration) int {
	if r.Quick {
		return 1
	}
	n := int(repeatBudget / (first + 1))
	return max(minRepeats, min(n, maxRepeats))
}

// once is the repeat count of the end-to-end run's recovery: it is there
// to audit the crashed image, not to be timed.
func once(time.Duration) int { return 1 }

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Run executes one workload once and returns its verdict.
func Run(opt Options) (*Result, error) {
	if opt.Quick {
		opt.Workload = opt.Workload.Scaled(10)
	}
	dir, err := os.MkdirTemp(opt.WorkDir, opt.Workload.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opt.WorkDir = dir
	w := opt.Workload
	opt.logf("workload %s seed %d: backend %s commit %q, %d records x %d fields x %d B, %.0f%% reads",
		w.Name, opt.Seed, w.Backend, w.Commit, w.Records, w.Fields, w.FieldLen, 100*w.ReadFrac)
	opt.logf("NVMM model: %d ns per fence, 0 ns per pwb; timings at reference speed: in-memory replay = %.0f kops/s",
		FenceNs, w.RefKops)

	r := &run{Options: opt, w: w}
	var values map[string]float64
	defs := EndToEnd
	switch {
	case opt.Trace:
		defs = PerLayer
		values, err = r.traced()
	case w.Net:
		values, err = r.netEndToEnd()
	default:
		values, err = r.embeddedEndToEnd()
	}
	if err != nil {
		return nil, err
	}
	opt.logf("host speed over the run: median %.3f of reference speed (%d samples)", r.ref.MedianSpeed(), len(r.ref.speeds))
	for _, m := range r.fails.Msgs {
		opt.logf("FAILED: %s", m)
	}
	return &Result{Correct: r.fails.N == 0, Attempted: r.attempted, Failed: r.fails.N,
		Metrics: metricSet(defs, values)}, nil
}

// run carries one run's tallies.
type run struct {
	Options
	w         *Workload
	ref       *Reference
	attempted int
	fails     Failures
}

func (r *run) dur(frac float64) time.Duration {
	return time.Duration(r.Seconds * frac * float64(time.Second))
}

func (r *run) count(p *Phase, ops int) {
	r.attempted += ops
	r.fails.Merge(&p.Fails)
}

// ---- embedded ----

// embeddedPhase warms the stack with one untimed chunk, then times dur.
func (r *run) embeddedPhase(s *Stack, d *driver, dur time.Duration) (*Phase, error) {
	warm := runChunks(d, s, r.w.ChunkOps, 0, nil, nil, "") // dur 0: exactly one chunk
	r.count(warm, warm.Ops)
	before, err := s.Counters()
	if err != nil {
		return nil, err
	}
	p := runChunks(d, s, r.w.ChunkOps, dur, r.ref, nil, "")
	if p.After, err = s.Counters(); err != nil {
		return nil, err
	}
	p.Before = before
	r.count(p, p.Ops)
	return p, nil
}

// moreSetups repeats the set-up on scratch directories after the measured
// work, so setup_s is a median without the repeats' garbage sitting in
// the timed phase's memory. have holds the set-ups timed so far; about
// is what one takes.
func (r *run) moreSetups(have []float64, about time.Duration, once func(dir string) (time.Duration, error)) ([]float64, error) {
	for i := len(have); i < r.repeats(about); i++ {
		d, err := once(filepath.Join(r.WorkDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		have = append(have, d.Seconds())
	}
	return have, nil
}

func (r *run) embeddedSetupOnce(dir string) (time.Duration, error) {
	s, _, pd, d, err := setupEmbedded(r.w, dir, r.ref)
	if err != nil {
		return 0, err
	}
	s.Close()
	return d, pd.Remove()
}

func (r *run) embeddedEndToEnd() (map[string]float64, error) {
	// The harness process is the system under test here, so the
	// reference's copy of the dataset must not exist yet when the
	// system's memory is read: this first set-up goes untimed, memory is
	// sampled after a warm-up chunk, and only then is the reference
	// built. setup_s comes from the set-ups repeated after the phase.
	s, o, pd, setup, err := setupEmbedded(r.w, filepath.Join(r.WorkDir, "pool"), nil)
	if err != nil {
		return nil, err
	}
	defer pd.Remove()
	d := newDriver(r.w, o, r.Seed, nil)
	warm := runChunks(d, s, r.w.ChunkOps, 0, nil, nil, "") // dur 0: exactly one chunk
	r.count(warm, warm.Ops)
	rss := rssAnonMB(0)
	r.ref = NewReference(r.w, r.Seed)
	p, err := r.embeddedPhase(s, d, r.dur(1))
	if err != nil {
		return nil, err
	}
	p.RSSAnon = []float64{rss}
	// Crash: the stack is abandoned without Close, mid-life.
	img, err := pd.Capture()
	if err != nil {
		return nil, err
	}
	_, audited, err := recoverEmbedded(r.w, img, r.WorkDir, once, nil, o, &r.fails)
	if err != nil {
		return nil, err
	}
	r.attempted += audited
	setupTimes, err := r.moreSetups(nil, setup, r.embeddedSetupOnce)
	if err != nil {
		return nil, err
	}
	return r.endToEnd(p, float64(p.Ops), setupTimes), nil
}

// endToEnd reduces a timed phase to the ten end-to-end metrics. ops is
// the operation count the phase's counter deltas cover.
func (r *run) endToEnd(p *Phase, ops float64, setupTimes []float64) map[string]float64 {
	d := p.After.Sub(p.Before)
	v := map[string]float64{
		"throughput_kops": p.Kops(),
		"read_p50_us":     Median(p.ReadP50) / 1e3,
		"write_p50_us":    Median(p.WriteP50) / 1e3,
		"cpu_us_per_op":   Median(p.ChunkCPU),
		"pwb_per_op":      ratio(d["stack.nvm.pwbs"], ops),
		"pfence_per_op":   ratio(d["stack.nvm.pfences"]+d["stack.nvm.psyncs"], ops),
		"space_amp":       blocksInUse(p.After) * blockSize / float64(r.w.UserBytes()),
		"rss_anon_mb":     Median(p.RSSAnon),
		"setup_s":         Median(setupTimes),
	}
	r.logf("timed phase: %d ops in %.2fs over %d chunks; %d set-ups",
		p.Ops, p.Elapsed.Seconds(), len(p.ChunkOps), len(setupTimes))
	q1, q3 := Quartiles(p.ChunkOps)
	r.logf("chunk throughput at reference speed: quartiles %.1f / %.1f / %.1f kops/s (raw median %.1f, host speed %.3f)",
		q1, p.Kops(), q3, Median(p.RawKops), Median(p.Speed))
	for _, def := range EndToEnd {
		r.logf("  %-18s %12.4f %s", def.Name, v[def.Name], def.Unit)
	}
	return v
}

// blockSize is the heap's allocation unit (the Optane line, DESIGN.md).
const blockSize = 256

func blocksInUse(c Counters) float64 {
	return c["stack.heap.bump_high_water"] - c["stack.heap.free_list_depth"]
}

// ---- networked ----

// netPhase runs the 2 x 16 closed loop against srv: a second of warm-up,
// then dur measured between two Stats documents. The lanes are left
// running; the caller crashes the server under them and calls finish.
func (r *run) netPhase(srv *Server, o *Oracle, dur time.Duration, each func()) (*Phase, *wireRun, error) {
	wr, err := startWire(srv.Addr, r.w, o, r.Seed, Conns, Depth, nil, "")
	if err != nil {
		return nil, nil, err
	}
	warm := time.Second
	if r.Quick {
		warm /= 10
	}
	time.Sleep(warm)
	p := &Phase{}
	abort := func(err error) (*Phase, *wireRun, error) {
		wr.finish(p)
		return nil, nil, err
	}
	if p.Before, err = srv.Stats(); err != nil {
		return abort(err)
	}
	cpu0, err := procCPU(srv.Pid())
	if err != nil {
		return abort(err)
	}
	wr.measure(p, dur, srv.Pid(), r.ref, each)
	cpu1, err := procCPU(srv.Pid())
	if err != nil {
		return abort(err)
	}
	p.serverCPU = cpu1 - cpu0
	if p.After, err = srv.Stats(); err != nil {
		return abort(err)
	}
	return p, wr, nil
}

// crash SIGKILLs the server under the running lanes and collects them.
func (r *run) crash(srv *Server, wr *wireRun, p *Phase) {
	wr.ctl.killed.Store(true)
	srv.Kill()
	r.attempted += wr.finish(p)
	r.fails.Merge(&p.Fails)
}

func (r *run) serverSetupOnce(dir string) (time.Duration, error) {
	srv, _, pd, d, err := setupServer(r.ServerBin, r.w, dir, r.ref)
	if err != nil {
		return 0, err
	}
	srv.Kill()
	return d, pd.Remove()
}

// serverOps is the number of requests the server's counter deltas cover:
// its own request counter, less the Stats request that closed the window.
func serverOps(p *Phase) float64 {
	return p.After["server.requests"] - p.Before["server.requests"] - 1
}

func (r *run) netEndToEnd() (map[string]float64, error) {
	r.ref = NewReference(r.w, r.Seed)
	srv, o, pd, setup, err := setupServer(r.ServerBin, r.w, filepath.Join(r.WorkDir, "pool"), r.ref)
	if err != nil {
		return nil, err
	}
	defer pd.Remove()
	p, wr, err := r.netPhase(srv, o, r.dur(1), nil)
	if err != nil {
		srv.Kill()
		return nil, err
	}
	r.crash(srv, wr, p)
	img, err := pd.Capture()
	if err != nil {
		return nil, err
	}
	_, audited, err := recoverServer(r.ServerBin, r.w, img, r.WorkDir, once, nil, o, &r.fails)
	if err != nil {
		return nil, err
	}
	r.attempted += audited
	setupTimes, err := r.moreSetups([]float64{setup.Seconds()}, setup, r.serverSetupOnce)
	if err != nil {
		return nil, err
	}
	return r.endToEnd(p, serverOps(p), setupTimes), nil
}
