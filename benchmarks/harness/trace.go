package harness

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// The traced run produces the per-layer metrics from outside the program:
//
//   - counters come from an untraced timed phase of the workload itself
//     (half the run), exactly as the end-to-end run takes them;
//   - a depth ladder replays the same operation stream against each depth
//     of the stack, bare backend -> grid -> ApplyBatch windows with the
//     durability wait -> in-process wire server -> child gridserver; a
//     rung's mean minus the mean of the rung below is that layer's self
//     time per operation;
//   - unit-cost probes time the public calls of the layers below the
//     backend (stack.go); probe cost x counters is a layer's busy time;
//   - one operation in 64 of every rung is kept as a span and written to
//     trace-<workload>.json when the run ends.
//
// Nothing here feeds an end-to-end metric.

// Rung is one depth of the ladder.
type Rung struct {
	MeanNs  float64 // per operation, all kinds
	ReadNs  float64
	WriteNs float64
	Kops    float64
}

// Ladder names, innermost first; a span's parent is the next one out.
const (
	rungBackend = "store.backend"
	rungGrid    = "store.grid"
	rungBatch   = "store.apply_batch"
	rungWire    = "wire.in_process"
	rungChild   = "wire.child_server"
)

var ladder = []string{rungBackend, rungGrid, rungBatch, rungWire, rungChild}

// rungOf reduces a rung's phase to means, scaled to reference speed by
// the median host speed over the phase.
func rungOf(p *Phase) Rung {
	n := float64(p.Read.Count() + p.Write.Count())
	speed := Median(p.Speed)
	return Rung{Kops: p.Kops(), ReadNs: p.Read.Mean() * speed, WriteNs: p.Write.Mean() * speed,
		MeanNs: speed * ratio(p.Read.Mean()*float64(p.Read.Count())+p.Write.Mean()*float64(p.Write.Count()), n)}
}

// directRung replays the stream against t one call at a time.
func (r *run) directRung(name string, s *Stack, t Target, o *Oracle, rec *SpanRecorder) Rung {
	var await func()
	if s.async {
		await = s.AwaitDurable
	}
	d := newDriver(r.w, o, r.Seed, await)
	chunk := max(r.w.ChunkOps/4, 1000)
	p := runChunks(d, t, chunk, r.dur(1.0/16), r.ref, rec, name)
	if len(d.pending) > 0 {
		d.settle()
	}
	r.count(p, p.Ops)
	return rungOf(p)
}

// batchRung replays the stream through Grid.ApplyBatch in Depth-wide
// windows, each followed by the durability wait the server pays per
// window. It returns the rung and the mean wait per window in us.
func (r *run) batchRung(s *Stack, o *Oracle, rec *SpanRecorder) (Rung, float64) {
	wd := newWindowDriver(r.w, o, r.Seed, 1, 0, Depth)
	ops := make([]BatchOp, Depth)
	res := make([]BatchResult, Depth)
	var apply, await time.Duration
	windows, done := 0, 0
	var fails Failures
	before := r.ref.Speed()
	for start := time.Now(); time.Since(start) < r.dur(1.0/16); windows++ {
		wd.fill()
		for i := range wd.ops {
			op := &wd.ops[i]
			ops[i] = BatchOp{Key: o.keys[op.Key]}
			switch op.Kind {
			case OpRead:
				ops[i].Kind = BatchRead
			case OpUpdate:
				ops[i].Kind = BatchUpdate
				wd.fbuf[i][0] = Field{Name: o.names[op.Field], Value: wd.vals[i]}
				ops[i].Fields = wd.fbuf[i][:]
			case OpAddDelta:
				ops[i].Kind, ops[i].Field, ops[i].Delta = BatchAddDelta, o.names[op.Field], op.Delta
			}
		}
		t0 := time.Now()
		s.ApplyBatch(ops, res)
		t1 := time.Now()
		s.AwaitDurable()
		t2 := time.Now()
		for i := range wd.ops {
			err := res[i].Err
			if err == nil {
				err = wd.settle(i, res[i].Fields)
			}
			if err != nil {
				fails.Add(fmt.Errorf("apply_batch: %w", err))
			}
		}
		// The rungs below verify a read inside the call, in its callback;
		// to compare, this one counts the verification of the window too.
		t3 := time.Now()
		apply += t1.Sub(t0) + t3.Sub(t2)
		await += t2.Sub(t1)
		for i := range wd.ops {
			if done%spanEvery == 0 {
				rec.Add(rungBatch, wd.ops[i].Kind, uint64(done), t0, t3.Sub(t0))
			}
			done++
		}
	}
	r.attempted += done
	r.fails.Merge(&fails)
	speed := (before + r.ref.Speed()) / 2
	total := float64((apply + await).Nanoseconds()) * speed
	return Rung{MeanNs: ratio(total, float64(done))},
		ratio(float64(await.Microseconds())*speed, float64(windows))
}

// wireRung replays the stream over one connection with a Depth-wide
// window: the unloaded pipeline. A window's round trip over Depth is the
// per-operation time.
func (r *run) wireRung(name, addr string, o *Oracle, rec *SpanRecorder) (Rung, error) {
	p, window, err := wirePhase(addr, r.w, o, r.Seed, 1, Depth, r.dur(1.0/16), r.ref, rec, name)
	if err != nil {
		return Rung{}, err
	}
	r.count(p, p.Ops)
	rg := rungOf(p)
	rg.MeanNs = window * Median(p.Speed) / Depth
	return rg, nil
}

// probes runs the unit-cost probes into v.
func (r *run) probes(v map[string]float64) error {
	n := 200_000
	if r.Quick {
		n = 20_000
	}
	// Each probe's costs are scaled by the host speed around the probe.
	probe := func(run func() error, names ...string) error {
		before := r.ref.Speed()
		if err := run(); err != nil {
			return err
		}
		speed := (before + r.ref.Speed()) / 2
		for _, name := range names {
			v[name] *= speed
		}
		return nil
	}
	var err error
	if err := probe(func() error { v["nvm.fence_ns"], v["nvm.pwb_ns"], err = ProbeNVM(n); return err },
		"nvm.fence_ns", "nvm.pwb_ns"); err != nil {
		return err
	}
	if err := probe(func() error { v["heap.alloc_free_ns"], err = ProbeHeap(n); return err },
		"heap.alloc_free_ns"); err != nil {
		return err
	}
	if err := probe(func() error { v["fa.commit_ns"], err = ProbeCommit("", n/2, r.w.FieldLen); return err },
		"fa.commit_ns"); err != nil {
		return err
	}
	if err := probe(func() error { v["fa.commit_async_ns"], err = ProbeCommit("async", n/2, r.w.FieldLen); return err },
		"fa.commit_async_ns"); err != nil {
		return err
	}
	return probe(func() error {
		v["pdt.map_get_ns"], v["pdt.map_put_ns"], err = ProbeMap(n, probeShape.Records, r.w.FieldLen)
		return err
	}, "pdt.map_get_ns", "pdt.map_put_ns")
}

// layerCounters derives the counter metrics from the untraced phase:
// ops operations of which writes were writes.
func (r *run) layerCounters(v map[string]float64, p *Phase, ops, writes float64) {
	d := p.After.Sub(p.Before)
	fences := d["stack.nvm.pfences"] + d["stack.nvm.psyncs"]
	v["nvm.stores_per_op"] = ratio(d["stack.nvm.stores"], ops)
	v["nvm.pwb_per_write"] = ratio(d["stack.nvm.pwbs"], writes)
	v["nvm.pfence_per_write"] = ratio(fences, writes)
	opNs := 1e6 / p.Kops()
	v["nvm.model_share"] = ratio(v["nvm.fence_ns"]*fences+v["nvm.pwb_ns"]*d["stack.nvm.pwbs"], ops) / opNs

	blocks := d["stack.heap.bump_allocs"] + d["stack.heap.reuse_allocs"] + d["stack.heap.transient_reuse"]
	v["heap.allocs_per_op"] = ratio(d["stack.heap.obj_allocs"]+d["stack.heap.small_allocs"], ops)
	v["heap.frees_per_op"] = ratio(d["stack.heap.obj_frees"]+d["stack.heap.small_frees"], ops)
	v["heap.transient_reuse_ratio"] = ratio(d["stack.heap.transient_reuse"], blocks)
	v["heap.blocks_in_use"] = blocksInUse(p.After)
	v["heap.free_list_depth"] = p.After["stack.heap.free_list_depth"]

	commits := d["stack.fa.committed"]
	v["fa.commits_per_op"] = ratio(commits, ops)
	v["fa.log_entries_per_commit"] = ratio(d["stack.fa.log_entries"], commits)
	v["fa.flushed_lines_per_commit"] = ratio(d["stack.fa.flushed_lines"], commits)
	v["fa.lines_saved_per_commit"] = ratio(d["stack.fa.coalesced_lines_saved"], commits)
	v["fa.tx_slot_reuse_ratio"] = ratio(d["stack.fa.tx_slot_reuse"], d["stack.fa.begun"])
	v["fa.epoch_txs_per_epoch"] = ratio(d["stack.fa.group_epoch_txs"], d["stack.fa.group_epochs"])
	v["fa.delta_fold_ratio"] = ratio(d["stack.fa.delta_ops"], d["stack.fa.delta_entries"])
	v["fa.delta_flushes_saved_per_op"] = ratio(d["stack.fa.delta_flushes_saved"], ops)

	reads := ops - writes
	v["pdt.mirror_lock_waits_per_op"] = ratio(d["stack.grid.mirror_shard_lock_waits"], ops)
	v["store.zero_copy_hit_ratio"] = ratio(d["stack.grid.zero_copy_hits"], reads)
	v["store.seqlock_retries_per_read"] = ratio(d["stack.grid.seqlock_retries"], reads)
	v["store.read_p99_us"] = p.Read.Quantile(0.99) * Median(p.Speed) / 1e3
	v["store.write_p99_us"] = p.Write.Quantile(0.99) * Median(p.Speed) / 1e3
}

// recoveryMetrics reduces the restarts' phase timings to medians.
func recoveryMetrics(v map[string]float64, recs []Recovery) {
	med := func(key string) float64 {
		var xs []float64
		for _, rec := range recs {
			x := rec.Counters["recovery.0."+key]
			if strings.HasSuffix(key, "_ns") {
				x *= rec.Speed // the program's own phase timers, scaled like every timing
			}
			xs = append(xs, x)
		}
		return Median(xs)
	}
	var ready []float64
	for _, rec := range recs {
		ready = append(ready, rec.ReadyMs)
	}
	v["core.recover_ready_ms"] = Median(ready)
	for _, phase := range []string{"replay", "mark", "sweep", "rebuild"} {
		v["core.recover_"+phase+"_ms"] = med(phase+"_ns") / 1e6
	}
	v["core.recover_live_objects"] = med("live_objects")
	v["core.recover_swept_blocks"] = med("swept_blocks")
	v["core.recover_replayed_tx"] = med("replayed_tx")
}

// storeRungs records the in-process rungs' metrics and returns the
// waterfall rows they give, innermost first.
func storeRungs(v map[string]float64, backend, grid, batch Rung) []row {
	v["store.backend_read_ns"], v["store.backend_update_ns"] = backend.ReadNs, backend.WriteNs
	v["store.grid_read_ns"], v["store.grid_update_ns"] = grid.ReadNs, grid.WriteNs
	v["store.grid_self_ns"] = grid.MeanNs - backend.MeanNs
	v["store.apply_batch_ns_per_op"] = batch.MeanNs
	return []row{
		{"backend and below (" + rungBackend + ")", backend.MeanNs},
		{"grid self (" + rungGrid + " - backend)", grid.MeanNs - backend.MeanNs},
	}
}

// row is one line of the per-layer waterfall, in ns per operation.
type row struct {
	name string
	ns   float64
}

// waterfall prints the rows, their sum against the measured mean, and
// returns the coverage sum / mean.
func (r *run) waterfall(rows []row, measuredNs, kops float64, v map[string]float64) float64 {
	r.logf("per-layer waterfall (ns per operation):")
	sum := 0.0
	for _, rw := range rows {
		r.logf("  %-52s %10.0f", rw.name, rw.ns)
		sum += rw.ns
	}
	r.logf("  %-52s %10.0f", "sum", sum)
	r.logf("  %-52s %10.0f", "measured mean", measuredNs)
	nvm := ratio(v["nvm.model_share"]*1e6, kops)
	heap := v["heap.alloc_free_ns"] * v["heap.allocs_per_op"]
	r.logf("  of the backend row, by probe x counters: nvm model %.0f, heap alloc+free %.0f, fa commit %.0f",
		nvm, heap, v["fa.commit_ns"]*v["fa.commits_per_op"])
	return ratio(sum, measuredNs)
}

func (r *run) finishTrace(v map[string]float64, rec *SpanRecorder) error {
	path := filepath.Join(r.TraceDir, "trace-"+r.w.Name+".json")
	if err := rec.WriteFile(path); err != nil {
		return err
	}
	r.logf("%d spans written to %s", rec.Len(), path)
	r.logf("per-layer metrics:")
	for _, def := range PerLayer {
		r.logf("  %-34s %14.4f %s", def.Name, v[def.Name], def.Unit)
	}
	return nil
}

func (r *run) traced() (map[string]float64, error) {
	r.ref = NewReference(r.w, r.Seed)
	v := map[string]float64{}
	if err := r.probes(v); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rec := NewSpanRecorder(ladder)
	var err error
	if r.w.Net {
		err = r.tracedNet(v, rec)
	} else {
		err = r.tracedEmbedded(v, rec)
	}
	if err != nil {
		return nil, err
	}
	return v, r.finishTrace(v, rec)
}

// inProcessRungs runs rungs 1-3 on s and returns them.
func (r *run) inProcessRungs(v map[string]float64, s *Stack, o *Oracle, rec *SpanRecorder) (backend, grid, batch Rung) {
	backend = r.directRung(rungBackend, s, s.Backend(), o, rec)
	grid = r.directRung(rungGrid, s, s, o, rec)
	batch, v["fa.await_durable_us_per_window"] = r.batchRung(s, o, rec)
	return
}

func (r *run) tracedEmbedded(v map[string]float64, rec *SpanRecorder) error {
	s, o, pd, _, err := setupEmbedded(r.w, filepath.Join(r.WorkDir, "pool"), r.ref)
	if err != nil {
		return err
	}
	defer pd.Remove()
	p, err := r.embeddedPhase(s, newDriver(r.w, o, r.Seed, nil), r.dur(0.5))
	if err != nil {
		return err
	}
	r.layerCounters(v, p, float64(p.Ops), float64(p.Write.Count()))

	backend, grid, batch := r.inProcessRungs(v, s, o, rec)
	rows := storeRungs(v, backend, grid, batch)

	// What the harness itself costs: the same stream against the dataset
	// in Go memory. Its wall time per operation less the time inside the
	// calls is generation, value encoding and timing; the time inside
	// the calls is the verification of what a read returns, which on the
	// real rungs is part of the call too.
	mo := NewOracle(r.w)
	mp := runChunks(newDriver(r.w, mo, r.Seed, nil), NewMemTarget(mo), max(r.w.ChunkOps/4, 1000), r.dur(1.0/32), r.ref, nil, "")
	r.count(mp, mp.Ops)
	inCalls := rungOf(mp).MeanNs
	gen := 1e6/mp.Kops() - inCalls
	rows = append(rows, row{"harness: generate, encode, time (in-memory replay)", gen})

	// The grid rung is the workload's own configuration with spans on.
	v["obs.trace_overhead_frac"] = 1 - grid.Kops/p.Kops()
	v["trace.coverage"] = r.waterfall(rows, 1e6/p.Kops(), p.Kops(), v)
	r.logf("  (verification inside the calls: %.0f ns per operation; apply_batch rung: %.0f)", inCalls, batch.MeanNs)

	img, err := pd.Capture()
	if err != nil {
		return err
	}
	recs, audited, err := recoverEmbedded(r.w, img, r.WorkDir, r.repeats, r.ref, o, &r.fails)
	if err != nil {
		return err
	}
	r.attempted += audited
	recoveryMetrics(v, recs)
	return nil
}

func (r *run) tracedNet(v map[string]float64, rec *SpanRecorder) error {
	srv, o, pd, _, err := setupServer(r.ServerBin, r.w, filepath.Join(r.WorkDir, "pool"), r.ref)
	if err != nil {
		return err
	}
	defer pd.Remove()
	defer srv.Kill()

	// Untraced phase, with the watermark lag sampled at every slice.
	var lag []float64
	polls := 0
	p, wr, err := r.netPhase(srv, o, r.dur(0.5), func() {
		if c, err := srv.Stats(); err == nil {
			lag = append(lag, c["stack.fa.watermark_lag"])
		}
		polls++
	})
	if err != nil {
		return err
	}
	loadedWindow := wr.windowMean() * Median(p.Speed)
	r.attempted += wr.finish(p)
	r.fails.Merge(&p.Fails)
	ops := serverOps(p) - float64(polls)
	seen := float64(p.Read.Count() + p.Write.Count())
	r.layerCounters(v, p, ops, ops*ratio(float64(p.Write.Count()), seen))
	v["fa.watermark_lag_p50"] = Median(lag)
	d := p.After.Sub(p.Before)
	v["wire.batch_size_mean"] = ratio(d["server.requests"], d["server.batches"])
	v["wire.write_fences_per_batch"] = ratio(d["server.write_fences"], d["server.batches"])
	v["wire.bytes_in_per_op"] = ratio(d["server.bytes_in"], ops)
	v["wire.bytes_out_per_op"] = ratio(d["server.bytes_out"], ops)
	var all Hist
	all.Merge(&p.Read)
	all.Merge(&p.Write)
	v["wire.rtt_p99_us"] = all.Quantile(0.99) * Median(p.Speed) / 1e3
	v["wire.client_cpu_us_per_op"] = ratio(float64(p.selfCPU.Microseconds()), ops)
	v["wire.server_cpu_share"] = ratio(p.serverCPU.Seconds(), p.serverCPU.Seconds()+p.selfCPU.Seconds())

	// The same 2 x 16 loop with spans on: the tracing overhead.
	tp, _, err := wirePhase(srv.Addr, r.w, o, r.Seed, Conns, Depth, r.dur(1.0/8), r.ref, rec, rungChild)
	if err != nil {
		return err
	}
	r.count(tp, tp.Ops)
	v["obs.trace_overhead_frac"] = 1 - tp.Kops()/p.Kops()

	child, err := r.wireRung(rungChild, srv.Addr, o, rec)
	if err != nil {
		return err
	}
	// Depth 1 on one connection: the unloaded request latency that
	// batching across connections could trade away.
	pp, _, err := wirePhase(srv.Addr, r.w, o, r.Seed, 1, 1, r.dur(1.0/16), r.ref, nil, "")
	if err != nil {
		return err
	}
	r.count(pp, pp.Ops)
	v["wire.pingpong_read_p50_us"] = Median(pp.ReadP50) / 1e3
	v["wire.pingpong_write_p50_us"] = Median(pp.WriteP50) / 1e3
	const pings = 2000
	before := r.ref.Speed()
	start := time.Now()
	for i := 0; i < pings; i++ {
		if err := srv.ctl.Ping(); err != nil {
			return err
		}
	}
	v["wire.ping_rtt_us"] = float64(time.Since(start).Microseconds()) / pings * (before + r.ref.Speed()) / 2

	// Crash under load, then the restarts.
	wr, err = startWire(srv.Addr, r.w, o, r.Seed, Conns, Depth, nil, "")
	if err != nil {
		return err
	}
	time.Sleep(100 * time.Millisecond)
	var cp Phase
	r.crash(srv, wr, &cp)
	img, err := pd.Capture()
	if err != nil {
		return err
	}
	recs, audited, err := recoverServer(r.ServerBin, r.w, img, r.WorkDir, r.repeats, r.ref, o, &r.fails)
	if err != nil {
		return err
	}
	r.attempted += audited
	recoveryMetrics(v, recs)

	// The in-process rungs, on a stack of their own with the same
	// dataset, commit mode and stream.
	s, so, spd, _, err := setupEmbedded(r.w, filepath.Join(r.WorkDir, "ladder"), r.ref)
	if err != nil {
		return err
	}
	defer spd.Remove()
	defer s.Close()
	backend, grid, batch := r.inProcessRungs(v, s, so, rec)
	rows := storeRungs(v, backend, grid, batch)
	addr, stop, err := s.Serve()
	if err != nil {
		return err
	}
	inproc, err := r.wireRung(rungWire, addr, so, rec)
	stop()
	if err != nil {
		return err
	}
	v["wire.self_us_per_op"] = (inproc.MeanNs - batch.MeanNs) / 1e3
	if v["wire.codec_ns_per_op"], err = r.codecProbe(); err != nil {
		return err
	}
	rows = append(rows,
		row{"window + durability wait (" + rungBatch + " - grid)", batch.MeanNs - grid.MeanNs},
		row{"wire self (" + rungWire + " - apply_batch)", inproc.MeanNs - batch.MeanNs},
		row{"process boundary (" + rungChild + " - in_process)", child.MeanNs - inproc.MeanNs})
	// The measured mean is the loaded 2 x 16 window over its depth; what
	// the unloaded ladder does not cover is queueing between connections.
	v["trace.coverage"] = r.waterfall(rows, loadedWindow/Depth, p.Kops(), v)
	return nil
}

// codecProbe times the codec on a window of the workload's own requests
// and the replies they get.
func (r *run) codecProbe() (float64, error) {
	o := NewOracle(r.w) // filling a window issues writes: not on a live stack's ack log
	wd := newWindowDriver(r.w, o, r.Seed, 1, 0, 64)
	wd.fill()
	reqs := make([]Request, len(wd.ops))
	resps := make([]Response, len(wd.ops))
	for i := range wd.ops {
		wd.request(i, &reqs[i])
		resps[i] = Response{Op: reqs[i].Op, Status: WireOK}
		if wd.ops[i].Kind == OpRead {
			resps[i].Fields = o.InitialFields(wd.ops[i].Key)
		}
	}
	rounds := 2000
	if r.Quick {
		rounds = 200
	}
	return ProbeCodec(reqs, resps, rounds)
}
