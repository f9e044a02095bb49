package harness

// MetricDef is one row of BENCHMARK.json's metric tables. Bound is set
// for end-to-end metrics only.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics a user of the grid sees, the same nine on
// every workload. README.md defines each and says where the bounds come
// from: one bound serves all four workloads, so the timing bounds are
// sized by net-counter, the noisiest. Restart-to-ready was the tenth; it
// did not repeat within 0.15 (README.md, "Noise") and is the per-layer
// core.recover_ready_ms instead.
var EndToEnd = []MetricDef{
	{"throughput_kops", "kops/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"pwb_per_op", "1/op", "lower", 0.02},
	{"pfence_per_op", "1/op", "lower", 0.05},
	{"space_amp", "x", "lower", 0.02},
	{"rss_anon_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer are the single-layer metrics of the traced run. A metric that
// does not apply to a workload (wire.* on emb-*, fa.delta_* without
// deltas) reads 0 there.
var PerLayer = []MetricDef{
	{Name: "nvm.stores_per_op", Unit: "1/op", Better: "lower"},
	{Name: "nvm.pwb_per_write", Unit: "1/op", Better: "lower"},
	{Name: "nvm.pfence_per_write", Unit: "1/op", Better: "lower"},
	{Name: "nvm.fence_ns", Unit: "ns", Better: "lower"},
	{Name: "nvm.pwb_ns", Unit: "ns", Better: "lower"},
	{Name: "nvm.model_share", Unit: "frac", Better: "lower"},

	{Name: "heap.allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "heap.frees_per_op", Unit: "1/op", Better: "lower"},
	{Name: "heap.transient_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "heap.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "heap.blocks_in_use", Unit: "count", Better: "lower"},
	{Name: "heap.free_list_depth", Unit: "count", Better: "lower"},

	{Name: "fa.commits_per_op", Unit: "1/op", Better: "lower"},
	{Name: "fa.log_entries_per_commit", Unit: "count", Better: "lower"},
	{Name: "fa.flushed_lines_per_commit", Unit: "count", Better: "lower"},
	{Name: "fa.lines_saved_per_commit", Unit: "count", Better: "higher"},
	{Name: "fa.tx_slot_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fa.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "fa.commit_async_ns", Unit: "ns", Better: "lower"},
	{Name: "fa.epoch_txs_per_epoch", Unit: "count", Better: "higher"},
	{Name: "fa.await_durable_us_per_window", Unit: "us", Better: "lower"},
	{Name: "fa.watermark_lag_p50", Unit: "count", Better: "lower"},
	{Name: "fa.delta_fold_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fa.delta_flushes_saved_per_op", Unit: "1/op", Better: "higher"},

	{Name: "pdt.map_get_ns", Unit: "ns", Better: "lower"},
	{Name: "pdt.map_put_ns", Unit: "ns", Better: "lower"},
	{Name: "pdt.mirror_lock_waits_per_op", Unit: "1/op", Better: "lower"},

	{Name: "core.recover_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_mark_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_live_objects", Unit: "count", Better: "lower"},
	{Name: "core.recover_swept_blocks", Unit: "count", Better: "lower"},
	{Name: "core.recover_replayed_tx", Unit: "count", Better: "lower"},

	{Name: "store.backend_read_ns", Unit: "ns", Better: "lower"},
	{Name: "store.backend_update_ns", Unit: "ns", Better: "lower"},
	{Name: "store.grid_read_ns", Unit: "ns", Better: "lower"},
	{Name: "store.grid_update_ns", Unit: "ns", Better: "lower"},
	{Name: "store.grid_self_ns", Unit: "ns", Better: "lower"},
	{Name: "store.apply_batch_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "store.zero_copy_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.seqlock_retries_per_read", Unit: "1/op", Better: "lower"},
	{Name: "store.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "store.write_p99_us", Unit: "us", Better: "lower"},

	{Name: "wire.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "wire.write_fences_per_batch", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_in_per_op", Unit: "B/op", Better: "lower"},
	{Name: "wire.bytes_out_per_op", Unit: "B/op", Better: "lower"},
	{Name: "wire.codec_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.pingpong_read_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.pingpong_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wire.client_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wire.server_cpu_share", Unit: "frac", Better: "lower"},

	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}

// Metric is one measured value as the driver reads it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's verdict: the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// metricSet builds a Result's metrics: exactly defs' names, with defs'
// units; a name the run did not set reads 0.
func metricSet(defs []MetricDef, values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// ratio is a/b, 0 when b is 0: a layer that did no work has no rate.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
