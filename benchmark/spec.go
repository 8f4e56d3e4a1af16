package main

// The metric dictionary. BENCHMARK.json carries the same names, units
// and directions (the smoke test holds the two together); README.md
// says what each one means and which end-to-end metric it should move.

const (
	wlKV    = "kv-snapshot"
	wlClone = "clone-invoke"
	wlFork  = "fork-loop"
	wlMem   = "mem-pressure"
	wlCkpt  = "ckpt-restore"
)

var workloadNames = []string{wlKV, wlClone, wlFork, wlMem, wlCkpt}

// failShareBound is absolute, not relative: the expected share of
// failed operations is 0.
const failShareBound = 0.001

// setupFloorS: set-up differences below this many seconds are ignored
// by the comparator (a 25 % move of a 0.3 s set-up is scheduler noise).
const setupFloorS = 0.25

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening
	// On lists the workloads that measure the metric; nil means all.
	// Elsewhere a per-layer metric is reported as 0 and flagged
	// unmeasured: the layer is idle there, or the probe lives with the
	// workload that exercises it.
	On []string
}

func (m metricSpec) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "fork_mid_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "classic_fork_mid_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "peak_frames", Unit: "frames", Better: "lower", Bound: 0.02},
}

var (
	tcp    = []string{wlKV, wlClone}
	onKV   = []string{wlKV}
	onCl   = []string{wlClone}
	onFork = []string{wlFork}
	onMem  = []string{wlMem}
	onCkpt = []string{wlCkpt}
)

var perLayer = []metricSpec{
	// serve: socket + codec + server loop, seen as client RTT minus the
	// decorated App.Handle.
	{Name: "serve.residual_p50_us", Unit: "us", Better: "lower", On: tcp},
	{Name: "serve.residual_p99_us", Unit: "us", Better: "lower", On: tcp},
	{Name: "serve.codec_roundtrip_ns_64b", Unit: "ns", Better: "lower", On: onCl},
	{Name: "serve.codec_roundtrip_ns_4k", Unit: "ns", Better: "lower", On: onCl},
	{Name: "serve.codec_allocs_per_roundtrip", Unit: "count", Better: "lower", On: onCl},
	{Name: "serve.fork_coincident_share", Unit: "ratio", Better: "lower", On: onKV},
	{Name: "serve.fork_coincident_p50_us", Unit: "us", Better: "lower", On: onKV},
	{Name: "serve.dispatch_self_p50_us", Unit: "us", Better: "lower", On: onCl},

	{Name: "kvstore.get_p50_us", Unit: "us", Better: "lower", On: onKV},
	{Name: "kvstore.set_p50_us", Unit: "us", Better: "lower", On: tcp},
	{Name: "kvstore.clone_get_p50_us", Unit: "us", Better: "lower", On: onCl},
	{Name: "kvstore.snapshot_child_ms", Unit: "ms", Better: "lower", On: onKV},

	{Name: "tenant.admit_fast_ns", Unit: "ns", Better: "lower", On: onCl},
	{Name: "tenant.forks_admitted", Unit: "count", Better: "higher"},
	{Name: "tenant.forks_queued", Unit: "count", Better: "lower"},
	{Name: "tenant.forks_rejected", Unit: "count", Better: "lower"},

	{Name: "kernel.exit_p50_us", Unit: "us", Better: "lower", On: []string{wlFork, wlMem, wlCkpt}},
	{Name: "kernel.snapshot_sync_p50_us", Unit: "us", Better: "lower", On: onCl},

	{Name: "fork.ondemand_p50_us", Unit: "us", Better: "lower"},
	{Name: "fork.ondemand_p95_us", Unit: "us", Better: "lower"},
	{Name: "fork.classic_p50_us", Unit: "us", Better: "lower"},
	{Name: "fork.pristine_p50_us", Unit: "us", Better: "lower", On: onFork},
	{Name: "fork.ns_per_leaf_table", Unit: "ns", Better: "lower", On: onFork},
	{Name: "fork.tables_shared_per_fork", Unit: "count", Better: "higher"},
	{Name: "fork.tables_copied_per_fork", Unit: "count", Better: "lower"},
	{Name: "fork.parallel_forks", Unit: "count", Better: "higher"},

	{Name: "fault.first_write_p50_us", Unit: "us", Better: "lower", On: onFork},
	{Name: "fault.next_write_p50_us", Unit: "us", Better: "lower", On: onFork},
	{Name: "fault.warm_write_ns", Unit: "ns", Better: "lower", On: onFork},
	{Name: "fault.table_splits_per_op", Unit: "count", Better: "lower"},
	{Name: "fault.page_copies_per_op", Unit: "count", Better: "lower"},
	{Name: "fault.zero_elide_share", Unit: "ratio", Better: "higher"},
	{Name: "fault.fast_dedups_per_op", Unit: "count", Better: "higher"},
	{Name: "fault.read_faults_per_op", Unit: "count", Better: "lower"},

	{Name: "tlb.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "tlb.read8_hit_ns", Unit: "ns", Better: "lower", On: onMem},

	{Name: "phys.shard_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "phys.refills_per_kop", Unit: "count", Better: "lower"},
	{Name: "phys.drains_per_kop", Unit: "count", Better: "lower"},
	{Name: "phys.alloc_put_ns", Unit: "ns", Better: "lower", On: onFork},
	{Name: "phys.frames_leaked", Unit: "frames", Better: "lower"},

	// reclaim: the counters are reported everywhere and must be zero
	// outside mem-pressure; the timings only exist there.
	{Name: "reclaim.scan_per_steal", Unit: "count", Better: "lower"},
	{Name: "reclaim.direct_steal_share", Unit: "ratio", Better: "lower"},
	{Name: "reclaim.alloc_stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "reclaim.swapin_per_s", Unit: "1/s", Better: "higher"},
	{Name: "reclaim.swapout_per_s", Unit: "1/s", Better: "higher"},
	{Name: "reclaim.kswapd_wakeups_per_s", Unit: "1/s", Better: "lower"},
	{Name: "reclaim.cold_touch_p50_us", Unit: "us", Better: "lower", On: onMem},
	{Name: "reclaim.cold_touch_p99_us", Unit: "us", Better: "lower", On: onMem},
	{Name: "reclaim.hot_touch_p99_us", Unit: "us", Better: "lower", On: onMem},
	{Name: "reclaim.hot_refault_share", Unit: "ratio", Better: "lower", On: onMem},
	{Name: "reclaim.store_write_p50_us", Unit: "us", Better: "lower", On: onMem},
	{Name: "reclaim.store_read_p50_us", Unit: "us", Better: "lower", On: onMem},
	{Name: "reclaim.store_bytes_per_page", Unit: "B", Better: "lower", On: onMem},

	{Name: "ckpt.write_mib_per_s", Unit: "MiB/s", Better: "higher", On: onCkpt},
	{Name: "ckpt.restore_first_op_us", Unit: "us", Better: "lower", On: onCkpt},
	{Name: "ckpt.full_write_us_per_page", Unit: "us", Better: "lower", On: onCkpt},
	{Name: "ckpt.incr_write_ms", Unit: "ms", Better: "lower", On: onCkpt},
	{Name: "ckpt.incr_pages_share", Unit: "ratio", Better: "lower", On: onCkpt},
	{Name: "ckpt.file_bytes_per_page", Unit: "B", Better: "lower", On: onCkpt},
	{Name: "ckpt.restore_call_us", Unit: "us", Better: "lower", On: onCkpt},
	{Name: "ckpt.open_us", Unit: "us", Better: "lower", On: onCkpt},
	{Name: "ckpt.page_hit_ns", Unit: "ns", Better: "lower", On: onCkpt},
	{Name: "ckpt.chunk_decode_us", Unit: "us", Better: "lower", On: onCkpt},
	{Name: "ckpt.chunk_loads_per_kpage", Unit: "count", Better: "lower", On: onCkpt},
	{Name: "ckpt.verify_mib_per_s", Unit: "MiB/s", Better: "higher", On: onCkpt},

	{Name: "bulk.copy_page_gib_per_s", Unit: "GiB/s", Better: "higher", On: onFork},
	{Name: "bulk.is_zero_gib_per_s", Unit: "GiB/s", Better: "higher", On: onFork},
	{Name: "bulk.pages_equal_gib_per_s", Unit: "GiB/s", Better: "higher", On: onFork},

	// The program's own telemetry, armed: one extra round each with
	// metrics off and with the flight recorder on, against the default.
	{Name: "metrics.armed_cost_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.armed_cost_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.dropped_share", Unit: "ratio", Better: "lower"},

	{Name: "host.cpu_ms_per_kop", Unit: "ms", Better: "lower"},
	{Name: "host.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "host.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.rss_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.calib_drift_share", Unit: "ratio", Better: "lower"},

	// The instrument's own cost.
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_coverage_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.spans_recorded", Unit: "count", Better: "higher"},
	{Name: "bench.timer_pair_ns", Unit: "ns", Better: "lower"},
}

// reclaimCounters are the per-layer metrics that must read zero on
// every workload but mem-pressure.
var reclaimCounters = []string{
	"reclaim.scan_per_steal", "reclaim.direct_steal_share", "reclaim.alloc_stalls_per_kop",
	"reclaim.swapin_per_s", "reclaim.swapout_per_s", "reclaim.kswapd_wakeups_per_s",
}
