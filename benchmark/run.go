package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/odfork"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed    uint64
	seconds int
	tiny    bool
	outDir  string
	// roundOps is the running workload's operations per round, filled
	// in by the runner.
	roundOps int
}

const rounds = 5

// setupReps is how often the untraced run boots its world: setup_s is
// the median, so one slow boot does not move it.
const setupReps = 3

// roundRec is what one round of operations produced. Clients running
// in parallel fill one each; merge folds them together.
type roundRec struct {
	ops       samples // per-operation latency as the caller saw it
	fork      samples // on-demand fork calls made by the operations
	attempted int
	failed    int
	wall      time.Duration
}

func (r *roundRec) merge(o *roundRec) {
	r.ops = append(r.ops, o.ops...)
	r.fork = append(r.fork, o.fork...)
	r.attempted += o.attempted
	r.failed += o.failed
}

// fail counts one failed operation: an error, a refusal or a wrong
// byte. A failed operation has no latency sample, so it also misses
// every latency figure.
func (r *roundRec) fail(why string, args ...any) {
	r.failed++
	if r.failed <= 3 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED op: "+why+"\n", args...)
	}
}

// tailRec holds the forks made after the measured rounds: a workload
// that does not fork by itself forks its main process here, and every
// workload forks it with the classic engine, so both engines are
// measured on all five images. exit times the reaping of the on-demand
// children only: a classic child's teardown is a different cost.
type tailRec struct {
	ondemand, classic, exit samples
}

// world is one booted instance of a workload.
type world interface {
	// round runs n operations. With tr set it also records spans and
	// switches the decorators on.
	round(n int, rec *roundRec, tr *tracer) error
	tail(t *tailRec) error
	// counters reads System.Metrics() (summed over the systems the
	// world owns).
	counters() metrics.Snapshot
	// telemetry toggles the program's own instruments for the
	// armed-cost rounds and reports the flight recorder's drop count.
	setMetrics(on bool)
	setFlightRecorder(on bool)
	flightRecorderDrops() (recorded, dropped uint64)
	// layer fills the per-layer metrics only this workload can
	// measure, from the traced round's spans and its home probes.
	layer(a analysis, pl map[string]float64) error
	// close tears the world down and reports frames still allocated.
	close() (leaked int64, err error)
}

// kernelTelemetry and systemTelemetry give a world the four telemetry
// methods of the interface, for the two handles the program is driven
// through: a bare kernel (the serving tier and SetSwapStore need one)
// and the odfork facade.
type kernelTelemetry struct{ k *kernel.Kernel }

func (t kernelTelemetry) counters() metrics.Snapshot { return t.k.MetricsSnapshot() }
func (t kernelTelemetry) setMetrics(on bool)         { t.k.Metrics().SetEnabled(on) }
func (t kernelTelemetry) setFlightRecorder(on bool)  { t.k.SetTraceEnabled(on) }
func (t kernelTelemetry) flightRecorderDrops() (uint64, uint64) {
	s := t.k.TraceSnapshot()
	return uint64(len(s.Events)), s.Dropped
}

type systemTelemetry struct{ sys *odfork.System }

func (t systemTelemetry) counters() metrics.Snapshot { return t.sys.Metrics() }
func (t systemTelemetry) setMetrics(on bool)         { t.sys.SetMetricsEnabled(on) }
func (t systemTelemetry) setFlightRecorder(on bool)  { t.sys.SetTraceEnabled(on) }
func (t systemTelemetry) flightRecorderDrops() (uint64, uint64) {
	s := t.sys.TraceSnapshot()
	return uint64(len(s.Events)), s.Dropped
}

type workload struct {
	name string
	// opsPerSecond pins the work: a run measures opsPerSecond×seconds
	// operations, whatever the commit's speed. It was sized so that
	// one second of budget is about one second of work at the commit
	// that introduced the benchmark.
	opsPerSecond int
	// opQuantum: the op count of a round is a multiple of this (one
	// checkpoint cycle reads every page of the image).
	opQuantum func(cfg config) int
	tinyOps   int // operations per round at -scale tiny
	boot      func(cfg config, traced bool) (world, error)
}

func (wl workload) roundOps(cfg config) int {
	n := wl.tinyOps
	if !cfg.tiny {
		n = wl.opsPerSecond * cfg.seconds / rounds
	}
	if wl.opQuantum != nil {
		q := wl.opQuantum(cfg)
		n = (n + q/2) / q * q
		if n < q {
			n = q
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// wallCeiling marks a run failed when it takes more than three times
// its budget: a commit that slow is not measured, it is rejected.
func wallCeiling(cfg config) time.Duration {
	return 3 * time.Duration(cfg.seconds) * time.Second
}

// untraced is the run the end-to-end metrics come from.
func runUntraced(wl workload, cfg config) (*workloadResult, error) {
	cfg.roundOps = wl.roundOps(cfg)
	res := &workloadResult{Name: wl.name, RoundOps: cfg.roundOps}
	reps := setupReps
	if cfg.tiny {
		reps = 1
	}
	// The calibration loop runs with no world alive: a booted world has
	// background goroutines (snapshot children, kswapd) that would be
	// measured as host noise.
	calib0 := calibrate()
	var w world
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			_, err := w.close()
			w = nil
			if err != nil {
				return nil, err
			}
		}
		// Each boot starts from a collected heap, so the previous
		// world's frames are not charged to this one.
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = wl.boot(cfg, false); err != nil {
			return nil, fmt.Errorf("%s: boot: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	h0 := readHost()
	start := time.Now()
	var recs []*roundRec
	for r := 0; r < rounds; r++ {
		rec := &roundRec{}
		runtime.GC()
		if err := w.round(res.RoundOps, rec, nil); err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", wl.name, r+1, err)
		}
		recs = append(recs, rec)
	}
	measured := time.Since(start)
	h1 := readHost()
	peak := w.counters().Alloc.FramesPeak
	var tl tailRec
	if err := w.tail(&tl); err != nil {
		return nil, fmt.Errorf("%s: tail: %w", wl.name, err)
	}
	leaked, err := w.close()
	w = nil
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", wl.name, err)
	}
	calib1 := calibrate()

	res.MeasuredS = measured.Seconds()
	res.setCalib(calib0, calib1)
	res.FramesLeaked = leaked
	if !cfg.tiny && measured > wallCeiling(cfg) {
		res.Errors = append(res.Errors, fmt.Sprintf("measured %.1fs, over the %.0fs ceiling", measured.Seconds(), wallCeiling(cfg).Seconds()))
	}

	var ops, p50, p99, forkMed []float64
	var pct float64
	var forkAll samples
	nOps := 0
	for _, rec := range recs {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		t := summarize(rec.ops)
		ops = append(ops, float64(len(rec.ops))/rec.wall.Seconds())
		p50 = append(p50, t.P50/1e3)
		p99 = append(p99, t.Tail/1e3)
		pct = t.TailPct
		nOps += t.N
		forkAll = append(forkAll, rec.fork...)
		if len(rec.fork) > 0 {
			forkMed = append(forkMed, mid(rec.fork)/1e3)
		}
	}
	if leaked != 0 {
		// A leaked frame is a correctness failure, not a statistic.
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("%d frames still allocated after teardown", leaked))
	}
	if len(forkAll) == 0 {
		forkAll, forkMed = tl.ondemand, nil
	}
	e := map[string]metricValue{}
	e["setup_s"] = metricValue{Value: median(setups), Rounds: setups}
	e["ops_per_s"] = metricValue{Value: median(ops), Rounds: ops, N: nOps}
	e["op_p50_us"] = metricValue{Value: median(p50), Rounds: p50, N: nOps, Pct: 50}
	e["op_p99_us"] = metricValue{Value: median(p99), Rounds: p99, N: nOps, Pct: pct}
	// Fork calls are few per round (ten snapshots a second on
	// kv-snapshot), so they are pooled over the whole run.
	e["fork_mid_us"] = metricValue{Value: mid(forkAll) / 1e3, Rounds: forkMed, N: len(forkAll)}
	e["classic_fork_mid_us"] = metricValue{Value: mid(tl.classic) / 1e3, N: len(tl.classic)}
	e["peak_frames"] = metricValue{Value: float64(peak)}
	for _, m := range endToEnd {
		v := e[m.Name]
		v.Unit, v.Measured = m.Unit, true
		e[m.Name] = v
	}
	res.EndToEnd = e
	res.Host = hostDelta(h0, h1, res.Attempted)
	return res, nil
}

func hostDelta(a, b hostUsage, ops int) map[string]float64 {
	n := float64(ops)
	if n == 0 {
		n = 1
	}
	return map[string]float64{
		"host.cpu_ms_per_kop":     float64(b.cpu-a.cpu) / 1e6 / n * 1e3,
		"host.alloc_bytes_per_op": float64(b.allocBytes-a.allocBytes) / n,
		"host.mallocs_per_op":     float64(b.mallocs-a.mallocs) / n,
		"host.gc_cycles":          float64(b.gcCycles - a.gcCycles),
		"host.gc_pause_ms":        float64(b.gcPause-a.gcPause) / 1e6,
		"host.rss_peak_mib":       rssPeakMiB(),
	}
}

// traced is the run the per-layer metrics come from: one plain round,
// the same round again with the benchmark's spans and
// decorators on, then one round each with the program's metrics off
// and its flight recorder on.
func runTraced(wl workload, cfg config) (*workloadResult, error) {
	cfg.roundOps = wl.roundOps(cfg)
	res := &workloadResult{Name: wl.name, RoundOps: cfg.roundOps}
	runtime.GC()
	calib0 := calibrate()
	w, err := wl.boot(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", wl.name, err)
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()
	pl := map[string]float64{}
	n := res.RoundOps
	runRound := func(tr *tracer) (*roundRec, error) {
		rec := &roundRec{}
		runtime.GC()
		err := w.round(n, rec, tr)
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		return rec, err
	}
	rate := func(rec *roundRec) float64 { return float64(len(rec.ops)) / rec.wall.Seconds() }

	// The first round after a boot runs a few percent slow on the TCP
	// workloads, which would read as a cost of whatever the next round
	// switches on; it is run and thrown away.
	if _, err := runRound(nil); err != nil {
		return nil, fmt.Errorf("%s: settling round: %w", wl.name, err)
	}
	c0 := w.counters()
	h0 := readHost()
	plain, err := runRound(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: plain round: %w", wl.name, err)
	}
	h1 := readHost()
	c1 := w.counters()

	tr := newTracer()
	spanned, err := runRound(tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced round: %w", wl.name, err)
	}
	pl["bench.trace_overhead_share"] = 1 - rate(spanned)/rate(plain)

	w.setMetrics(false)
	noMetrics, err := runRound(nil)
	w.setMetrics(true)
	if err != nil {
		return nil, fmt.Errorf("%s: metrics-off round: %w", wl.name, err)
	}
	pl["metrics.armed_cost_share"] = 1 - rate(plain)/rate(noMetrics)

	w.setFlightRecorder(true)
	recorded, err := runRound(nil)
	w.setFlightRecorder(false)
	if err != nil {
		return nil, fmt.Errorf("%s: flight-recorder round: %w", wl.name, err)
	}
	pl["trace.armed_cost_share"] = 1 - rate(recorded)/rate(plain)
	kept, dropped := w.flightRecorderDrops()
	pl["trace.dropped_share"] = float64(dropped) / float64(max(kept+dropped, 1))

	var tl tailRec
	if err := w.tail(&tl); err != nil {
		return nil, fmt.Errorf("%s: tail: %w", wl.name, err)
	}
	a := tr.analyze()
	if err := w.layer(a, pl); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", wl.name, err)
	}
	closed = true
	leaked, err := w.close()
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", wl.name, err)
	}
	res.setCalib(calib0, calibrate())
	res.FramesLeaked = leaked
	if leaked != 0 {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("%d frames still allocated after teardown", leaked))
	}

	counterMetrics(c1.Sub(c0), len(plain.ops), plain.wall, pl)
	forks := append(append(samples(nil), plain.fork...), spanned.fork...)
	if len(forks) == 0 {
		forks = tl.ondemand
	}
	fs := forks.sorted()
	pl["fork.ondemand_p50_us"] = fs.pct(50) / 1e3
	pl["fork.ondemand_p95_us"] = fs.pct(95) / 1e3
	pl["fork.classic_p50_us"] = median(tl.classic) / 1e3
	exits := append(append(samples(nil), a.dur["proc.exit"]...), tl.exit...)
	pl["kernel.exit_p50_us"] = median(exits) / 1e3
	pl["phys.frames_leaked"] = float64(leaked)
	for k, v := range hostDelta(h0, h1, len(plain.ops)) {
		pl[k] = v
	}
	pl["host.calib_ns"] = calib0
	pl["host.calib_drift_share"] = res.CalibDrift
	pl["bench.spans_recorded"] = float64(a.spans)
	pl["bench.timer_pair_ns"] = timerPairNS()
	if a.rootTracks > 0 && spanned.wall > 0 {
		// The share of the clients' wall time that lies inside spans.
		pl["bench.span_coverage_share"] = a.rootNS / (float64(a.rootTracks) * float64(spanned.wall))
	}

	res.PerLayer = map[string]metricValue{}
	for _, m := range perLayer {
		v, ok := pl[m.Name]
		res.PerLayer[m.Name] = metricValue{Value: v, Unit: m.Unit, Measured: ok && m.on(wl.name)}
		delete(pl, m.Name)
	}
	for name := range pl {
		return nil, fmt.Errorf("%s: per-layer metric %q is not in the dictionary", wl.name, name)
	}
	res.Spans = a.summaries()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res.TraceFile = filepath.Join(cfg.outDir, "trace-"+wl.name+".json")
	if err := tr.writeChrome(res.TraceFile); err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", wl.name, err)
	}
	return res, nil
}

// counterMetrics turns the delta of the program's public counters over
// the plain round into the per-operation figures every workload
// reports.
func counterMetrics(d metrics.Snapshot, ops int, wall time.Duration, pl map[string]float64) {
	n := float64(ops)
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	forks := d.Fork.Classic().Forks + d.Fork.OnDemand().Forks
	pl["fork.tables_shared_per_fork"] = ratio(d.Fork.TablesShared, forks)
	pl["fork.tables_copied_per_fork"] = ratio(d.Fork.TablesCopied, forks)
	pl["fork.parallel_forks"] = float64(d.Fork.ParallelForks)

	pl["fault.table_splits_per_op"] = float64(d.Fault.TableSplits) / n
	pl["fault.page_copies_per_op"] = float64(d.Fault.PageCopies) / n
	pl["fault.zero_elide_share"] = ratio(d.Fault.ZeroElides, d.Fault.PageCopies+d.Fault.ZeroElides)
	pl["fault.fast_dedups_per_op"] = float64(d.Fault.FastDedups) / n
	pl["fault.read_faults_per_op"] = float64(d.Fault.ReadFaults) / n

	pl["tlb.hit_share"] = ratio(d.TLB.Hits, d.TLB.Hits+d.TLB.Misses)

	pl["phys.shard_hit_share"] = ratio(d.Alloc.ShardHits, d.Alloc.ShardHits+d.Alloc.ShardRefills)
	pl["phys.refills_per_kop"] = float64(d.Alloc.ShardRefills) / n * 1e3
	pl["phys.drains_per_kop"] = float64(d.Alloc.ShardDrains) / n * 1e3

	r := d.Reclaim
	steals := r.PgStealKswapd + r.PgStealDirect
	pl["reclaim.scan_per_steal"] = ratio(r.PgScanKswapd+r.PgScanDirect, steals)
	pl["reclaim.direct_steal_share"] = ratio(r.PgStealDirect, steals)
	pl["reclaim.alloc_stalls_per_kop"] = float64(r.DirectReclaims) / n * 1e3
	pl["reclaim.swapin_per_s"] = float64(r.PswpIn) / wall.Seconds()
	pl["reclaim.swapout_per_s"] = float64(r.PswpOut) / wall.Seconds()
	pl["reclaim.kswapd_wakeups_per_s"] = float64(r.KswapdWakeups) / wall.Seconds()

	pl["tenant.forks_admitted"] = float64(d.Tenant.ForksAdmitted)
	pl["tenant.forks_queued"] = float64(d.Tenant.ForksQueued)
	pl["tenant.forks_rejected"] = float64(d.Tenant.ForksRejected)
}

// The collector is kept out of the timed sections: a round starts from
// a collected heap and runs with collection off, as internal/slo and
// internal/bench do. A cycle landing in one round and not the next was
// the largest single source of run-to-run spread (the swap store and
// the snapshot child allocate gigabytes a run); what a commit allocates
// still shows, as host.alloc_bytes_per_op and host.mallocs_per_op. The
// memory limit is the safety valve: past it the collector runs anyway.
func init() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(3 << 30)
}

// growHeap faults in as much heap as a round's garbage takes and frees
// it again, so the first measured round finds its memory already mapped
// like the later ones do. Growing the heap is lazy set-up of the
// benchmark process, not work of the program.
func growHeap(cfg config) {
	if cfg.tiny {
		return
	}
	const chunk = 64 << 20
	var keep [][]byte
	for i := 0; i < (2<<30)/chunk; i++ {
		b := make([]byte, chunk)
		for j := 0; j < len(b); j += 4096 {
			b[j] = 1
		}
		keep = append(keep, b)
	}
	runtime.KeepAlive(keep)
	keep = nil
	runtime.GC()
}
