package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem/vm"
	"repro/internal/profile"
	"repro/internal/stats"
)

// The parallel-fork study measures the two scalability mechanisms
// layered on top of the paper's engines: fanning one classic fork's
// tree copy out across PMD-slot ranges (ForkOptions.Parallelism), and
// the sharded frame allocator that keeps concurrent forks off the
// global buddy lock. On-demand fork ignores Parallelism — its per-table
// work is one share-count bump — so it appears once per size, as the
// sequential reference beside the classic sweep. The second table is
// the Figure 2 concurrent-fork shape with the parallel engine switched
// on; the shard counter report shows how much allocation traffic the
// per-CPU-style caches absorbed.

// ParForkRow is one point of the worker sweep: classic fork with
// Workers workers, and the sequential on-demand fork of the same size.
type ParForkRow struct {
	Size                  uint64
	Workers               int
	ClassicMS, OnDemandMS float64
}

// parWorkerSet returns the worker counts to sweep, always starting at
// the sequential baseline.
func parWorkerSet(maxWorkers int) []int {
	set := []int{1}
	for _, w := range []int{2, 4, 8} {
		if w <= maxWorkers {
			set = append(set, w)
		}
	}
	if last := set[len(set)-1]; maxWorkers > last {
		set = append(set, maxWorkers)
	}
	return set
}

func measureFork(p *kernel.Process, mode core.ForkMode, workers, reps int) (float64, error) {
	var sample stats.Sample
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		c, err := p.Fork(kernel.WithMode(mode), kernel.WithWorkers(workers))
		elapsed := time.Since(t0)
		if err != nil {
			return 0, err
		}
		sample.AddDuration(elapsed)
		c.Exit()
		c.Wait()
	}
	return sample.Mean(), nil
}

// RunParFork sweeps classic fork latency over sizes × worker counts
// beside the sequential on-demand fork, then measures 3 concurrent
// forks sequential-vs-parallel, and reports the allocator shard
// counters exercised along the way.
func RunParFork(maxBytes uint64, reps, maxWorkers int) ([]ParForkRow, string, error) {
	maxWorkers = max(maxWorkers, 1)
	prof := profile.New()
	k := kernel.New(kernel.WithProfiler(prof))
	base := k.MetricsSnapshot()
	workers := parWorkerSet(maxWorkers)

	var rows []ParForkRow
	tb := stats.NewTable("size", "workers", "fork (ms)", "speedup", "odf, sequential (ms)")
	for _, size := range SweepSizes(maxBytes) {
		p := k.NewProcess()
		if _, err := p.Mmap(size, vm.ProtRead|vm.ProtWrite, vm.MapPrivate|vm.MapPopulate); err != nil {
			return nil, "", err
		}
		odf, err := measureFork(p, core.ForkOnDemand, 1, reps)
		if err != nil {
			return nil, "", err
		}
		var baseClassic float64
		for _, w := range workers {
			classic, err := measureFork(p, core.ForkClassic, w, reps)
			if err != nil {
				return nil, "", err
			}
			if w == 1 {
				baseClassic = classic
			}
			rows = append(rows, ParForkRow{Size: size, Workers: w, ClassicMS: classic, OnDemandMS: odf})
			tb.AddRow(SizeLabel(size), w, classic, fmt.Sprintf("%.2fx", baseClassic/classic), odf)
		}
		p.Exit()
	}
	out := header("Parallel fork: classic latency vs worker count, on-demand sequential") + tb.String()

	// Figure 2 shape under the parallel engine: 3 concurrent forks.
	concSize := max(maxBytes/2, 128*MiB)
	const concurrent = 3
	ctb := stats.NewTable("engine", "workers", "3 concurrent forks, wall (ms)")
	type cell struct {
		mode    core.ForkMode
		workers int
	}
	cells := []cell{{core.ForkClassic, 1}}
	if maxWorkers > 1 {
		cells = append(cells, cell{core.ForkClassic, maxWorkers})
	}
	cells = append(cells, cell{core.ForkOnDemand, 1})
	for _, cell := range cells {
		procs := make([]*kernel.Process, concurrent)
		for i := range procs {
			procs[i] = k.NewProcess()
			if _, err := procs[i].Mmap(concSize, vm.ProtRead|vm.ProtWrite, vm.MapPrivate|vm.MapPopulate); err != nil {
				return nil, "", err
			}
		}
		var sample stats.Sample
		for r := 0; r < reps; r++ {
			var wg sync.WaitGroup
			errs := make([]error, concurrent)
			kids := make([]*kernel.Process, concurrent)
			t0 := time.Now()
			for i, p := range procs {
				wg.Add(1)
				go func(i int, p *kernel.Process) {
					defer wg.Done()
					kids[i], errs[i] = p.Fork(kernel.WithMode(cell.mode), kernel.WithWorkers(cell.workers))
				}(i, p)
			}
			wg.Wait()
			sample.AddDuration(time.Since(t0))
			for i := range kids {
				if errs[i] != nil {
					return nil, "", errs[i]
				}
				kids[i].Exit()
				kids[i].Wait()
			}
		}
		ctb.AddRow(cell.mode.String(), cell.workers, sample.Mean())
		for _, p := range procs {
			p.Exit()
		}
	}
	out += "\n" + header(fmt.Sprintf("Concurrent forks (%s each) with the parallel engine", SizeLabel(concSize))) +
		ctb.String()

	// The allocator shard counters the runs above exercised, read from
	// the system-wide metrics snapshot rather than the profiler.
	alloc := k.MetricsSnapshot().Alloc
	stb := stats.NewTable("allocator shard counter", "events")
	stb.AddRow("shard fast-path hits", int(alloc.ShardHits))
	stb.AddRow("shard refills", int(alloc.ShardRefills))
	stb.AddRow("shard drains", int(alloc.ShardDrains))
	out += "\n" + header("Sharded frame allocator: fast-path hits vs buddy-core round trips") + stb.String()
	out += metricsFooter(k, base)
	return rows, out, nil
}
