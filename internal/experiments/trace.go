package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
	"repro/internal/trace"
)

// The trace experiment drives one representative window of everything
// the flight recorder instruments — both fork engines with parallel
// workers, the CoW fault ladder, and a swap-pressure phase that runs
// kswapd and direct reclaim — and reports what the recorder captured:
// event counts by name plus the Figure 3-style fork-stage attribution.
// The caller exports the same snapshot as Chrome trace-event JSON (the
// odf-bench -trace-out flag, `make trace`) for Perfetto.

// RunTrace records a traced fork/fault/reclaim window. It returns the
// captured snapshot (for export) and the text artifact.
func RunTrace(maxBytes uint64, reps int) (trace.Snapshot, string, error) {
	foot := maxBytes / 8
	if foot < 8*MiB {
		foot = 8 * MiB
	}
	if foot > 64*MiB {
		foot = 64 * MiB
	}
	pages := int(foot / addr.PageSize)

	k := kernel.New()
	base := k.MetricsSnapshot()
	k.SetTraceEnabled(true)
	defer k.SetTraceEnabled(false)

	p := k.NewProcess()
	defer p.Exit()
	v, err := p.Mmap(uint64(pages)*addr.PageSize, vm.ProtRead|vm.ProtWrite, vm.MapPrivate|vm.MapPopulate)
	if err != nil {
		return trace.Snapshot{}, "", err
	}
	for i := 0; i < pages; i += 2 {
		if err := p.StoreByte(v+addr.V(i*addr.PageSize), byte(i)); err != nil {
			return trace.Snapshot{}, "", err
		}
	}

	// Phase 1: both engines — classic with workers, on-demand
	// sequential — children exercising the fault ladder (table copy,
	// then page copies).
	for rep := 0; rep < reps; rep++ {
		for _, opts := range [][]kernel.ForkOpt{
			{kernel.WithMode(core.ForkClassic), kernel.WithWorkers(4)},
			{kernel.WithMode(core.ForkOnDemand)},
		} {
			c, err := p.Fork(opts...)
			if err != nil {
				return trace.Snapshot{}, "", err
			}
			for i := 0; i < pages; i += 64 {
				if err := c.StoreByte(v+addr.V(i*addr.PageSize), byte(rep)); err != nil {
					c.Exit()
					return trace.Snapshot{}, "", err
				}
			}
			c.Exit()
		}
	}

	// Phase 2: swap pressure. Clamp frames below a (smaller) working
	// set so writes stall in direct reclaim, kswapd trims, and re-reads
	// fault pages back in from the swap store. The set is kept well
	// under the ring capacity so this phase's event flood does not
	// overwrite the fork timeline of phase 1 (the ring drops oldest).
	pp := pages / 8
	if pp > trace.DefaultCapacity/16 {
		pp = trace.DefaultCapacity / 16
	}
	k.SetSwapEnabled(true)
	defer k.SetSwapEnabled(false)
	k.Allocator().SetLimit(k.Allocator().Allocated() + int64(pp)/2)
	defer k.Allocator().SetLimit(0)
	q := k.NewProcess()
	defer q.Exit()
	w, err := q.Mmap(uint64(pp)*addr.PageSize, vm.ProtRead|vm.ProtWrite, vm.MapPrivate)
	if err != nil {
		return trace.Snapshot{}, "", err
	}
	for i := 0; i < pp; i++ {
		if err := q.StoreByte(w+addr.V(i*addr.PageSize), byte(i)); err != nil {
			return trace.Snapshot{}, "", err
		}
	}
	for i := 0; i < pp; i += 4 {
		if _, err := q.LoadByte(w + addr.V(i*addr.PageSize)); err != nil {
			return trace.Snapshot{}, "", err
		}
	}

	s := k.TraceSnapshot()
	var b strings.Builder
	b.WriteString(header("Flight recorder: traced fork/fault/reclaim window"))
	fmt.Fprintf(&b, "events recorded: %d (dropped %d)\n", len(s.Events), s.Dropped)
	counts := map[string]int{}
	var names []string
	for _, e := range s.Events {
		name := e.Name()
		if counts[name] == 0 {
			names = append(names, name)
		}
		counts[name]++
	}
	for _, name := range names {
		fmt.Fprintf(&b, "  %-18s %d\n", name, counts[name])
	}
	b.WriteString(metricsFooter(k, base))
	return s, b.String(), nil
}
