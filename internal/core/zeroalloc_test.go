package core

// Zero-allocation assertions for the two hot paths the paper's latency
// claims rest on — the on-demand fork itself and the write-fault fast
// path — and for the classic fork beside them. All run through the
// pooled allocation paths (space pool, table pool, and for classic
// fork the fork-run pool), so once the pools are warm a fork/recycle
// cycle and a fault must not touch the Go heap — any
// regression here shows up as GC pressure and tail latency in the
// fork-per-request workloads.

import (
	"runtime/debug"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
)

const zeroAllocMapBytes = 64 << 20

// zeroAllocParent builds a populated 64 MiB parent space.
func zeroAllocParent(t *testing.T) (*AddressSpace, addr.V) {
	t.Helper()
	return zeroAllocParentWith(t, nil)
}

// zeroAllocParentWith is zeroAllocParent with a metrics registry
// attached to the allocator (nil = uninstrumented).
func zeroAllocParentWith(t *testing.T, met *metrics.Registry) (*AddressSpace, addr.V) {
	t.Helper()
	alloc := phys.NewAllocator(nil)
	alloc.SetMetrics(met)
	parent := NewAddressSpace(alloc, nil)
	base, err := parent.Mmap(0, zeroAllocMapBytes, vm.ProtRead|vm.ProtWrite,
		vm.MapPrivate|vm.MapPopulate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return parent, base
}

// TestForkOnDemandZeroAlloc asserts that a warm fork+recycle cycle of
// the on-demand engine performs zero heap allocations.
func TestForkOnDemandZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations and drops pool items")
	}
	// GC off for the duration: a collection mid-measurement could both
	// empty the sync.Pools (forcing real allocations) and skew the
	// mallocs accounting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	parent, _ := zeroAllocParent(t)
	defer parent.Teardown()

	cycle := func() {
		child, err := ForkWithOptions(parent, ForkOnDemand, ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		child.Recycle()
	}
	for i := 0; i < 5; i++ {
		cycle() // warm the space/table pools
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("on-demand fork+recycle allocated %.1f objects/op, want 0", allocs)
	}
}

// TestForkClassicZeroAlloc asserts that a warm sequential classic
// fork+recycle cycle — task collection into the pooled fork run, the
// per-table range copies, and the child's teardown — performs zero
// heap allocations.
func TestForkClassicZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations and drops pool items")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	parent, _ := zeroAllocParent(t)
	defer parent.Teardown()

	cycle := func() {
		child, err := ForkWithOptions(parent, ForkClassic, ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		child.Recycle()
	}
	for i := 0; i < 5; i++ {
		cycle() // warm the space/table/fork-run pools
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("classic fork+recycle allocated %.1f objects/op, want 0", allocs)
	}
}

// TestFaultFastPathZeroAlloc asserts that the last-sharer fast dedup
// fault (one PMD writable-bit restore) and the TLB-hit store behind it
// perform zero heap allocations in steady state.
func TestFaultFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations and drops pool items")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	parent, base := zeroAllocParent(t)
	defer parent.Teardown()

	// Each cycle: share tables with a child, drop the child, then write —
	// the parent is the last sharer, so the fault takes the fast path.
	cycle := func() {
		child, err := ForkWithOptions(parent, ForkOnDemand, ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		child.Recycle()
		if err := parent.StoreByte(base, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	splitsBefore := parent.TableSplits.Load()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("fast-path fault cycle allocated %.1f objects/op, want 0", allocs)
	}
	if got := parent.TableSplits.Load(); got != splitsBefore {
		t.Fatalf("fast-path cycles performed %d table splits, want 0", got-splitsBefore)
	}

	// The pure TLB-hit store must be allocation-free as well.
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := parent.StoreByte(base, 2); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("TLB-hit store allocated %.1f objects/op, want 0", allocs)
	}
}

// TestSplitThenExitZeroAlloc asserts that the deferred work of an
// on-demand fork — the child's first write copies a shared table, its
// exit drains the privatised copy — stays off the Go heap once the pools
// are warm: the leaf kernels gather frames on the stack, and the
// swap-slot callbacks they are handed do not escape.
func TestSplitThenExitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations and drops pool items")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	parent, base := zeroAllocParent(t)
	defer parent.Teardown()

	cycle := func() {
		child, err := ForkWithOptions(parent, ForkOnDemand, ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Touch writes without moving data: the source page is still
		// demand-zero, so the page copy is elided and no payload is
		// materialized.
		if err := child.Touch(base, true); err != nil {
			t.Fatal(err)
		}
		if got := child.TableSplits.Load(); got != 1 {
			t.Fatalf("the child's first write performed %d table splits, want 1", got)
		}
		child.Recycle()
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("fork + table split + exit allocated %.1f objects/op, want 0", allocs)
	}
}

// TestCorrelationContextZeroAlloc asserts that the request
// observability layer — metrics armed, a per-tenant slot attached, and
// a request id stamped on the space — adds zero heap allocations to
// the fast fault path and the fork+recycle cycle. Exemplar recording
// (CAS min-replacement over fixed slots) and tenant-slot charges
// (plain atomics) must stay off the heap, or a tagged request would
// pay GC pressure an untagged one does not.
func TestCorrelationContextZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations and drops pool items")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	met := metrics.New()
	parent, base := zeroAllocParentWith(t, met)
	defer parent.Teardown()
	parent.SetTenantSlot(met.RegisterTenant(1, "alpha"))
	parent.SetRequest(42)

	// Fast-dedup fault cycle, fully tagged and instrumented.
	cycle := func() {
		child, err := ForkWithOptions(parent, ForkOnDemand, ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		child.Recycle()
		if err := parent.StoreByte(base, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("tagged fast-path fault cycle allocated %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := parent.StoreByte(base, 2); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("tagged TLB-hit store allocated %.1f objects/op, want 0", allocs)
	}

	// The tagged metrics did land in the tenant partition.
	if s := met.Snapshot(); len(s.Tenants) != 1 || s.Tenants[0].Forks[metrics.EngineOnDemand] == 0 {
		t.Fatalf("tenant slot uncharged after tagged cycles: %+v", s.Tenants)
	}
}
