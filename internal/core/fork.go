package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/trace"
)

// ForkMode selects the fork engine, mirroring the paper's evaluation
// matrix: the traditional fork (with regular or huge pages, depending
// on how memory was mapped) versus on-demand-fork.
type ForkMode int

// Fork engines.
const (
	// ForkClassic is the traditional Linux fork: copy the entire paging
	// hierarchy and reference-count every mapped page.
	ForkClassic ForkMode = iota
	// ForkOnDemand is the paper's design: share last-level page tables
	// and defer their copying to the first write fault per 2 MiB region.
	ForkOnDemand
)

// String names the mode as the paper does.
func (m ForkMode) String() string {
	switch m {
	case ForkClassic:
		return "fork"
	case ForkOnDemand:
		return "on-demand-fork"
	default:
		return "unknown"
	}
}

// ForkOptions tune the fork engines, mainly for the ablation studies
// listed in DESIGN.md §5. The zero value is the paper's design.
type ForkOptions struct {
	// EagerPageRefs (ablation): on-demand-fork additionally performs a
	// classic-style compound-page resolution and an atomic operation on
	// every mapped page's reference counter, quantifying how much of the
	// fork cost the table-refcount accounting of §3.6 removes.
	EagerPageRefs bool
	// PerPTEProtect (ablation): instead of write-protecting a whole
	// 2 MiB region via one PMD entry (the hierarchical-attribute trick
	// of §3.2), downgrade every individual PTE, quantifying the saving
	// of the single-entry protect.
	PerPTEProtect bool
	// ShareHugePMD enables the paper's §4 "Huge Page Support"
	// extension: PMD tables whose entries all describe 2 MiB pages are
	// shared between parent and child (write-protected by one PUD
	// entry) instead of having their huge entries copied and
	// reference-counted individually. The paper describes but does not
	// implement this; it is the natural generalization of last-level
	// sharing one level up.
	ShareHugePMD bool
	// Parallelism is the number of workers that copy the paging
	// hierarchy of a classic fork. When greater than one and the parent
	// maps at least 128 MiB, PMD-slot ranges are fanned out to a
	// bounded, reusable worker pool; each worker writes only its own
	// destination slot range, so no two workers touch the same table.
	// The zero value and 1 both select the sequential engine — the
	// paper's single-threaded copy. Values above GOMAXPROCS+1 are
	// clamped; negative values panic (see ForkWithOptions). On-demand
	// fork ignores it: its per-table work is one share-count bump, and
	// fanning that out measured slower than doing it in line.
	Parallelism int
}

// Validate panics when the options are malformed (negative
// Parallelism). Layers that take locks before entering the fork
// engine must validate first, so an API-misuse panic cannot escape
// with a lock still held and poison the process for callers that
// recover.
func (o ForkOptions) Validate() {
	if o.Parallelism < 0 {
		panic(fmt.Sprintf(
			"core: ForkOptions.Parallelism must be non-negative, got %d "+
				"(0 selects the sequential default, 1 forces sequential, "+
				"N>1 fans a classic fork out over up to N workers)", o.Parallelism))
	}
}

// workers validates Parallelism and returns the effective worker
// count. It is the single read point for the knob: negative values
// panic with a descriptive error, oversized values are clamped to
// GOMAXPROCS+1 (the pool's GOMAXPROCS workers plus the caller), and 0
// means sequential.
func (o ForkOptions) workers() int {
	o.Validate()
	if o.Parallelism > 1 {
		return min(o.Parallelism, runtime.GOMAXPROCS(0)+1)
	}
	return o.Parallelism
}

// Fork creates a child address space from parent using the given mode.
// The child sees a byte-identical copy of the parent's memory with full
// copy-on-write semantics; the parent's writable pages are
// write-protected as required by the engine.
//
// Fork keeps the historical single-value signature: when the frame
// budget runs out mid-copy it first unwinds the partial child (see
// ForkWithOptions), then panics with ErrOutOfMemory, which callers
// under a catchOOM boundary observe as an ordinary OOM error.
func Fork(parent *AddressSpace, mode ForkMode) *AddressSpace {
	child, err := ForkWithOptions(parent, mode, ForkOptions{})
	if err != nil {
		panic(err)
	}
	return child
}

// ForkWithOptions is Fork with ablation and parallelism options. It
// panics when opts.Parallelism is negative.
//
// The copy is transactional with respect to allocation failure: if any
// table allocation fails mid-fork (frame limit, or an injected
// failpoint), every reference the partial child took — page refcounts,
// PTE-table share counts, swap-slot references, ownership records — is
// released, its partially built tables are freed, and the parent is
// left passing CheckInvariants with its frame budget intact.
// ErrOutOfMemory is returned in that case. The parent's entries may
// remain COW-downgraded; the first write fault per region re-dedicates
// them through the engine's fast path, so only latent re-promotion
// work survives an abort, never lost memory.
func ForkWithOptions(parent *AddressSpace, mode ForkMode, opts ForkOptions) (*AddressSpace, error) {
	workers := opts.workers() // validate before taking any lock
	m := parent.met
	tr := parent.trc
	var forkStart time.Time
	var req uint64
	if m.Enabled() || tr.Enabled() {
		forkStart = time.Now()
		req = parent.curReq.Load()
	}

	parent.mu.Lock()
	defer parent.mu.Unlock()

	var child *AddressSpace
	var forkErr error
	func() {
		// The rollback boundary. Every fallible operation inside —
		// NewTable at any level, the per-range copies, the fan-out
		// tasks — sits at a slot boundary: a slot is either untouched
		// or fully committed (entries set AND references taken) when
		// the allocation panic unwinds, so freeing the child's tree
		// releases exactly what the partial fork acquired.
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if !isOOM(r) {
				panic(r)
			}
			if child != nil {
				parent.abortFork(child, mode)
				child = nil
			}
			forkErr = ErrOutOfMemory
		}()
		child = getSpace(parent.alloc, parent.prof, parent.sd, parent.rec)
		// The child belongs to the parent's tenant: its bookkeeping
		// tables and every frame it faults in are charged to the same
		// account, and scoped failpoints target its lineage too.
		child.tenantID = parent.tenantID
		child.charger = parent.charger
		child.w.Charger = parent.charger
		child.tslot = parent.tslot
		// The clone keeps serving the request that forked it: its COW
		// fault storm carries the same correlation id until the serving
		// tier re-tags or recycles the space.
		child.curReq.Store(parent.curReq.Load())
		parent.vmas.CloneInto(child.vmas)
		var walkStart time.Time
		if tr.Enabled() {
			walkStart = time.Now()
		}
		nTasks := 0
		switch mode {
		case ForkClassic:
			nTasks = parent.forkClassic(child, workers)
		case ForkOnDemand:
			parent.copyTreeOnDemand(parent.w.Root, child.w.Root, child, opts)
		default:
			panic("core: unknown fork mode")
		}
		tr.SpanReq(trace.KindForkStage, trace.StageWalk, trace.ActorApp, walkStart, 0, 0, req)
		// The parent's translations were downgraded; every relative that may
		// cache translations through now-shared tables must drop them (the
		// kernel's fork-time TLB flush, broadcast lineage-wide).
		var tlbStart time.Time
		if tr.Enabled() {
			tlbStart = time.Now()
		}
		parent.sd.Broadcast()
		parent.prof.Charge(profile.TLBFlush, 1)
		tr.SpanReq(trace.KindForkStage, trace.StageTLB, trace.ActorApp, tlbStart, 0, 0, req)
		if !forkStart.IsZero() && m.Enabled() {
			// metrics.ForkEngine values mirror ForkMode, so the cast is the
			// whole mapping.
			if e := metrics.ForkEngine(mode); e >= 0 && e < metrics.NumEngines {
				d := time.Since(forkStart)
				m.Fork.Forks[e].Inc()
				m.Fork.Latency[e].ObserveTagged(d, req)
				if ts := parent.tslot; ts != nil {
					ts.Forks[e].Inc()
					ts.ForkLatency[e].ObserveTagged(d, req)
				}
			}
		}
		tr.SpanReq(trace.KindFork, trace.StageNone, trace.ActorApp, forkStart, uint64(mode), uint64(nTasks), req)
	}()
	return child, forkErr
}

// abortFork rolls back a partially built child after a mid-fork
// allocation failure, with parent.mu held. The child was never
// published, so freeing its tree — which drops page refcounts, leaf and
// PMD share counts, swap-slot references, and reclaim ownership records
// through the same release paths Teardown uses — restores every counter
// the partial copy bumped. Parent entries already downgraded for COW
// stay downgraded (write-protecting is always safe); the shootdown
// broadcast makes every cached translation notice.
func (parent *AddressSpace) abortFork(child *AddressSpace, mode ForkMode) {
	child.dead = true
	child.vmas.Reset()
	if child.w.Root != nil {
		child.freeTree(child.w.Root)
		child.w.Root = nil
	}
	parent.sd.Broadcast()
	if parent.met.Enabled() {
		parent.met.Robust.ForkAborts.Inc()
	}
	if parent.trc.Enabled() {
		parent.trc.Instant(trace.KindForkAbort, trace.StageNone, trace.ActorApp, uint64(mode), 0)
	}
}

// failFork panics with an injected OOM when the named fork-stage
// failpoint fires. Sites sit strictly at slot boundaries — before the
// slot's table allocation, never between taking references and
// committing them — so the rollback invariant (every committed slot is
// fully consistent) holds for injected failures exactly as for real
// ones.
func (as *AddressSpace) failInject(fp *failpoint.Registry, name string) {
	if fp.Enabled() && fp.FireAs(name, as.tenantID) {
		panic(errInjected)
	}
}

// copyPMDRangeClassic copies the PMD slots [lo, hi) from src to dst —
// the unit of work one classic-fork task performs (actor names the
// goroutine running it). Each leaf goes through copyLeafLocked, the same
// whole-table copy a table split performs, which batches the per-page
// refcount traffic through GetBatch — per-frame semantics, one profiler
// charge per batch. The destination table's tallies, the tables-copied
// metric, and the upper-walk profile charge are likewise applied once
// per range instead of once per slot; the flush runs deferred so a
// mid-range allocation panic still leaves dst's tallies consistent for
// the rollback's teardown.
func (as *AddressSpace) copyPMDRangeClassic(src, dst *pagetable.Table, lo, hi int, child *AddressSpace, actor int32) {
	var rangeStart time.Time
	var req uint64
	if as.trc.Enabled() {
		rangeStart = time.Now()
		req = as.curReq.Load()
	}
	defer as.trc.SpanReq(trace.KindForkStage, trace.StageRefcount, actor, rangeStart, uint64(lo), uint64(hi), req)
	fp := as.alloc.Failpoints()
	var d pagetable.TallyDelta
	var copied, walked uint64
	defer func() {
		dst.FlushTally(d)
		if walked != 0 {
			as.prof.Charge(profile.UpperWalk, walked)
		}
		if copied != 0 && as.met.Enabled() {
			as.met.Fork.TablesCopied.Add(copied)
		}
	}()
	for i := lo; i < hi; i++ {
		e := src.Entry(i)
		if !e.Present() {
			continue
		}
		walked++
		if e.Huge() {
			as.copyHugeEntry(src, dst, i, e, child)
			continue
		}
		leaf := src.Child(i)
		if leaf == nil {
			continue
		}
		as.failInject(fp, failpoint.ForkRefcount)
		newLeaf := pagetable.NewTableFor(as.alloc, addr.PTE, child.charger)
		leaf.Lock()
		n := as.copyLeafLocked(newLeaf, leaf, child)
		leaf.Unlock()
		as.prof.Charge(profile.CopyOnePTE, uint64(n))
		// Install the child slot writable at the PMD level in one entry
		// store: under classic fork per-PTE bits govern permissions, so
		// the upper levels must not mask them.
		dst.SetChildDeferTally(i, newLeaf,
			src.Entry(i).With(pagetable.FlagWritable|pagetable.FlagUser), &d)
		copied++
	}
}

// copyHugeEntry applies COW to a 2 MiB PMD mapping in both parent and
// child: the "fork with huge pages" configuration of Figures 4 and 7.
func (as *AddressSpace) copyHugeEntry(src, dst *pagetable.Table, i int, e pagetable.Entry, child *AddressSpace) {
	// Copying a huge PMD entry takes the table lock (Linux's
	// copy_huge_pmd acquires the PMD spinlocks to fence THP
	// conversions) — one of the costs §5.2.2 notes on-demand-fork
	// avoids.
	src.Lock()
	defer src.Unlock()
	e = src.Entry(i)
	if e.Writable() {
		e = e.Without(pagetable.FlagWritable | pagetable.FlagDirty).With(pagetable.FlagCOW)
		src.SetEntry(i, e)
	}
	dst.SetEntry(i, e)
	as.alloc.Get(e.Frame())
	if m := as.trk(); m != nil {
		m.HugeMapped(e.Frame(), dst, i, child)
	}
}

// copyTreeOnDemand duplicates only the upper levels of the hierarchy
// (§3.1): at the PMD level, each present slot that points to a
// last-level table is shared with the child — one share-counter
// increment and one cleared writable bit replace 512 entry copies and
// 512 page reference increments.
func (as *AddressSpace) copyTreeOnDemand(src, dst *pagetable.Table, child *AddressSpace, opts ForkOptions) {
	if src.Level == addr.PMD {
		as.sharePMDLeaves(src, dst, child, opts)
		return
	}
	fp := as.alloc.Failpoints()
	for i := 0; i < addr.EntriesPerTable; i++ {
		childTable := src.Child(i)
		if childTable == nil {
			continue
		}
		as.prof.Charge(profile.UpperWalk, 1)
		if opts.ShareHugePMD && childTable.Level == addr.PMD && hugeOnly(childTable) {
			as.sharePMDTable(src, dst, i, childTable, child)
			continue
		}
		as.failInject(fp, failpoint.ForkWalk)
		newTable := pagetable.NewTableFor(as.alloc, childTable.Level, child.charger)
		dst.SetChild(i, newTable, src.Entry(i))
		as.copyTreeOnDemand(childTable, newTable, child, opts)
	}
}

// sharePMDLeaves shares the last-level tables of one PMD table with the
// child. Like the classic range copy, it batches the child table's
// tallies, the tables-shared metric, and the upper-walk profile charge
// per table; the deferred flush keeps dst consistent across a
// mid-table abort.
func (as *AddressSpace) sharePMDLeaves(src, dst *pagetable.Table, child *AddressSpace, opts ForkOptions) {
	var rangeStart time.Time
	var req uint64
	if as.trc.Enabled() {
		rangeStart = time.Now()
		req = as.curReq.Load()
	}
	defer as.trc.SpanReq(trace.KindForkStage, trace.StageShare, trace.ActorApp, rangeStart, 0, addr.EntriesPerTable, req)
	fp := as.alloc.Failpoints()
	var d pagetable.TallyDelta
	var nShared, walked uint64
	defer func() {
		dst.FlushTally(d)
		if walked != 0 {
			as.prof.Charge(profile.UpperWalk, walked)
		}
		if nShared != 0 && as.met.Enabled() {
			as.met.Fork.TablesShared.Add(nShared)
		}
	}()
	for i := 0; i < addr.EntriesPerTable; i++ {
		e := src.Entry(i)
		if !e.Present() {
			continue
		}
		walked++
		as.failInject(fp, failpoint.ForkShare)
		if e.Huge() {
			// The implementation supports 4 KiB pages (§4, "Huge Page
			// Support"); huge mappings fall back to the classic COW of
			// the PMD entry, which is already table-free.
			as.copyHugeEntry(src, dst, i, e, child)
			continue
		}
		leaf := src.Child(i)
		if leaf == nil {
			continue
		}
		as.alloc.PTShareGet(leaf.Frame)
		if m := as.trk(); m != nil {
			// One O(1) ownership record per shared table preserves the
			// engine's O(#tables) fork cost.
			m.OwnerAdd(leaf, child)
		}
		if opts.EagerPageRefs || opts.PerPTEProtect {
			as.ablationLeafPass(leaf, opts)
		}
		// Clear the writable bit in the PMD entries of both parent
		// and child: one hierarchical-attribute update write-protects
		// the whole 2 MiB region (§3.2).
		shared := e.Without(pagetable.FlagWritable)
		src.SetEntry(i, shared)
		dst.SetChildDeferTally(i, leaf, shared, &d)
		nShared++
	}
}

// sharePMDTable applies the §4 extension at slot i of a PUD table:
// share the whole PMD table describing 2 MiB pages, write-protecting
// its 1 GiB region via the PUD entry.
func (as *AddressSpace) sharePMDTable(src, dst *pagetable.Table, i int, childTable *pagetable.Table, child *AddressSpace) {
	as.alloc.PTShareGet(childTable.Frame)
	if m := as.trk(); m != nil {
		m.OwnerAdd(childTable, child)
	}
	shared := src.Entry(i).Without(pagetable.FlagWritable)
	src.SetEntry(i, shared)
	dst.SetChild(i, childTable, shared)
	if as.met.Enabled() {
		as.met.Fork.PMDTablesShared.Inc()
	}
}

// hugeOnly reports whether every present entry of a PMD table maps a
// 2 MiB page directly (and at least one does), making the table
// eligible for whole-table sharing. It reads the table's maintained
// present/huge tallies, so it is O(1) instead of a 512-entry rescan.
func hugeOnly(t *pagetable.Table) bool {
	present := t.PresentCount()
	return present > 0 && t.HugeCount() == present
}

// ablationLeafPass performs the extra per-entry work the ablation
// options request, without changing the design's semantics.
func (as *AddressSpace) ablationLeafPass(leaf *pagetable.Table, opts ForkOptions) {
	leaf.Lock()
	for li := 0; li < addr.EntriesPerTable; li++ {
		e := leaf.Entry(li)
		if !e.Present() {
			continue
		}
		if opts.EagerPageRefs {
			as.alloc.TouchRef(e.Frame())
		}
		if opts.PerPTEProtect && e.Writable() {
			// Semantically redundant (the PMD bit already protects the
			// region) but measures the per-entry downgrade cost. Marking
			// COW here is safe: the split path treats COW entries
			// identically.
			leaf.SetEntry(li, e.Without(pagetable.FlagWritable|pagetable.FlagDirty).
				With(pagetable.FlagCOW))
		}
	}
	leaf.Unlock()
}
