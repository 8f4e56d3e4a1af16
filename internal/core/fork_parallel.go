package core

// Classic fork engine: one walk of the upper levels duplicates PGD/PUD
// tables and collects PMD-slot-range tasks; execute then copies the
// ranges, on the forking goroutine alone or fanned out to a bounded,
// reusable worker pool, the way Mitosis parallelizes page-table work
// across the radix tree's upper levels. On-demand fork never fans out:
// its per-table work is one share-count bump (copyTreeOnDemand), and
// handing that to more cores measured slower (DESIGN.md §7).
//
// Data-race freedom comes from ownership, not locking: every task
// writes a disjoint slot range of a freshly allocated destination
// table nobody else can reach (distinct array indices of private
// tables), reads of source entries are atomic words, source leaf
// tables are copied under their own locks exactly as in a table split,
// and all profile/refcount traffic is atomic. The WaitGroup in
// forkRun.execute gives the caller a happens-before edge over
// everything the workers wrote.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/profile"
	"repro/internal/trace"
)

// forkTask is one unit of classic-fork copy work: a slot range of one
// source PMD table, copied into the corresponding slots of the
// destination table. Tasks are plain values inside a pooled run — no
// per-task closure — so a fork allocates nothing once the run pool is
// warm.
type forkTask struct {
	src, dst *pagetable.Table
	lo, hi   int
}

// forkRun is the shared state of one classic fork: the task list, the
// work-stealing cursor, and the abort/join machinery. Pool workers
// receive the run itself and pull tasks from it, so a fork hands one
// pointer per helper to the pool instead of one closure per task.
type forkRun struct {
	as    *AddressSpace
	child *AddressSpace
	tasks []forkTask

	next       atomic.Int64
	aborted    atomic.Bool
	firstPanic atomic.Pointer[any]
	wg         sync.WaitGroup
}

// forkRunPool recycles runs (and their task slices) across forks.
var forkRunPool = sync.Pool{New: func() any { return new(forkRun) }}

// getForkRun returns a reset run for one fork invocation.
func getForkRun(as, child *AddressSpace) *forkRun {
	r := forkRunPool.Get().(*forkRun)
	r.as, r.child = as, child
	r.tasks = r.tasks[:0]
	r.next.Store(0)
	r.aborted.Store(false)
	r.firstPanic.Store(nil)
	return r
}

// release drops the run's space references and parks it for reuse. Not
// called when the fork unwinds on an allocation failure — an aborted
// fork's run is left to the garbage collector rather than threading
// cleanup through the unwind.
func (r *forkRun) release() {
	r.as, r.child = nil, nil
	forkRunPool.Put(r)
}

// classicChunkSlots is the task size, in PMD slots, of a classic fork
// that may fan out. Each slot costs 512 PTE copies plus their refcount
// traffic, so modest chunks (16 slots = 32 MiB) balance load without
// swamping the task list.
const classicChunkSlots = 16

// fanOutMinTasks is the number of chunk tasks a classic fork must
// collect before it fans out: 4 chunks of 16 slots, 128 MiB of mapped
// memory. Smaller address spaces run sequentially so they don't pay
// goroutine handoff for microseconds of work. Tests lower it to reach
// the pool with small spaces.
var fanOutMinTasks = 4

// The worker pool is process-wide, sized to GOMAXPROCS, and reusable
// across forks — fork latency must not include goroutine spawning. It
// starts on the first fork that fans out. Workers never submit runs
// themselves, and submission never blocks (see forkRun.execute), so
// the pool cannot deadlock however many forks run concurrently.
var (
	forkPoolOnce sync.Once
	forkPoolCh   chan *forkRun
)

func forkPoolInit() {
	forkPoolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		forkPoolCh = make(chan *forkRun)
		for i := 0; i < n; i++ {
			go func(i int) {
				// The pprof label makes CPU samples of the copy loops
				// attributable per worker (`go tool pprof` → tag filter).
				labels := pprof.Labels("odf", "fork-worker", "worker", strconv.Itoa(i))
				actor := trace.ActorForkWorker(i + 1)
				pprof.Do(context.Background(), labels, func(context.Context) {
					for r := range forkPoolCh {
						r.participate(actor)
						r.wg.Done()
					}
				})
			}(i)
		}
	})
}

// forkClassic copies parent's paging hierarchy into child with up to
// workers participants and returns the number of tasks it fanned out
// (0 when it ran sequentially). A sequential fork's tasks are whole
// PMD tables, so it does one range copy per table.
func (as *AddressSpace) forkClassic(child *AddressSpace, workers int) int {
	chunk := addr.EntriesPerTable
	if workers > 1 {
		chunk = classicChunkSlots
	}
	r := getForkRun(as, child)
	r.tasks = as.collectClassicTasks(as.w.Root, child.w.Root, child, chunk, r.tasks)
	nTasks := len(r.tasks)
	if workers <= 1 || nTasks < fanOutMinTasks {
		workers, nTasks = 1, 0
	} else if m := as.met; m.Enabled() {
		m.Fork.ParallelForks.Inc()
		m.Fork.ParallelTasks.Add(uint64(nTasks))
	}
	r.execute(workers)
	r.release()
	return nTasks
}

// participate claims and runs tasks until the list is drained or the
// run aborts. A task that panics (a mid-copy allocation failure, real
// or injected) must not crash a pool worker: the panic is trapped, the
// remaining participants stop claiming tasks, and execute re-raises
// the first panic value on the forking goroutine after the join.
func (r *forkRun) participate(actor int32) {
	defer func() {
		if p := recover(); p != nil {
			v := p
			r.firstPanic.CompareAndSwap(nil, &v)
			r.aborted.Store(true)
		}
	}()
	for !r.aborted.Load() {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.tasks) {
			return
		}
		t := &r.tasks[i]
		r.as.copyPMDRangeClassic(t.src, t.dst, t.lo, t.hi, r.child, actor)
	}
}

// execute runs the collected tasks with up to par participants: the
// caller plus at most par-1 pool workers. With par ≤ 1 the caller runs
// them in order and a task's panic unwinds straight to the fork's
// rollback boundary. Otherwise tasks are claimed with an atomic cursor
// (work stealing), so uneven chunks self-balance. If the pool is
// saturated by concurrent forks, submission falls through and the
// caller simply runs the remaining work itself — slower, never stuck.
// The WaitGroup join is unconditional, so no worker can still be
// writing into the child when a rollback starts; only after ALL
// participants have quiesced is the first panic re-raised on the
// forking goroutine, where ForkWithOptions' transaction boundary
// unwinds the partial child.
func (r *forkRun) execute(par int) {
	if par <= 1 {
		for i := range r.tasks {
			t := &r.tasks[i]
			r.as.copyPMDRangeClassic(t.src, t.dst, t.lo, t.hi, r.child, trace.ActorApp)
		}
		return
	}
	forkPoolInit()
	for i := 1; i < min(par, len(r.tasks)); i++ {
		r.wg.Add(1)
		select {
		case forkPoolCh <- r:
		default:
			r.wg.Done()
		}
	}
	r.participate(trace.ActorApp)
	r.wg.Wait()
	if p := r.firstPanic.Load(); p != nil {
		panic(*p)
	}
}

// appendRangeTasks splits a PMD table into slot-range tasks of chunk
// slots, skipping chunks with no present entries.
func appendRangeTasks(tasks []forkTask, src, dst *pagetable.Table, chunk int) []forkTask {
	if src.PresentCount() == 0 {
		return tasks
	}
	for lo := 0; lo < addr.EntriesPerTable; lo += chunk {
		hi := min(lo+chunk, addr.EntriesPerTable)
		for i := lo; i < hi; i++ {
			if src.Entry(i).Present() {
				tasks = append(tasks, forkTask{src: src, dst: dst, lo: lo, hi: hi})
				break
			}
		}
	}
	return tasks
}

// collectClassicTasks duplicates the paging hierarchy's upper levels
// the way Linux's copy_page_range does — a fresh table at every level —
// and appends one task per chunk of PMD slots. Each task owns its
// destination slot range; copyPMDRangeClassic does the per-page work,
// the Figure 3 hot path.
func (as *AddressSpace) collectClassicTasks(src, dst *pagetable.Table, child *AddressSpace, chunk int, tasks []forkTask) []forkTask {
	if src.Level == addr.PMD {
		return appendRangeTasks(tasks, src, dst, chunk)
	}
	fp := as.alloc.Failpoints()
	for i := 0; i < addr.EntriesPerTable; i++ {
		childTable := src.Child(i)
		if childTable == nil {
			continue
		}
		as.prof.Charge(profile.UpperWalk, 1)
		as.failInject(fp, failpoint.ForkWalk)
		newTable := pagetable.NewTableFor(as.alloc, childTable.Level, child.charger)
		dst.SetChild(i, newTable, src.Entry(i))
		tasks = as.collectClassicTasks(childTable, newTable, child, chunk, tasks)
	}
	return tasks
}
