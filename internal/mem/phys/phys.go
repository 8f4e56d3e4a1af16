// Package phys simulates the physical memory layer of the kernel: a
// frame allocator and the per-frame metadata array that Linux calls
// mem_map (an array of struct page).
//
// Everything the paper measures at fork time bottoms out here: classic
// fork performs one compound-page resolution and one atomic reference
// count increment per mapped 4 KiB frame (the two Figure 3 hotspots),
// while on-demand-fork touches only one counter per 2 MiB last-level
// table. The allocator therefore keeps metadata in a single global
// arena so that concurrent fork instances contend on it the same way
// concurrent kernels contend on struct page cachelines (Figure 2).
//
// Frame data is materialized lazily: a frame can be "allocated and
// mapped" without its 4 KiB buffer existing, in which case its logical
// content is all zeroes. This lets multi-GiB simulated address spaces
// run with metadata-only host cost until pages are actually written.
package phys

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/bulk"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Frame identifies a physical 4 KiB frame. Frame 0 is never allocated,
// so the zero value means "no frame".
type Frame uint64

// NoFrame is the invalid frame number.
const NoFrame Frame = 0

// Valid reports whether f refers to an allocated frame number.
func (f Frame) Valid() bool { return f != NoFrame }

// Page flag bits stored in PageInfo.flags.
const (
	flagCompoundHead uint8 = 1 << iota
	flagCompoundTail
	flagPageTable
	flagAllocated
)

// HugeOrder is the compound-page order of a 2 MiB huge page
// (2^9 = 512 base frames).
const HugeOrder = 9

// PageInfo is the simulated struct page. One exists per physical frame.
//
// As in the paper's implementation (§4, "Memory Usage"), the share
// counter of a last-level page table is stored in a field that is
// unused for that page type — here ptShared doubles inside the same
// struct rather than growing it with fork-specific state.
type PageInfo struct {
	refcount  atomic.Int32 // users of this frame (mapcount folded in)
	ptShared  atomic.Int32 // union: share count when frame holds a PTE table
	flags     uint8        // guarded by the allocator lock for alloc state
	order     uint8        // compound order (head pages only)
	freeOrder int8         // buddy state: 0 = not free, else block order+1
	freeIdx   uint32       // buddy state: position in freeLists[freeOrder-1]
	head      Frame        // compound head (tail pages only)
	charger   FrameCharger // tenant account the frame is charged to (nil = none)
	data      []byte       // lazily materialized 4 KiB payload; nil = zeroes
	dataMu    sync.Mutex   // guards lazy materialization of data
}

// Allocator is the simulated physical memory manager. It hands out
// frames, tracks their struct page metadata, and implements the
// reference counting protocol used by all three fork engines.
type Allocator struct {
	mu sync.Mutex
	// chunks is the mem_map, grown in fixed-size chunks. It is a
	// copy-on-append snapshot: info() loads it without any lock, and
	// ensure() (under mu) publishes a grown copy atomically.
	chunks    atomic.Pointer[[][]PageInfo]
	next      Frame        // next never-used frame number (under mu)
	buddy     buddy        // power-of-two free lists (buddy.go)
	shards    []shard      // per-CPU-style frame caches (shard.go)
	limit     atomic.Int64 // max live base frames (0 = unlimited)
	allocated atomic.Int64 // currently allocated base frames
	peak      atomic.Int64 // high-water mark of allocated
	totalOps  atomic.Uint64
	prof      *profile.Profiler
	met       atomic.Pointer[metrics.Registry]
	trc       atomic.Pointer[trace.Tracer]
	fail      atomic.Pointer[failpoint.Registry]

	// Reclaim integration. lowWater is the free-frame level below which
	// successful reservations nudge the background reclaimer awake; the
	// reclaimer itself (internal/mem/reclaim) also runs synchronously
	// when a reservation fails, before ErrNoMemory is surfaced.
	rec      atomic.Pointer[reclaimerHolder]
	lowWater atomic.Int64
}

// Reclaimer is the memory-pressure escape valve the reclaim subsystem
// plugs into the allocator.
type Reclaimer interface {
	// ReclaimFrames synchronously tries to free at least need base
	// frames (direct reclaim). It reports whether any progress was made.
	ReclaimFrames(need int64) bool
	// FrameFreed notifies that frame f returned to the free lists, so
	// reclaim bookkeeping (LRU nodes, reverse mappings) can be purged.
	FrameFreed(f Frame)
	// LowMemory notifies that free frames dropped below the configured
	// low watermark (non-blocking; wakes the background reclaimer).
	LowMemory()
}

type reclaimerHolder struct{ r Reclaimer }

// SetReclaimer attaches the reclaim subsystem. Pass nil to detach.
func (a *Allocator) SetReclaimer(r Reclaimer) {
	if r == nil {
		a.rec.Store(nil)
		return
	}
	a.rec.Store(&reclaimerHolder{r: r})
}

// ReclaimerHook returns the attached reclaimer (nil when none).
func (a *Allocator) ReclaimerHook() Reclaimer {
	if h := a.rec.Load(); h != nil {
		return h.r
	}
	return nil
}

// SetLowWatermark sets the free-frame level (relative to the limit)
// below which reservations call the reclaimer's LowMemory hook.
// 0 disables the nudge.
func (a *Allocator) SetLowWatermark(frames int64) { a.lowWater.Store(frames) }

const chunkSize = 1 << 16 // PageInfos per arena chunk (64 Ki frames = 256 MiB)

// ErrNoMemory is returned when the allocator refuses an allocation
// (only possible when a frame limit is configured).
var ErrNoMemory = errors.New("phys: out of memory")

// SetLimit caps the number of live base frames; 0 removes the cap.
// TryAlloc fails with ErrNoMemory beyond the cap — the hook for
// exercising the low-memory robustness behaviour of the paper's §4.
func (a *Allocator) SetLimit(frames int64) {
	a.limit.Store(frames)
}

// NewAllocator returns an empty allocator. The profiler may be nil.
func NewAllocator(prof *profile.Profiler) *Allocator {
	a := &Allocator{next: 1, prof: prof, shards: newShards()}
	empty := make([][]PageInfo, 0)
	a.chunks.Store(&empty)
	return a
}

// Profiler returns the profiler charged by this allocator (may be nil).
func (a *Allocator) Profiler() *profile.Profiler { return a.prof }

// SetMetrics attaches a metrics registry. The kernel calls this once
// at boot; allocators built bare (unit tests) never pay for it because
// a nil registry reports disabled.
func (a *Allocator) SetMetrics(m *metrics.Registry) { a.met.Store(m) }

// Metrics returns the attached registry (may be nil). Layers built on
// top of the allocator (address spaces) inherit their registry from
// here, so the whole memory stack shares one instrument tree.
func (a *Allocator) Metrics() *metrics.Registry { return a.met.Load() }

// SetTracer attaches the flight recorder, mirroring SetMetrics: the
// kernel calls it once at boot, and bare allocators never pay for it
// because the nil tracer reports disabled.
func (a *Allocator) SetTracer(t *trace.Tracer) { a.trc.Store(t) }

// Tracer returns the attached flight recorder (may be nil). Address
// spaces and the reclaimer inherit their tracer from here, like the
// metrics registry.
func (a *Allocator) Tracer() *trace.Tracer { return a.trc.Load() }

// SetFailpoints attaches the fault-injection registry, following the
// same pattern as SetMetrics/SetTracer: one atomic pointer, attached
// once at kernel boot, and a detached (nil) registry costs nothing on
// the hot paths because Enabled() on nil reports false.
func (a *Allocator) SetFailpoints(r *failpoint.Registry) { a.fail.Store(r) }

// Failpoints returns the attached fault-injection registry (may be
// nil). Address spaces and the reclaimer inherit it from here.
func (a *Allocator) Failpoints() *failpoint.Registry { return a.fail.Load() }

// info returns the PageInfo for f, which must be a frame number this
// allocator has issued. It is lock-free: the chunk table snapshot is
// immutable once published, and any caller holding a valid frame
// number synchronized (via the lock that handed the frame out) with
// the ensure() that made it addressable.
func (a *Allocator) info(f Frame) *PageInfo {
	chunks := *a.chunks.Load()
	idx := uint64(f)
	return &chunks[idx/chunkSize][idx%chunkSize]
}

// Info exposes frame metadata for tests and diagnostics.
func (a *Allocator) Info(f Frame) *PageInfo {
	if !f.Valid() {
		panic("phys: Info of invalid frame")
	}
	return a.info(f)
}

// ensure grows the arena so frame f is addressable, publishing a new
// chunk-table snapshot. Caller holds mu (growth is serialized; readers
// never block).
func (a *Allocator) ensure(f Frame) {
	need := int(uint64(f)/chunkSize) + 1
	old := *a.chunks.Load()
	if len(old) >= need {
		return
	}
	grown := make([][]PageInfo, need)
	copy(grown, old)
	for i := len(old); i < need; i++ {
		grown[i] = make([]PageInfo, chunkSize)
	}
	a.chunks.Store(&grown)
}

// Alloc allocates one 4 KiB frame with refcount 1. It panics with
// ErrNoMemory wrapped in an OOM panic only never — allocation failure
// is reported by TryAlloc; Alloc itself is infallible unless a frame
// limit is configured, in which case it panics (the simulated OOM
// killer path is exercised through TryAlloc).
func (a *Allocator) Alloc() Frame {
	f, err := a.TryAlloc()
	if err != nil {
		panic(err)
	}
	return f
}

// TryAlloc allocates one 4 KiB frame with refcount 1, returning
// ErrNoMemory when a configured frame limit is exhausted. The fast
// path touches only the caller's shard cache; the buddy core is
// entered once per shardBatch misses.
func (a *Allocator) TryAlloc() (Frame, error) {
	return a.TryAllocFor(nil)
}

// directReclaimRetries bounds how many reclaim-then-retry rounds a
// failing reservation attempts before surfacing ErrNoMemory.
const directReclaimRetries = 3

// reserve charges n base frames against the configured limit, exactly:
// the count is added first and undone on failure, so concurrent
// reservations can never jointly exceed the cap. On failure, an
// attached reclaimer runs synchronously (direct reclaim) and the
// reservation is retried; ErrNoMemory is returned only once reclaim
// stops making progress. Successful reservations that leave fewer than
// the low watermark of free frames nudge the background reclaimer.
func (a *Allocator) reserve(n int64) error {
	cur := a.allocated.Add(n)
	l := a.limit.Load()
	if l > 0 && cur > l {
		a.allocated.Add(-n)
		if r := a.ReclaimerHook(); r != nil {
			for attempt := 0; attempt < directReclaimRetries; attempt++ {
				if !r.ReclaimFrames(n + (cur - l)) {
					break
				}
				cur = a.allocated.Add(n)
				l = a.limit.Load()
				if l <= 0 || cur <= l {
					a.updatePeak(cur)
					return nil
				}
				a.allocated.Add(-n)
			}
		}
		return ErrNoMemory
	}
	a.updatePeak(cur)
	if l > 0 {
		if lw := a.lowWater.Load(); lw > 0 && l-cur < lw {
			if r := a.ReclaimerHook(); r != nil {
				r.LowMemory()
			}
		}
	}
	return nil
}

// TryAllocNoReclaim is TryAlloc without the direct-reclaim retry: a
// limit overrun fails immediately with ErrNoMemory. The reclaim
// subsystem uses it for allocations made while a reclaim pass is in
// flight, where recursing into reclaim would self-deadlock.
func (a *Allocator) TryAllocNoReclaim() (Frame, error) {
	return a.TryAllocNoReclaimFor(nil)
}

// TryAllocPageTableNoReclaim is TryAllocNoReclaim plus the page-table
// flag, for tables built inside a reclaim pass.
func (a *Allocator) TryAllocPageTableNoReclaim() (Frame, error) {
	f, err := a.TryAllocNoReclaim()
	if err != nil {
		return NoFrame, err
	}
	a.info(f).flags |= flagPageTable
	return f, nil
}

// updatePeak raises the high-water mark to cur (CAS max).
func (a *Allocator) updatePeak(cur int64) {
	for {
		p := a.peak.Load()
		if cur <= p || a.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// AllocPageTable allocates a frame to back a page table. Page-table
// frames are flagged so the ptShared union field is meaningful. The
// flag is set before the frame is published, so no lock is needed.
func (a *Allocator) AllocPageTable() Frame {
	f := a.Alloc()
	a.info(f).flags |= flagPageTable
	return f
}

// AllocHuge allocates a 2 MiB compound page: 512 physically contiguous
// frames with a head carrying the compound order and refcount, and
// tails pointing back at the head (mirroring Linux compound pages).
// It returns the head frame.
func (a *Allocator) AllocHuge() Frame {
	return a.AllocHugeFor(nil)
}

// AllocHugeFor is AllocHuge charging all 512 base frames to c
// (nil = unaccounted). The charge rides on the compound head; SplitHuge
// spreads it across the resulting order-0 frames.
func (a *Allocator) AllocHugeFor(c FrameCharger) Frame {
	// Huge allocations have no TryAllocHuge counterpart; every call site
	// sits under a catchOOM boundary, so an injected failure surfaces the
	// same way a real one would — as an ErrNoMemory panic.
	if fp := a.fail.Load(); fp.Enabled() && fp.FireAs(failpoint.PhysAllocHuge, chargerTenant(c)) {
		panic(ErrNoMemory)
	}
	a.mu.Lock()
	// An order-9 buddy block is 512 contiguous, naturally aligned
	// frames. Huge allocations bypass the shard caches (they hold only
	// order-0 frames) and go straight to the buddy core.
	head := a.allocBlock(MaxOrder)
	a.mu.Unlock()
	hp := a.info(head)
	hp.flags = flagAllocated | flagCompoundHead
	hp.order = HugeOrder
	hp.head = NoFrame
	hp.charger = c
	for i := Frame(1); i < 1<<HugeOrder; i++ {
		tp := a.info(head + i)
		tp.flags = flagAllocated | flagCompoundTail
		tp.order = 0
		tp.head = head
		tp.charger = nil
		tp.refcount.Store(0)
		tp.ptShared.Store(0)
	}
	a.updatePeak(a.allocated.Add(1 << HugeOrder))
	if c != nil {
		c.ChargeFrames(1 << HugeOrder)
	}
	if m := a.met.Load(); m.Enabled() {
		m.Alloc.HugeAllocs.Inc()
	}

	hp.refcount.Store(1)
	hp.ptShared.Store(0)
	a.totalOps.Add(1)
	return head
}

// CompoundHead resolves f to the head of its compound page (f itself
// for ordinary pages), charging the cost of the struct page load that
// dominates the paper's Figure 3 profile.
func (a *Allocator) CompoundHead(f Frame) Frame {
	a.prof.Charge(profile.CompoundHead, 1)
	pi := a.info(f)
	if pi.flags&flagCompoundTail != 0 {
		return pi.head
	}
	return f
}

// IsHuge reports whether f is the head of a 2 MiB compound page.
func (a *Allocator) IsHuge(f Frame) bool {
	pi := a.info(f)
	return pi.flags&flagCompoundHead != 0 && pi.order == HugeOrder
}

// IsPageTable reports whether f backs a page table.
func (a *Allocator) IsPageTable(f Frame) bool {
	return a.info(f).flags&flagPageTable != 0
}

// Get increments the reference count of the page containing f,
// resolving compound pages first. This is the classic-fork hot path:
// one compound_head + one atomic increment per mapped PTE.
func (a *Allocator) Get(f Frame) {
	head := a.CompoundHead(f)
	a.prof.Charge(profile.PageRefInc, 1)
	pi := a.info(head)
	if pi.refcount.Add(1) == 2 && pi.charger != nil {
		pi.charger.AdjustShared(1)
	}
}

// GetBatch increments the reference count of every page in frames,
// resolving compound pages, with the profiler charged once per counter
// per batch instead of once per frame. A leaf-table copy (classic fork,
// table split) uses it to amortize the per-page accounting of one table
// into two charges, while keeping eager-ref semantics: every frame still
// receives its compound-head resolution and its own atomic increment, so
// the event counts (the Figure 3 quantities) are identical to
// len(frames) calls of Get.
func (a *Allocator) GetBatch(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	n := uint64(len(frames))
	a.prof.Charge(profile.CompoundHead, n)
	a.prof.Charge(profile.PageRefInc, n)
	// One chunk-table load for the whole batch instead of one per
	// frame; the snapshot is immutable once published (see info).
	chunks := *a.chunks.Load()
	for _, f := range frames {
		pi := &chunks[uint64(f)/chunkSize][uint64(f)%chunkSize]
		if pi.flags&flagCompoundTail != 0 {
			pi = &chunks[uint64(pi.head)/chunkSize][uint64(pi.head)%chunkSize]
		}
		if pi.refcount.Add(1) == 2 && pi.charger != nil {
			pi.charger.AdjustShared(1)
		}
	}
}

// RefCount returns the current reference count of f's compound head.
func (a *Allocator) RefCount(f Frame) int32 {
	pi := a.info(f)
	if pi.flags&flagCompoundTail != 0 {
		pi = a.info(pi.head)
	}
	return pi.refcount.Load()
}

// Put decrements the reference count of the page containing f and
// frees the page when the count reaches zero.
func (a *Allocator) Put(f Frame) {
	head := f
	pi := a.info(f)
	if pi.flags&flagCompoundTail != 0 {
		head = pi.head
		pi = a.info(head)
	}
	a.prof.Charge(profile.PageRefDec, 1)
	// Read the charger while the caller's reference still pins it: once
	// the count drops to one, the holder of that last reference may free
	// the page — and clear the field — at any moment.
	charger := pi.charger
	if n := pi.refcount.Add(-1); n < 1 || n == 1 && charger != nil {
		a.putLast(head, pi, charger, n)
	}
}

// PutBatch drops one reference on every page in frames — to Put what
// GetBatch is to Get, for draining a leaf table: one chunk-table load
// and one profile charge per batch, and for every frame its own
// compound-head resolution, its own atomic decrement, the shared
// accounting and the free at zero, so the event counts equal
// len(frames) calls of Put.
func (a *Allocator) PutBatch(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	a.prof.Charge(profile.PageRefDec, uint64(len(frames)))
	chunks := *a.chunks.Load()
	for _, f := range frames {
		head := f
		pi := &chunks[uint64(f)/chunkSize][uint64(f)%chunkSize]
		if pi.flags&flagCompoundTail != 0 {
			head = pi.head
			pi = &chunks[uint64(head)/chunkSize][uint64(head)%chunkSize]
		}
		charger := pi.charger // before the decrement, as in Put
		if n := pi.refcount.Add(-1); n < 1 || n == 1 && charger != nil {
			a.putLast(head, pi, charger, n)
		}
	}
}

// putLast finishes a put that did more than leave the page shared (or
// an uncharged page exclusive): at n == 1 a charged page is exclusive
// again, at n == 0 the page is free.
func (a *Allocator) putLast(head Frame, pi *PageInfo, charger FrameCharger, n int32) {
	switch {
	case n == 1:
		charger.AdjustShared(-1)
	case n == 0:
		a.release(head, pi)
	default:
		panic(fmt.Sprintf("phys: refcount of frame %d went negative", head))
	}
}

// release returns a zero-referenced page to the free lists. The caller
// just dropped the last reference, so the page's metadata is owned
// here; order-0 frames go back through the shard caches, compound
// pages straight to the buddy core.
func (a *Allocator) release(head Frame, pi *PageInfo) {
	pi.dataMu.Lock()
	pi.data = nil
	pi.dataMu.Unlock()

	if pi.flags&flagAllocated == 0 {
		panic(fmt.Sprintf("phys: double free of frame %d", head))
	}
	charger := pi.charger
	pi.charger = nil
	if pi.flags&flagCompoundHead != 0 {
		for i := Frame(1); i < 1<<HugeOrder; i++ {
			tp := a.info(head + i)
			tp.flags = 0
			tp.charger = nil
			tp.dataMu.Lock()
			tp.data = nil
			tp.dataMu.Unlock()
		}
		pi.flags = 0
		a.mu.Lock()
		a.freeBlock(head, MaxOrder)
		a.mu.Unlock()
		a.allocated.Add(-(1 << HugeOrder))
		if charger != nil {
			charger.UnchargeFrames(1 << HugeOrder)
		}
	} else {
		pi.flags = 0
		a.freeFrame(head)
		a.allocated.Add(-1)
		if charger != nil {
			charger.UnchargeFrames(1)
		}
	}
	if r := a.ReclaimerHook(); r != nil {
		r.FrameFreed(head)
	}
}

// SplitHuge converts a 2 MiB compound page with reference count 1 into
// 512 independent order-0 frames, metadata only: no data moves, no
// frames are allocated or freed, and the accounting total is unchanged
// (the compound already counted as 512 base frames). Every resulting
// frame — head included — comes out with reference count 1, matching
// the one-reference-per-present-entry rule for the 512 PTEs the caller
// installs in its place. The reclaim subsystem uses this to make cold
// huge pages evictable at 4 KiB granularity.
func (a *Allocator) SplitHuge(head Frame) {
	a.mu.Lock()
	defer a.mu.Unlock()
	hp := a.info(head)
	if hp.flags&flagCompoundHead == 0 || hp.order != HugeOrder {
		panic(fmt.Sprintf("phys: SplitHuge of non-compound frame %d", head))
	}
	if n := hp.refcount.Load(); n != 1 {
		panic(fmt.Sprintf("phys: SplitHuge of frame %d with refcount %d", head, n))
	}
	hp.flags = flagAllocated
	hp.order = 0
	for i := Frame(1); i < 1<<HugeOrder; i++ {
		tp := a.info(head + i)
		tp.flags = flagAllocated
		tp.order = 0
		tp.head = NoFrame
		// Each resulting frame keeps the compound's tenant account: the
		// head was charged for all 512, and from here on each frame
		// uncharges one when it is released.
		tp.charger = hp.charger
		tp.refcount.Store(1)
		tp.ptShared.Store(0)
	}
}

// PTShareGet atomically increments the page-table share counter stored
// in the frame's struct page union and returns the new value. Used by
// on-demand-fork in place of per-PTE reference counting.
func (a *Allocator) PTShareGet(f Frame) int32 {
	a.prof.Charge(profile.PTShareInc, 1)
	return a.info(f).ptShared.Add(1)
}

// PTSharePut atomically decrements the share counter and returns the
// new value.
func (a *Allocator) PTSharePut(f Frame) int32 {
	n := a.info(f).ptShared.Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("phys: PT share count of frame %d went negative", f))
	}
	return n
}

// PTShareCount returns the current share counter of a page-table frame.
func (a *Allocator) PTShareCount(f Frame) int32 {
	return a.info(f).ptShared.Load()
}

// PTShareInit sets the share counter of a freshly allocated page-table
// frame (the "constructor" of §3.5 initializes it to one).
func (a *Allocator) PTShareInit(f Frame, n int32) {
	a.info(f).ptShared.Store(n)
}

// Data returns the 4 KiB payload of an ordinary frame, materializing it
// (zero-filled) on first touch.
func (a *Allocator) Data(f Frame) []byte {
	pi := a.info(f)
	pi.dataMu.Lock()
	if pi.data == nil {
		pi.data = make([]byte, addr.PageSize)
	}
	d := pi.data
	pi.dataMu.Unlock()
	return d
}

// DataIfPresent returns the frame's payload, or nil when the frame is
// still logically zero-filled. Callers must treat nil as zeroes.
func (a *Allocator) DataIfPresent(f Frame) []byte {
	pi := a.info(f)
	pi.dataMu.Lock()
	d := pi.data
	pi.dataMu.Unlock()
	return d
}

// PageIsZero reports whether f's content is logically all zeroes —
// either never materialized, or materialized but holding only zero
// bytes. The word-at-a-time scan bails on the first nonzero lane, so
// the common nonzero page costs one cache line of reads.
func (a *Allocator) PageIsZero(f Frame) bool {
	d := a.DataIfPresent(f)
	return d == nil || bulk.IsZeroPage(d)
}

// CopyPage copies the 4 KiB content of src into dst and reports
// whether any bytes were physically moved. When the source is
// logically zero (never materialized, or materialized all-zero) the
// copy is elided: the destination is left — or returned to — its
// unmaterialized state, so the fault path skips both the 4 KiB
// allocation and the clearing the old implementation paid for
// zero-page COW. The profile counter still counts one page_copy event
// either way, keeping the Figure 3 event counts equal to the number of
// COW faults that requested a copy.
func (a *Allocator) CopyPage(dst, src Frame) bool {
	a.prof.Charge(profile.PageCopy, 1)
	s := a.DataIfPresent(src)
	if s == nil || bulk.IsZeroPage(s) {
		// dst must read back as zeroes; only pay for that when it has
		// stale bytes to hide.
		pi := a.info(dst)
		pi.dataMu.Lock()
		pi.data = nil
		pi.dataMu.Unlock()
		return false
	}
	bulk.CopyPage(a.Data(dst), s)
	return true
}

// CopyHugePage copies the 2 MiB content of the compound page headed at
// src into the compound page headed at dst, frame by frame — the 512×
// data-copy cost the paper attributes to huge-page COW faults. It
// returns the number of subpages physically copied; the remainder were
// zero-elided by CopyPage.
func (a *Allocator) CopyHugePage(dst, src Frame) int {
	copied := 0
	for i := Frame(0); i < 1<<HugeOrder; i++ {
		if a.CopyPage(dst+i, src+i) {
			copied++
		}
	}
	return copied
}

// Allocated returns the number of base frames currently allocated.
func (a *Allocator) Allocated() int64 { return a.allocated.Load() }

// Limit returns the configured frame cap (0 = unlimited).
func (a *Allocator) Limit() int64 { return a.limit.Load() }

// Peak returns the high-water mark of allocated base frames.
func (a *Allocator) Peak() int64 { return a.peak.Load() }

// Stats summarizes allocator state for reports and leak checks.
type Stats struct {
	Allocated int64 // live base frames
	Peak      int64 // maximum live base frames observed
	Extent    int64 // frame numbers ever issued
}

// Stats returns a snapshot of allocator statistics.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Allocated: a.allocated.Load(),
		Peak:      a.peak.Load(),
		Extent:    int64(a.next - 1),
	}
}

// TouchRef performs the cost of a classic-fork page reference operation
// (compound-head resolution plus one atomic read-modify-write on the
// reference counter) without changing the count. The eager-refcount
// ablation uses it to price the work on-demand-fork's table-based
// accounting (§3.6) avoids.
func (a *Allocator) TouchRef(f Frame) {
	head := a.CompoundHead(f)
	a.prof.Charge(profile.PageRefInc, 1)
	a.info(head).refcount.Add(0)
}
