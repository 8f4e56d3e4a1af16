// Package reclaim implements the memory reclaim subsystem: per-frame
// LRU lists with second-chance aging, a reverse map from frames to the
// page-table entries that map them, swap-out of cold anonymous pages to
// a pluggable backing store, and a kswapd-style background reclaimer
// driven by low/high watermarks on the frame allocator.
//
// Without this layer the simulated allocator's frame limit is a cliff:
// the first allocation past it is an out-of-memory error. With it, the
// limit behaves like physical RAM in a real kernel — pressure first
// wakes the background reclaimer, then triggers synchronous direct
// reclaim from the allocating path, and only when eviction can free
// nothing does the OOM error surface.
//
// # Locking
//
// The manager observes a strict order: address-space mutexes (acquired
// by TryLock in ascending ReclaimID order) → page-table locks →
// manager.mu. Bookkeeping hooks are called from code already holding
// some owner's address-space mutex (and possibly a table lock), and
// take manager.mu innermost. Eviction inverts the flow — it starts from
// the manager — so it never *blocks* on an address-space mutex: it
// snapshots a candidate under manager.mu, drops the lock, TryLocks
// every owning space, and revalidates the snapshot before touching any
// PTE. Any concurrent change (a fault, a fork, an unmap) either holds
// an owner's mutex (so the TryLock fails) or happened before the
// revalidation (which then fails). Either way the candidate is simply
// put back and eviction moves on.
package reclaim

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/mem/phys"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Swap I/O failure classes. A store operation that keeps failing after
// the bounded retries surfaces as ErrSwapIO from the faulting access
// and flips the manager into degraded mode (no further swap-out); a
// payload whose checksum no longer matches what was written surfaces
// as ErrSwapCorrupt. Both are matched with errors.Is.
var (
	ErrSwapIO      = errors.New("reclaim: swap I/O failure")
	ErrSwapCorrupt = errors.New("reclaim: swap payload corrupt")
)

// Swap I/O retry tuning: a failing store operation is retried a few
// times with doubling backoff (50µs, 100µs, 200µs) before the failure
// is surfaced — transient device hiccups resolve, persistent faults
// degrade quickly.
const (
	swapIOAttempts  = 4
	swapBackoffBase = 50 * time.Microsecond
)

// Space is the view the reclaimer has of an address space: just enough
// to exclude its page-table mutators during eviction and to invalidate
// its TLB afterwards. core.AddressSpace implements it.
type Space interface {
	// ReclaimID is a process-lifetime-unique ID used only to sort lock
	// acquisition order.
	ReclaimID() uint64
	// TryLockForReclaim attempts to take the space's mutex without
	// blocking.
	TryLockForReclaim() bool
	// UnlockForReclaim releases the mutex taken by TryLockForReclaim.
	UnlockForReclaim()
	// ReclaimFlushTLB drops the space's cached translations. Called with
	// the space's mutex held (by TryLockForReclaim).
	ReclaimFlushTLB()
}

// mapping is one reverse-map entry: table entry idx of t maps the frame.
// No virtual address is kept — eviction invalidates each owner's whole
// TLB instead of single lines, which keeps the rmap valid under
// on-demand-fork's table sharing (a shared table has no single vaddr).
type mapping struct {
	table *pagetable.Table
	idx   int
}

// frameNode is the per-tracked-frame reclaim state: its reverse
// mappings and its position on the LRU lists.
type frameNode struct {
	frame    phys.Frame
	huge     bool // frame is a 2 MiB compound head mapped by a PMD entry
	mappings []mapping

	prev, next *frameNode
	list       int
	part       *partition // LRU partition the node lives on
}

// partition is one tenant's slice of the LRU: frames charged to the
// same account age together, so eviction can target a specific tenant
// without scanning everyone else's pages. The default partition
// (c == nil) holds uncharged frames.
type partition struct {
	lru
	c phys.FrameCharger
}

// overshooter is implemented by tenant accounts (tenant.Tenant) that
// expose how many frames they currently hold beyond their quota.
// Partitions whose account overshoots are reclaim's preferred victims.
type overshooter interface{ ReclaimOvershoot() int64 }

// reclaimNoter, when implemented by a tenant account, receives the
// count of frames stolen from it by fair-share eviction.
type reclaimNoter interface{ NoteReclaimed(n int64) }

// Watermark and scan tuning.
const (
	// reclaimSlack is freed on top of the immediate need during direct
	// reclaim, so one stall covers a short burst of allocations.
	reclaimSlack = 16
	// scanBudgetFactor bounds LRU candidates inspected per frame the
	// pass wants to free (second chances cost scan budget, not loops).
	scanBudgetFactor = 8
	// refillBatch is how many active-list nodes one refill step may
	// demote to the inactive list.
	refillBatch = 32
	// kswapdInterval is the background reclaimer's poll period; wakeups
	// from the allocator's low-watermark nudge arrive much sooner.
	kswapdInterval = 10 * time.Millisecond
)

// Manager is the reclaim subsystem instance for one allocator. The zero
// value is not usable; see NewManager. All bookkeeping is inert until
// SetEnabled(true).
type Manager struct {
	alloc *phys.Allocator
	met   *metrics.Registry
	trc   *trace.Tracer

	// tracking gates the bookkeeping hooks and eviction. Swap-slot
	// reference counts are NOT gated: once a swap entry exists in a page
	// table it must stay consistent even if tracking is later disabled.
	tracking atomic.Bool

	// degraded latches after a swap I/O failure exhausts its retries:
	// eviction and kswapd balancing stop (no new pages are put at
	// risk), reads of already-swapped pages are still attempted, and
	// re-enabling the subsystem clears the latch.
	degraded atomic.Bool

	// mu guards frames, owners, the LRU partitions, slots, and the
	// watermark fields. It is the innermost lock of the whole memory
	// stack.
	mu     sync.Mutex
	frames map[phys.Frame]*frameNode
	owners map[*pagetable.Table]map[Space]struct{}
	// defq holds frames charged to no tenant; parts holds one LRU
	// partition per tenant account with tracked frames. Victim
	// selection walks parts for quota overshoot before falling back to
	// defq (see pickPartitionLocked).
	defq  partition
	parts map[phys.FrameCharger]*partition
	// slots holds per-swap-slot bookkeeping: the reference count (one
	// per swap PTE) and the payload checksum recorded at swap-out.
	// Slot 0 is the implicit zero page: refcounted here, never stored.
	slots map[uint64]slotInfo

	// reclaimMu serializes shrink passes (kswapd and direct reclaim).
	reclaimMu sync.Mutex

	store   Store
	low     atomic.Int64
	high    atomic.Int64
	userWM  atomic.Bool // watermarks explicitly configured
	wake    chan struct{}
	kswapMu sync.Mutex    // guards kswapd start/stop
	stopCh  chan struct{} // non-nil while kswapd runs
	doneCh  chan struct{}
}

// NewManager builds a reclaim manager over alloc, initially disabled,
// with a compressed in-memory store. The registry may be shared with
// the rest of the kernel (it is only consulted when enabled); the
// flight recorder is inherited from the allocator, so the kernel must
// attach it (phys.Allocator.SetTracer) before building the manager.
func NewManager(alloc *phys.Allocator, met *metrics.Registry) *Manager {
	return &Manager{
		alloc:  alloc,
		met:    met,
		trc:    alloc.Tracer(),
		frames: make(map[phys.Frame]*frameNode),
		owners: make(map[*pagetable.Table]map[Space]struct{}),
		parts:  make(map[phys.FrameCharger]*partition),
		slots:  make(map[uint64]slotInfo),
		store:  NewMemStore(),
		wake:   make(chan struct{}, 1),
	}
}

// Enabled reports whether reclaim tracking and eviction are on.
func (m *Manager) Enabled() bool { return m.tracking.Load() }

// SetStore replaces the backing store. Only legal while reclaim is
// disabled and no swapped-out pages are outstanding; the previous store
// is closed.
func (m *Manager) SetStore(s Store) error {
	if m.tracking.Load() {
		return errors.New("reclaim: cannot replace store while enabled")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.slots) != 0 {
		return errors.New("reclaim: cannot replace store with swapped pages outstanding")
	}
	if m.store != nil {
		m.store.Close()
	}
	m.store = s
	return nil
}

// SetWatermarks configures the kswapd thresholds in frames: below low
// free frames the background reclaimer runs, and it reclaims until high
// free frames are available. Pass (0, 0) to return to automatic
// watermarks derived from the allocator's limit.
func (m *Manager) SetWatermarks(low, high int64) error {
	if low == 0 && high == 0 {
		m.userWM.Store(false)
		m.applyAutoWatermarks()
		return nil
	}
	if low <= 0 || high <= low {
		return fmt.Errorf("reclaim: invalid watermarks low=%d high=%d", low, high)
	}
	m.userWM.Store(true)
	m.low.Store(low)
	m.high.Store(high)
	m.alloc.SetLowWatermark(low)
	return nil
}

// applyAutoWatermarks derives default watermarks from the current frame
// limit: low = limit/16 clamped to [8, 4096], high = 2*low. Recomputed
// on every balance step so a limit change after enabling is honored.
func (m *Manager) applyAutoWatermarks() {
	limit := m.alloc.Limit()
	if limit <= 0 {
		m.low.Store(0)
		m.high.Store(0)
		m.alloc.SetLowWatermark(0)
		return
	}
	low := limit / 16
	if low < 8 {
		low = 8
	}
	if low > 4096 {
		low = 4096
	}
	m.low.Store(low)
	m.high.Store(2 * low)
	m.alloc.SetLowWatermark(low)
}

// Watermarks returns the current (low, high) thresholds in frames.
func (m *Manager) Watermarks() (low, high int64) {
	return m.low.Load(), m.high.Load()
}

// SetEnabled turns the subsystem on or off. Enabling starts kswapd and
// begins LRU/rmap tracking of subsequently mapped pages; disabling
// stops kswapd and drops the tracking state. Swap-slot contents and
// reference counts survive a disable — already swapped-out pages remain
// readable and fault back in normally — but no further eviction
// happens while disabled.
func (m *Manager) SetEnabled(on bool) {
	m.kswapMu.Lock()
	defer m.kswapMu.Unlock()
	if on == m.tracking.Load() {
		return
	}
	if on {
		if !m.userWM.Load() {
			m.applyAutoWatermarks()
		} else {
			m.alloc.SetLowWatermark(m.low.Load())
		}
		// A fresh enable forgives past swap I/O failures — the operator
		// re-enabling swap is the "device replaced" signal.
		m.degraded.Store(false)
		m.tracking.Store(true)
		m.stopCh = make(chan struct{})
		m.doneCh = make(chan struct{})
		go m.kswapd(m.stopCh, m.doneCh)
		return
	}
	// Flip tracking between reclaim passes, never under one: a pass in
	// flight keeps ageing PTEs through the reverse map, and the space
	// that owns a table relies on "tracking off" meaning nobody but
	// itself can reach the table's entries (core drains them with plain
	// stores). Later passes see the flag and return at once.
	m.reclaimMu.Lock()
	m.tracking.Store(false)
	m.reclaimMu.Unlock()
	close(m.stopCh)
	<-m.doneCh
	m.stopCh, m.doneCh = nil, nil
	m.alloc.SetLowWatermark(0)
	m.mu.Lock()
	m.frames = make(map[phys.Frame]*frameNode)
	m.owners = make(map[*pagetable.Table]map[Space]struct{})
	m.defq = partition{}
	m.parts = make(map[phys.FrameCharger]*partition)
	m.mu.Unlock()
}

// ---------------------------------------------------------------------
// Bookkeeping hooks. All are called by package core while holding the
// mutating space's mutex (and usually the table's lock); all are cheap
// no-ops when tracking is off.

// PageMapped records that entry idx of leaf t now maps 4 KiB frame f,
// on behalf of owner. New frames enter the active LRU list.
func (m *Manager) PageMapped(f phys.Frame, t *pagetable.Table, idx int, owner Space) {
	if !m.tracking.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ownerAddLocked(t, owner)
	n := m.frames[f]
	if n == nil {
		n = &frameNode{frame: f}
		m.frames[f] = n
		n.part = m.partForLocked(f)
		n.part.add(n, onActive)
	}
	for _, mp := range n.mappings {
		if mp.table == t && mp.idx == idx {
			return
		}
	}
	n.mappings = append(n.mappings, mapping{table: t, idx: idx})
}

// partForLocked returns the LRU partition for frame f, resolving the
// frame's charger through the allocator and materializing the tenant's
// partition on first use. Called with m.mu held.
func (m *Manager) partForLocked(f phys.Frame) *partition {
	c := m.alloc.ChargerOf(f)
	if c == nil {
		return &m.defq
	}
	p := m.parts[c]
	if p == nil {
		p = &partition{c: c}
		m.parts[c] = p
	}
	return p
}

// releaseIfEmptyLocked drops a tenant partition from the map once it
// holds no frames, so destroyed tenants are not pinned by the reclaim
// state. Called with m.mu held.
func (m *Manager) releaseIfEmptyLocked(p *partition) {
	if p != nil && p.c != nil && p.len() == 0 && m.parts[p.c] == p {
		delete(m.parts, p.c)
	}
}

// PageUnmapped records that entry idx of t no longer maps f.
func (m *Manager) PageUnmapped(f phys.Frame, t *pagetable.Table, idx int) {
	if !m.tracking.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.frames[f]
	if n == nil {
		return
	}
	for i, mp := range n.mappings {
		if mp.table == t && mp.idx == idx {
			n.mappings = append(n.mappings[:i], n.mappings[i+1:]...)
			break
		}
	}
	if len(n.mappings) == 0 {
		n.part.remove(n)
		delete(m.frames, f)
		m.releaseIfEmptyLocked(n.part)
	}
}

// HugeMapped records that PMD entry idx of pmd maps the 2 MiB compound
// page headed at head, on behalf of owner.
func (m *Manager) HugeMapped(head phys.Frame, pmd *pagetable.Table, idx int, owner Space) {
	if !m.tracking.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ownerAddLocked(pmd, owner)
	n := m.frames[head]
	if n == nil {
		n = &frameNode{frame: head, huge: true}
		m.frames[head] = n
		n.part = m.partForLocked(head)
		n.part.add(n, onActive)
	}
	for _, mp := range n.mappings {
		if mp.table == pmd && mp.idx == idx {
			return
		}
	}
	n.mappings = append(n.mappings, mapping{table: pmd, idx: idx})
}

// HugeUnmapped records that PMD entry idx of pmd no longer maps head.
func (m *Manager) HugeUnmapped(head phys.Frame, pmd *pagetable.Table, idx int) {
	m.PageUnmapped(head, pmd, idx)
}

// OwnerAdd records that space s can reach (and therefore mutate under
// its own mutex) table t. Idempotent.
func (m *Manager) OwnerAdd(t *pagetable.Table, s Space) {
	if !m.tracking.Load() {
		return
	}
	m.mu.Lock()
	m.ownerAddLocked(t, s)
	m.mu.Unlock()
}

// OwnerRemove records that s dropped its reference to t while other
// spaces keep theirs (table-share count stayed positive).
func (m *Manager) OwnerRemove(t *pagetable.Table, s Space) {
	if !m.tracking.Load() {
		return
	}
	m.mu.Lock()
	if set := m.owners[t]; set != nil {
		delete(set, s)
		if len(set) == 0 {
			delete(m.owners, t)
		}
	}
	m.mu.Unlock()
}

// TableFreed records that t's backing frame was released; all owner
// bookkeeping for it is dropped. The caller has already unmapped every
// entry, so no reverse mappings reference t by now.
func (m *Manager) TableFreed(t *pagetable.Table) {
	if !m.tracking.Load() {
		return
	}
	m.mu.Lock()
	delete(m.owners, t)
	m.mu.Unlock()
}

func (m *Manager) ownerAddLocked(t *pagetable.Table, s Space) {
	set := m.owners[t]
	if set == nil {
		set = make(map[Space]struct{}, 2)
		m.owners[t] = set
	}
	set[s] = struct{}{}
}

// FrameFreed implements phys.Reclaimer: the frame went back to the free
// lists, so any leftover tracking state is purged.
func (m *Manager) FrameFreed(f phys.Frame) {
	if !m.tracking.Load() {
		return
	}
	m.mu.Lock()
	if n, ok := m.frames[f]; ok {
		n.part.remove(n)
		delete(m.frames, f)
		m.releaseIfEmptyLocked(n.part)
	}
	m.mu.Unlock()
}

// ---------------------------------------------------------------------
// Swap slots.

// slotInfo is the per-swap-slot bookkeeping: the reference count (one
// per swap PTE holding the slot) and the CRC32 of the payload recorded
// at swap-out, verified on swap-in. Slot 0 (the zero page) carries no
// checksum.
type slotInfo struct {
	refs   int64
	crc    uint32
	hasCRC bool
}

// SwapRef adds one reference to a swap slot (a fork duplicated a swap
// PTE into a new table). Not gated on tracking: slot accounting must
// stay exact for as long as swap entries exist.
func (m *Manager) SwapRef(slot uint64) {
	m.mu.Lock()
	si := m.slots[slot]
	si.refs++
	m.slots[slot] = si
	m.mu.Unlock()
}

// SwapUnref drops one reference to a swap slot (a swap PTE was zapped
// or replaced by swap-in); the last reference frees the store slot.
func (m *Manager) SwapUnref(slot uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	si, ok := m.slots[slot]
	if !ok {
		panic(fmt.Sprintf("reclaim: unref of untracked swap slot %d", slot))
	}
	if si.refs--; si.refs > 0 {
		m.slots[slot] = si
		return
	}
	delete(m.slots, slot)
	if slot != 0 {
		m.freeSlotLocked(slot)
	}
}

// freeSlotLocked releases a store slot, honoring the swap.free
// failpoint: a failed free is simply retried — the store's Free is
// idempotent bookkeeping, and a leaked slot would fail the chaos
// harness's zero-leak audit, so the failure mode here is extra
// attempts, never a leak.
func (m *Manager) freeSlotLocked(slot uint64) {
	fp := m.alloc.Failpoints()
	for attempt := 0; attempt < swapIOAttempts; attempt++ {
		if fp.Enabled() && fp.Fire(failpoint.SwapFree) {
			continue
		}
		break
	}
	m.store.Free(slot)
}

// ReadSlot copies the page content of a swap slot into dst without
// consuming a reference. Slot 0 is the implicit zero page. Transient
// store failures (injected or real) are retried with capped
// exponential backoff; a persistent failure degrades the subsystem and
// surfaces as ErrSwapIO, and a payload that no longer matches its
// recorded checksum surfaces as ErrSwapCorrupt.
func (m *Manager) ReadSlot(slot uint64, dst []byte) error {
	if slot == 0 {
		clear(dst)
		return nil
	}
	fp := m.alloc.Failpoints()
	on := m.met.Enabled()
	var err error
	for attempt := 0; attempt < swapIOAttempts; attempt++ {
		if attempt > 0 {
			if on {
				m.met.Robust.SwapReadRetries.Inc()
			}
			time.Sleep(swapBackoffBase << (attempt - 1))
		}
		if fp.Enabled() && fp.Fire(failpoint.SwapRead) {
			err = fmt.Errorf("%w: injected read fault on slot %d", ErrSwapIO, slot)
			continue
		}
		if err = m.store.Read(slot, dst); err == nil {
			break
		}
	}
	if err != nil {
		if on {
			m.met.Robust.SwapReadErrors.Inc()
		}
		m.degrade(true)
		if !errors.Is(err, ErrSwapIO) {
			err = fmt.Errorf("%w: %v", ErrSwapIO, err)
		}
		return err
	}
	m.mu.Lock()
	si := m.slots[slot]
	m.mu.Unlock()
	if si.hasCRC && crc32.ChecksumIEEE(dst) != si.crc {
		if on {
			m.met.Robust.SwapCorruptions.Inc()
		}
		return fmt.Errorf("%w: slot %d checksum mismatch", ErrSwapCorrupt, slot)
	}
	return nil
}

// writeSlot persists one page payload with the same retry/backoff
// policy as ReadSlot and returns the slot plus the checksum to record.
// The swap.corrupt failpoint poisons the recorded checksum (the model
// of a device that acknowledged a write it mangled), so the corruption
// is only discovered at swap-in.
func (m *Manager) writeSlot(data []byte) (uint64, uint32, error) {
	fp := m.alloc.Failpoints()
	on := m.met.Enabled()
	var slot uint64
	var err error
	for attempt := 0; attempt < swapIOAttempts; attempt++ {
		if attempt > 0 {
			if on {
				m.met.Robust.SwapWriteRetries.Inc()
			}
			time.Sleep(swapBackoffBase << (attempt - 1))
		}
		if fp.Enabled() && fp.Fire(failpoint.SwapWrite) {
			err = fmt.Errorf("%w: injected write fault", ErrSwapIO)
			continue
		}
		if slot, err = m.store.Write(data); err == nil {
			break
		}
	}
	if err != nil {
		if on {
			m.met.Robust.SwapWriteErrors.Inc()
		}
		m.degrade(false)
		return 0, 0, err
	}
	crc := crc32.ChecksumIEEE(data)
	if fp.Enabled() && fp.Fire(failpoint.SwapCorrupt) {
		crc ^= 0xDEADBEEF
	}
	return slot, crc, nil
}

// degrade latches the manager into degraded-swap mode after a
// persistent I/O failure: no further eviction, a one-shot metric and
// trace event, reads still attempted. read attributes the trigger.
func (m *Manager) degrade(read bool) {
	if m.degraded.Swap(true) {
		return
	}
	if m.met.Enabled() {
		m.met.Robust.SwapDegrades.Inc()
	}
	arg := uint64(0)
	if read {
		arg = 1
	}
	m.trc.Instant(trace.KindSwapDegrade, trace.StageNone, trace.ActorApp, arg, 0)
}

// Degraded reports whether swap has been disabled by an I/O failure.
func (m *Manager) Degraded() bool { return m.degraded.Load() }

// ---------------------------------------------------------------------
// Reclaim passes.

// ReclaimFrames implements phys.Reclaimer: synchronous direct reclaim
// from a failing allocation. Reports whether any frames were freed.
func (m *Manager) ReclaimFrames(need int64) bool {
	if !m.tracking.Load() {
		return false
	}
	on := m.met.Enabled()
	var t0 time.Time
	if on {
		m.met.Reclaim.DirectReclaims.Inc()
		t0 = time.Now()
	}
	freed := m.shrink(need+reclaimSlack, true)
	if on {
		m.met.Reclaim.DirectStallLatency.Observe(time.Since(t0))
	}
	return freed > 0
}

// LowMemory implements phys.Reclaimer: non-blocking kswapd wakeup.
func (m *Manager) LowMemory() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// kswapd is the background reclaimer goroutine: on each wakeup (or
// poll tick) it frees pages until the high watermark of free frames is
// restored, mirroring its kernel namesake.
func (m *Manager) kswapd(stop, done chan struct{}) {
	defer close(done)
	// The pprof label attributes CPU samples of eviction, writeback and
	// huge-split work to the background reclaimer in profiles.
	pprof.Do(context.Background(), pprof.Labels("odf", "kswapd"), func(context.Context) {
		ticker := time.NewTicker(kswapdInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-m.wake:
			case <-ticker.C:
			}
			m.balanceGuarded()
		}
	})
}

// balanceGuarded runs one balance episode behind a recover barrier: a
// panicking reclaim pass (a bug, or the kswapd.panic failpoint) must
// not kill the background reclaimer — the episode is abandoned,
// counted, and the next wakeup services the watermarks normally.
// reclaimMu is acquired and released inside shrink, so an unwound
// episode leaves no lock held.
func (m *Manager) balanceGuarded() {
	defer func() {
		if r := recover(); r != nil {
			if m.met.Enabled() {
				m.met.Robust.KswapdErrors.Inc()
			}
		}
	}()
	if fp := m.alloc.Failpoints(); fp.Enabled() && fp.Fire(failpoint.KswapdPanic) {
		panic("reclaim: injected kswapd panic")
	}
	m.balance()
}

// balance runs one kswapd episode: if free frames are below the low
// watermark, reclaim up to the high watermark.
func (m *Manager) balance() {
	if !m.userWM.Load() {
		m.applyAutoWatermarks()
	}
	limit := m.alloc.Limit()
	low := m.low.Load()
	if limit <= 0 || low <= 0 {
		return
	}
	free := limit - m.alloc.Allocated()
	if free >= low {
		return
	}
	if m.met.Enabled() {
		m.met.Reclaim.KswapdWakeups.Inc()
	}
	m.trc.Instant(trace.KindKswapdWake, trace.StageNone, trace.ActorKswapd, uint64(free), 0)
	m.shrink(m.high.Load()-free, false)
}

// shrink frees up to target frames by evicting cold pages off the
// inactive list, with second-chance promotion for referenced pages and
// huge-page splitting for cold 2 MiB mappings. Returns frames freed.
// Passes are serialized on reclaimMu; direct is only used for metric
// attribution.
func (m *Manager) shrink(target int64, direct bool) int64 {
	if target <= 0 {
		return 0
	}
	m.reclaimMu.Lock()
	defer m.reclaimMu.Unlock()
	// Degraded swap means eviction would hand more pages to a failing
	// device; stop reclaiming and let the frame limit surface as OOM.
	if !m.tracking.Load() || m.degraded.Load() {
		return 0
	}
	on := m.met.Enabled()
	pgscan, pgsteal := &m.met.Reclaim.PgScanKswapd, &m.met.Reclaim.PgStealKswapd
	actor := trace.ActorKswapd
	if direct {
		pgscan, pgsteal = &m.met.Reclaim.PgScanDirect, &m.met.Reclaim.PgStealDirect
		actor = trace.ActorApp
	}
	var scanned int64
	var scanStart time.Time
	if m.trc.Enabled() {
		scanStart = time.Now()
	}
	var freed int64
	defer func() {
		m.trc.Span(trace.KindReclaimScan, trace.StageNone, actor, scanStart, uint64(scanned), uint64(freed))
	}()
	// The scan budget must cover second-chancing the whole population
	// twice (clear accessed bits on the first lap, evict on the second)
	// — the moral equivalent of the kernel escalating scan priority
	// until the target is met — plus slack for requeues.
	budget := target*scanBudgetFactor + 64
	m.mu.Lock()
	active, inactive := m.lruSizesLocked()
	if b := 2*(active+inactive) + target; b > budget {
		budget = b
	}
	m.mu.Unlock()
	for freed < target && budget > 0 {
		budget--
		m.mu.Lock()
		p, fair := m.pickPartitionLocked()
		if p == nil {
			m.mu.Unlock()
			break
		}
		victim := p.c
		p.refill(refillBatch)
		n := p.inactive.popFront()
		if n == nil {
			// No inactive candidates: force-age the active list once,
			// then give up if there is still nothing.
			for i := 0; i < refillBatch; i++ {
				if a := p.active.popFront(); a != nil {
					a.list = onInactive
					p.inactive.pushBack(a)
				}
			}
			n = p.inactive.popFront()
			if n == nil {
				m.mu.Unlock()
				break
			}
		}
		n.list = onNone
		scanned++
		if on {
			pgscan.Inc()
		}
		if m.referencedLocked(n) {
			// Second chance: accessed since last scan. Clear the bits
			// (done inside referencedLocked) and promote.
			n.part.add(n, onActive)
			m.mu.Unlock()
			continue
		}
		// m.mu is released inside evictLocked/splitHugeLocked.
		if n.huge {
			m.splitHugeLocked(n, actor)
		} else if m.evictLocked(n, actor) {
			freed++
			if on {
				pgsteal.Inc()
			}
			if fair {
				// The frame came off an over-quota tenant's partition:
				// record the steal against its account.
				if nr, ok := victim.(reclaimNoter); ok {
					nr.NoteReclaimed(1)
				}
				if on {
					m.met.Tenant.FairEvictions.Inc()
				}
			}
		}
	}
	return freed
}

// lruSizesLocked sums the active/inactive list lengths across every
// partition. Called with m.mu held.
func (m *Manager) lruSizesLocked() (active, inactive int64) {
	active = int64(m.defq.active.size)
	inactive = int64(m.defq.inactive.size)
	for _, p := range m.parts {
		active += int64(p.active.size)
		inactive += int64(p.inactive.size)
	}
	return active, inactive
}

// pickPartitionLocked selects the LRU partition the next eviction
// candidate comes from — the fair-share policy. Tenant partitions
// whose account is over its frame quota are preferred, worst overshoot
// first, so a noisy tenant's pages are stolen before anyone else's;
// repeated picks re-read the overshoot, so eviction pressure tracks
// each account as its usage falls (proportional over a pass). With no
// overshoot anywhere the default partition (uncharged frames) is
// scanned, then any non-empty tenant partition — approximately the old
// global LRU order. Reports whether the pick was a fair-share
// (over-quota) one. Called with m.mu held; returns nil when every
// partition is empty.
func (m *Manager) pickPartitionLocked() (*partition, bool) {
	var best *partition
	var bestOver int64
	for _, p := range m.parts {
		if p.len() == 0 {
			continue
		}
		if o, ok := p.c.(overshooter); ok {
			if ov := o.ReclaimOvershoot(); ov > bestOver {
				bestOver, best = ov, p
			}
		}
	}
	if best != nil {
		return best, true
	}
	if m.defq.len() > 0 {
		return &m.defq, false
	}
	for _, p := range m.parts {
		if p.len() > 0 {
			return p, false
		}
	}
	return nil, false
}

// referencedLocked performs the second-chance test: it reads and clears
// the accessed bit of every PTE mapping the frame. Entry loads and the
// flag clear are atomic, so no table lock is needed, and accessed/dirty
// bits do not participate in table tallies.
func (m *Manager) referencedLocked(n *frameNode) bool {
	ref := false
	for _, mp := range n.mappings {
		e := mp.table.Entry(mp.idx)
		if e.Present() && e.Accessed() {
			ref = true
			mp.table.ClearEntryFlags(mp.idx, pagetable.FlagAccessed)
		}
	}
	return ref
}

// lockOwnersLocked collects and sorts the owner set of every table in
// n's mappings, then TryLocks each space in ID order. Called with m.mu
// held; returns with m.mu RELEASED. On success the locked spaces are
// returned; on failure (unknown owner or TryLock miss) it returns nil
// and the node has been put back on the active list.
func (m *Manager) lockOwnersLocked(n *frameNode) []Space {
	set := make(map[Space]struct{}, 4)
	for _, mp := range n.mappings {
		os := m.owners[mp.table]
		if len(os) == 0 {
			// A mapped table with no registered owner is unevictable
			// (bookkeeping raced); try again later.
			n.part.add(n, onActive)
			m.mu.Unlock()
			return nil
		}
		for s := range os {
			set[s] = struct{}{}
		}
	}
	owners := make([]Space, 0, len(set))
	for s := range set {
		owners = append(owners, s)
	}
	sort.Slice(owners, func(i, j int) bool {
		return owners[i].ReclaimID() < owners[j].ReclaimID()
	})
	m.mu.Unlock()

	for i, s := range owners {
		if !s.TryLockForReclaim() {
			for j := 0; j < i; j++ {
				owners[j].UnlockForReclaim()
			}
			m.mu.Lock()
			m.requeueLocked(n)
			m.mu.Unlock()
			return nil
		}
	}
	return owners
}

// requeueLocked puts a popped node back on the active list if it is
// still tracked (a concurrent unmap may have dropped it). The
// partition is re-resolved: while the node was off-list its partition
// may have emptied and been released from the map.
func (m *Manager) requeueLocked(n *frameNode) {
	if m.frames[n.frame] == n && n.list == onNone {
		n.part = m.partForLocked(n.frame)
		n.part.add(n, onActive)
	}
}

// revalidateLocked rechecks, under m.mu with all owners locked, that
// the snapshot taken before locking still describes reality: the node
// is still tracked with the same mappings, every PTE still maps the
// frame, the owner set did not grow, and the frame's reference count
// equals its mapping count (no out-of-rmap references, e.g. a fork in
// flight).
func (m *Manager) revalidateLocked(n *frameNode, snap []mapping, locked []Space) bool {
	if m.frames[n.frame] != n || len(n.mappings) != len(snap) {
		return false
	}
	held := make(map[Space]struct{}, len(locked))
	for _, s := range locked {
		held[s] = struct{}{}
	}
	for i, mp := range n.mappings {
		if mp != snap[i] {
			return false
		}
		os := m.owners[mp.table]
		if len(os) == 0 {
			return false
		}
		for s := range os {
			if _, ok := held[s]; !ok {
				return false
			}
		}
		e := mp.table.Entry(mp.idx)
		if n.huge {
			if !e.Present() || !e.Huge() || e.Frame() != n.frame {
				return false
			}
		} else {
			if !e.Present() || e.Huge() || e.Frame() != n.frame {
				return false
			}
		}
	}
	want := int32(len(n.mappings))
	if n.huge {
		want = 1
	}
	return m.alloc.RefCount(n.frame) == want
}

// evictLocked swaps out one cold 4 KiB frame. Called with m.mu held and
// n popped off the LRU; returns with m.mu released. Reports whether the
// frame was freed. actor attributes the trace events to the reclaiming
// context (kswapd or a direct-reclaiming app goroutine).
func (m *Manager) evictLocked(n *frameNode, actor int32) bool {
	snap := append([]mapping(nil), n.mappings...)
	owners := m.lockOwnersLocked(n) // releases m.mu
	if owners == nil {
		return false
	}
	unlockAll := func() {
		for _, s := range owners {
			s.UnlockForReclaim()
		}
	}

	m.mu.Lock()
	if !m.revalidateLocked(n, snap, owners) {
		m.requeueLocked(n)
		m.mu.Unlock()
		unlockAll()
		return false
	}
	// Committed: from here nothing can fail except the store write.
	f := n.frame
	m.mu.Unlock()

	// Write the payload out. A never-materialized (all-zero) page takes
	// the reserved zero slot and costs no store I/O at all.
	var slot uint64
	var crc uint32
	var hasCRC bool
	if data := m.alloc.DataIfPresent(f); data != nil {
		on := m.met.Enabled()
		var t0 time.Time
		if on || m.trc.Enabled() {
			t0 = time.Now()
		}
		s, c, err := m.writeSlot(data)
		if err != nil {
			m.mu.Lock()
			m.requeueLocked(n)
			m.mu.Unlock()
			unlockAll()
			return false
		}
		if on {
			m.met.Reclaim.PswpOut.Inc()
			m.met.Reclaim.SwapOutLatency.Observe(time.Since(t0))
		}
		m.trc.Span(trace.KindWriteback, trace.StageNone, actor, t0, s, uint64(len(data)))
		slot, crc, hasCRC = s, c, true
	}

	// Replace every PTE with the swap entry. The owners' mutexes exclude
	// every possible mutator of these tables, so plain atomic stores are
	// enough; table tallies adjust through SetEntry.
	for _, mp := range snap {
		old := mp.table.Entry(mp.idx)
		mp.table.SetEntry(mp.idx, pagetable.MakeSwapEntry(slot, old))
	}

	m.mu.Lock()
	si := m.slots[slot]
	si.refs += int64(len(snap))
	if hasCRC {
		si.crc, si.hasCRC = crc, true
	}
	m.slots[slot] = si
	delete(m.frames, f)
	m.releaseIfEmptyLocked(n.part)
	m.mu.Unlock()

	// Invalidate stale translations, then drop the page references the
	// PTEs held — the last Put frees the frame.
	for _, s := range owners {
		s.ReclaimFlushTLB()
	}
	for range snap {
		m.alloc.Put(f)
	}
	unlockAll()
	m.trc.Instant(trace.KindReclaimEvict, trace.StageNone, actor, uint64(f), slot)
	return true
}

// splitHugeLocked breaks a cold 2 MiB mapping into 512 base mappings
// through a freshly built leaf table, making the individual frames
// evictable. Called with m.mu held and n popped; returns with m.mu
// released. The split is transparent: the PMD entry becomes a table
// pointer, content and protections are unchanged. actor attributes the
// trace event to the reclaiming context.
func (m *Manager) splitHugeLocked(n *frameNode, actor int32) {
	snap := append([]mapping(nil), n.mappings...)
	owners := m.lockOwnersLocked(n) // releases m.mu
	if owners == nil {
		return
	}
	unlockAll := func() {
		for _, s := range owners {
			s.UnlockForReclaim()
		}
	}

	m.mu.Lock()
	// Splittable only when privately mapped by exactly one PMD entry; a
	// COW-shared huge page waits for the copy fault to resolve sharing.
	if len(snap) != 1 || !m.revalidateLocked(n, snap, owners) {
		m.requeueLocked(n)
		m.mu.Unlock()
		unlockAll()
		return
	}
	head := n.frame
	ownerSet := m.owners[snap[0].table]
	sharers := make([]Space, 0, len(ownerSet))
	for s := range ownerSet {
		sharers = append(sharers, s)
	}
	m.mu.Unlock()

	// Build the replacement leaf without recursing into reclaim.
	leaf, err := pagetable.TryNewTableNoReclaim(m.alloc, addr.PTE)
	if err != nil {
		m.mu.Lock()
		m.requeueLocked(n)
		m.mu.Unlock()
		unlockAll()
		return
	}
	pmdT, idx := snap[0].table, snap[0].idx
	he := pmdT.Entry(idx)
	keep := he & (pagetable.FlagWritable | pagetable.FlagUser |
		pagetable.FlagCOW | pagetable.FlagAccessed | pagetable.FlagDirty)
	for i := 0; i < addr.EntriesPerTable; i++ {
		leaf.SetEntry(i, pagetable.MakeEntry(head+phys.Frame(i), keep))
	}
	// Metadata-only split: every frame comes out with refcount 1,
	// matching the 512 references the new PTEs represent.
	m.alloc.SplitHuge(head)
	pmdT.Lock()
	pmdT.SetChild(idx, leaf, pagetable.FlagWritable|pagetable.FlagUser)
	pmdT.Unlock()

	m.mu.Lock()
	delete(m.frames, head)
	// Every space that could reach the PMD entry now reaches the leaf.
	for _, s := range sharers {
		m.ownerAddLocked(leaf, s)
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		f := head + phys.Frame(i)
		nn := &frameNode{frame: f, mappings: []mapping{{table: leaf, idx: i}}}
		m.frames[f] = nn
		nn.part = m.partForLocked(f)
		nn.part.add(nn, onInactive)
	}
	if m.met.Enabled() {
		m.met.Reclaim.HugeSplits.Inc()
	}
	m.mu.Unlock()

	for _, s := range owners {
		s.ReclaimFlushTLB()
	}
	unlockAll()
	m.trc.Instant(trace.KindHugeSplit, trace.StageNone, actor, uint64(head), 0)
}

// ---------------------------------------------------------------------
// Introspection.

// ManagerStats is a point-in-time view of reclaim state for vmstat.
type ManagerStats struct {
	Enabled        bool
	Degraded       bool  // swap disabled by a persistent I/O failure
	Low, High      int64 // watermarks (frames)
	ActiveFrames   int64 // LRU active list length
	InactiveFrames int64 // LRU inactive list length
	SwapSlots      int64 // referenced swap slots (incl. zero-page slots)
	Store          StoreStats
}

// Stats returns current reclaim statistics.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	active, inactive := m.lruSizesLocked()
	st := ManagerStats{
		Enabled:        m.tracking.Load(),
		Degraded:       m.degraded.Load(),
		Low:            m.low.Load(),
		High:           m.high.Load(),
		ActiveFrames:   active,
		InactiveFrames: inactive,
		SwapSlots:      int64(len(m.slots)),
	}
	store := m.store
	m.mu.Unlock()
	if store != nil {
		st.Store = store.Stats()
	}
	return st
}

// Mapped reports whether the reverse map records entry idx of t as a
// mapping of frame f (tests and diagnostics; VerifyBookkeeping checks
// the other direction, that every recorded mapping is live).
func (m *Manager) Mapped(f phys.Frame, t *pagetable.Table, idx int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.frames[f]; n != nil {
		for _, mp := range n.mappings {
			if mp.table == t && mp.idx == idx {
				return true
			}
		}
	}
	return false
}

// Owns reports whether the ownership registry records s as an owner of
// table t (tests and diagnostics, like Mapped).
func (m *Manager) Owns(t *pagetable.Table, s Space) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.owners[t][s]
	return ok
}

// VerifyBookkeeping cross-checks reclaim state against ground truth
// collected by an invariant walk over every address space sharing the
// allocator: wantSlots maps swap slot → number of swap PTEs found. It
// also self-checks the reverse map (every recorded mapping must point
// at a live PTE of the recorded frame with a registered owner). The
// caller must be quiescent. Returns nil when consistent.
func (m *Manager) VerifyBookkeeping(wantSlots map[uint64]int64) error {
	m.reclaimMu.Lock()
	defer m.reclaimMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for slot, want := range wantSlots {
		if got := m.slots[slot].refs; got != want {
			return fmt.Errorf("reclaim: slot %d refcount %d, page tables hold %d entries", slot, got, want)
		}
	}
	for slot, si := range m.slots {
		if want := wantSlots[slot]; want != si.refs {
			return fmt.Errorf("reclaim: slot %d refcount %d, page tables hold %d entries", slot, si.refs, want)
		}
	}
	if !m.tracking.Load() {
		return nil
	}
	for f, n := range m.frames {
		if n.frame != f {
			return fmt.Errorf("reclaim: node for frame %d carries frame %d", f, n.frame)
		}
		if len(n.mappings) == 0 {
			return fmt.Errorf("reclaim: tracked frame %d has no mappings", f)
		}
		for _, mp := range n.mappings {
			e := mp.table.Entry(mp.idx)
			if !e.Present() || e.Frame() != f || e.Huge() != n.huge {
				return fmt.Errorf("reclaim: stale rmap entry for frame %d (entry %v)", f, e)
			}
			if len(m.owners[mp.table]) == 0 {
				return fmt.Errorf("reclaim: frame %d mapped by ownerless table", f)
			}
		}
		// Partition membership must agree with the frame's charger, or
		// fair-share eviction would steal one tenant's pages while
		// charging another.
		if n.list != onNone {
			c := m.alloc.ChargerOf(f)
			switch {
			case n.part == nil:
				return fmt.Errorf("reclaim: listed frame %d has no partition", f)
			case c == nil && n.part != &m.defq:
				return fmt.Errorf("reclaim: uncharged frame %d on a tenant partition", f)
			case c != nil && n.part.c != c:
				return fmt.Errorf("reclaim: frame %d on partition of wrong tenant", f)
			}
		}
	}
	return nil
}
