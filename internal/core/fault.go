package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/mem/phys"
	"repro/internal/mem/vm"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Sentinel errors for the two address-shaped failure classes. Every
// error the memory layer returns for a bad address or a forbidden
// access wraps one of these, so callers branch with errors.Is instead
// of matching message strings (the odfork facade re-exports them as
// ErrBadAddr / ErrProtViolation).
var (
	// ErrBadAddr marks accesses to unmapped memory and malformed
	// ranges, hints, or lengths — the EFAULT/EINVAL class.
	ErrBadAddr = errors.New("bad address")
	// ErrProtViolation marks accesses a VMA's protection forbids — the
	// EACCES/SIGSEGV-on-protection class.
	ErrProtViolation = errors.New("protection violation")
)

// FaultKind classifies an access violation.
type FaultKind int

// Access violation kinds.
const (
	// FaultUnmapped means no VMA covers the address.
	FaultUnmapped FaultKind = iota
	// FaultProtection means the VMA forbids the attempted access.
	FaultProtection
)

// SegfaultError is returned for accesses the fault handler cannot
// repair — the simulated SIGSEGV.
type SegfaultError struct {
	Addr  addr.V
	Write bool
	Kind  FaultKind
}

// Error implements the error interface.
func (e *SegfaultError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	why := "unmapped address"
	if e.Kind == FaultProtection {
		why = "protection violation"
	}
	return fmt.Sprintf("segfault: %s at %v: %s", op, e.Addr, why)
}

// Unwrap maps the fault kind onto its sentinel, so
// errors.Is(err, ErrBadAddr) and errors.Is(err, ErrProtViolation)
// classify segfaults without inspecting Kind.
func (e *SegfaultError) Unwrap() error {
	if e.Kind == FaultProtection {
		return ErrProtViolation
	}
	return ErrBadAddr
}

// HandleFault resolves a page fault at v. It is exported for tests and
// benchmarks that drive faults directly; normal accesses go through
// ReadAt/WriteAt, which fault implicitly.
func (as *AddressSpace) HandleFault(v addr.V, write bool) (err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	defer catchOOM(&err)
	return as.handleFaultLocked(v, write)
}

// handleFaultLocked instruments the fault flow: when metrics or
// tracing are on it times the whole repair, charges the read/write
// latency histograms and counts, and records one flight-recorder span
// labelled with how the fault was resolved; when both are off it is a
// tail call into resolveFaultLocked.
func (as *AddressSpace) handleFaultLocked(v addr.V, write bool) error {
	m := as.met
	tr := as.trc
	traceOn := tr.Enabled()
	if !m.Enabled() && !traceOn {
		return as.resolveFaultLocked(v, write)
	}
	var before faultCounters
	if traceOn {
		before = as.faultCounters()
	}
	req := as.curReq.Load()
	t0 := time.Now()
	err := as.resolveFaultLocked(v, write)
	d := time.Since(t0)
	if m.Enabled() {
		if write {
			m.Fault.WriteFaults.Inc()
			m.Fault.WriteLatency.ObserveTagged(d, req)
		} else {
			m.Fault.ReadFaults.Inc()
			m.Fault.ReadLatency.ObserveTagged(d, req)
		}
	}
	isSeg := false
	if err != nil {
		var seg *SegfaultError
		if errors.As(err, &seg) {
			isSeg = true
			if m.Enabled() {
				m.Fault.Segfaults.Inc()
			}
		}
	}
	if traceOn {
		w := uint64(0)
		if write {
			w = 1
		}
		tr.SpanReq(trace.KindFault, classifyResolution(before, as.faultCounters(), isSeg),
			trace.ActorApp, t0, uint64(v), w, req)
	}
	return err
}

// faultCounters is a snapshot of the per-space resolution statistics;
// the before/after diff around one resolve attributes the fault.
type faultCounters struct {
	tableSplits, pmdSplits, hugeCopies, pageCopies, swapIns, fastDedups uint64
}

func (as *AddressSpace) faultCounters() faultCounters {
	return faultCounters{
		tableSplits: as.TableSplits.Load(),
		pmdSplits:   as.PMDSplits.Load(),
		hugeCopies:  as.HugeCopies.Load(),
		pageCopies:  as.PageCopies.Load(),
		swapIns:     as.SwapIns.Load(),
		fastDedups:  as.FastDedups.Load(),
	}
}

// classifyResolution names a fault by the most expensive repair that
// ran during it (a single fault can both copy a shared table and COW a
// page; the span is labelled by the dominant cost).
func classifyResolution(before, after faultCounters, seg bool) trace.Stage {
	switch {
	case seg:
		return trace.ResolveSegfault
	case after.tableSplits > before.tableSplits:
		return trace.ResolveTableCopy
	case after.pmdSplits > before.pmdSplits:
		return trace.ResolvePMDSplit
	case after.hugeCopies > before.hugeCopies:
		return trace.ResolveHugeCopy
	case after.pageCopies > before.pageCopies:
		return trace.ResolvePageCopy
	case after.swapIns > before.swapIns:
		return trace.ResolveSwapIn
	case after.fastDedups > before.fastDedups:
		return trace.ResolveDedup
	}
	return trace.ResolveMinor
}

// resolveFaultLocked implements the fault flow of §3.4: demand paging
// for absent pages, PMD-level share detection, shared-table
// copy-on-write, the last-sharer fast path, and data-page COW.
func (as *AddressSpace) resolveFaultLocked(v addr.V, write bool) (err error) {
	as.prof.Charge(profile.FaultEntry, 1)
	as.Faults.Add(1)

	vma := as.vmas.Find(v)
	if vma == nil {
		return &SegfaultError{Addr: v, Write: write, Kind: FaultUnmapped}
	}
	if write && !vma.Prot.CanWrite() {
		return &SegfaultError{Addr: v, Write: write, Kind: FaultProtection}
	}
	if !vma.Prot.CanRead() {
		return &SegfaultError{Addr: v, Write: write, Kind: FaultProtection}
	}

	tr, ok := as.w.Walk(v)
	if !ok {
		return as.demandPageLocked(vma, v)
	}
	if !write || tr.Writable {
		// Read faults on present pages never occur under shared tables
		// (§3.4 "Fast Read"); a spurious fault is already resolved.
		return nil
	}

	// Huge-page extension (§4): a cleared PUD writable bit marks a
	// shared PMD table; copy it for this process first.
	if pud := tr.PUDTable; pud != nil && !pud.Entry(tr.PUDIndex).Writable() {
		var done bool
		if tr, done, err = as.unshareForWriteLocked(vma, v, pud, tr.PUDIndex); done {
			return err
		}
	}

	if tr.Huge {
		as.hugeCOWLocked(tr)
		as.tlb.FlushRange(addr.NewRange(v.HugeBase(), addr.HugePageSize))
		return nil
	}

	// A cleared PMD writable bit marks the on-demand-fork write
	// protection: the PTE table below is (or recently was) shared.
	if pmd := tr.PMDTable; !pmd.Entry(tr.PMDIndex).Writable() {
		var done bool
		if tr, done, err = as.unshareForWriteLocked(vma, v, pmd, tr.PMDIndex); done {
			return err
		}
	}

	as.pageCOWLocked(tr)
	as.tlb.FlushPage(v)
	return nil
}

// unshareForWriteLocked splits the shared table in slot of parent for a
// write at v and re-walks. If the entry was never individually
// write-protected (the common post-ODF case for pages private to this
// lineage), the write proceeds without copying any data; done reports
// that the fault is resolved (with err), else tr is the translation
// still needing a data-page COW.
func (as *AddressSpace) unshareForWriteLocked(vma *vm.VMA, v addr.V, parent *pagetable.Table, slot int) (tr pagetable.Translation, done bool, err error) {
	as.splitSharedTableLocked(parent, slot, parent.Child(slot))
	tr, ok := as.w.Walk(v)
	if !ok {
		return tr, true, as.demandPageLocked(vma, v)
	}
	if tr.Writable {
		tr.Leaf.OrEntry(tr.LeafIndex, pagetable.FlagAccessed|pagetable.FlagDirty)
		return tr, true, nil
	}
	return tr, false, nil
}

// The note* helpers mirror the per-space statistic atomics into the
// system-wide metrics registry, so /proc/odf/metrics survives process
// exit while Space().PageCopies etc. keep their per-process meaning.

func (as *AddressSpace) noteFastDedup() {
	as.FastDedups.Add(1)
	if as.met.Enabled() {
		as.met.Fault.FastDedups.Inc()
		if ts := as.tslot; ts != nil {
			ts.Fault.FastDedups.Inc()
		}
	}
}

func (as *AddressSpace) notePMDSplit() {
	as.PMDSplits.Add(1)
	if as.met.Enabled() {
		as.met.Fault.PMDSplits.Inc()
		if ts := as.tslot; ts != nil {
			ts.Fault.PMDSplits.Inc()
		}
	}
}

func (as *AddressSpace) notePageCopy() {
	as.PageCopies.Add(1)
	if as.met.Enabled() {
		as.met.Fault.PageCopies.Inc()
		if ts := as.tslot; ts != nil {
			ts.Fault.PageCopies.Inc()
		}
	}
}

func (as *AddressSpace) noteHugeCopy() {
	as.HugeCopies.Add(1)
	if as.met.Enabled() {
		as.met.Fault.HugeCopies.Inc()
		if ts := as.tslot; ts != nil {
			ts.Fault.HugeCopies.Inc()
		}
	}
}

// noteZeroElides records n COW copies that were skipped because the
// source pages were all-zero (phys.CopyPage's elision).
func (as *AddressSpace) noteZeroElides(n uint64) {
	if n == 0 {
		return
	}
	as.ZeroElides.Add(n)
	if as.met.Enabled() {
		as.met.Fault.ZeroElides.Add(n)
	}
}

// demandPageLocked backs a never-touched page (demand-zero for
// anonymous VMAs, page-cache copy for file-backed ones) or faults a
// swapped-out page back in. Installing a new entry into a shared table
// would leak the page into every sharer, so the leaf is unshared first
// — except for swap-in, which restores an entry every sharer already
// held.
func (as *AddressSpace) demandPageLocked(vma *vm.VMA, v addr.V) error {
	if handled, err := as.trySwapInLocked(v); handled || err != nil {
		return err
	}
	if vma.Huge() {
		pmd, pi := as.ensurePrivatePMDLocked(v)
		e := pmd.Entry(pi)
		switch {
		case !e.Present():
			head := as.alloc.AllocHugeFor(as.charger)
			flags := pagetable.FlagHuge | pagetable.FlagUser
			if vma.Prot.CanWrite() {
				flags |= pagetable.FlagWritable
			}
			pmd.SetEntry(pi, pagetable.MakeEntry(head, flags))
			if m := as.trk(); m != nil {
				m.HugeMapped(head, pmd, pi, as)
			}
			return nil
		case e.Huge():
			return nil
		}
		// Present but not huge: the reclaimer split this huge page into
		// 4 KiB mappings; fall through to the base-page path.
	}
	leaf, li := as.ensurePrivateLeafLocked(v)
	if e := leaf.Entry(li); !e.Present() && !e.Swapped() {
		return as.installPageLocked(vma, leaf, li, v)
	}
	return nil
}

// trySwapInLocked resolves a fault on a swapped-out page: allocate a
// frame (possibly entering direct reclaim itself), read the payload
// back from the swap store, and restore the PTE with its preserved
// protection bits. Returns handled=true when the fault address held a
// swap entry. The re-check under the leaf lock serializes sharers of
// one swap entry racing to fault it in.
func (as *AddressSpace) trySwapInLocked(v addr.V) (handled bool, err error) {
	if as.rec == nil {
		return false, nil
	}
	leaf, li := as.w.FindPTE(v)
	if leaf == nil {
		return false, nil
	}
	e := leaf.Entry(li)
	if !e.Swapped() {
		return false, nil
	}
	var t0 time.Time
	if as.met.Enabled() || as.trc.Enabled() {
		t0 = time.Now()
	}
	slot := e.SwapSlot()
	f := as.alloc.AllocFor(as.charger) // may panic ErrNoMemory; caught by catchOOM
	if slot != 0 {
		if rerr := as.rec.ReadSlot(slot, as.alloc.Data(f)); rerr != nil {
			as.alloc.Put(f)
			return true, fmt.Errorf("core: swap-in at %v: %w", v, rerr)
		}
	}
	leaf.Lock()
	cur := leaf.Entry(li)
	if !cur.Swapped() || cur.SwapSlot() != slot {
		// Another sharer faulted it in (or the mapping changed) while we
		// were reading; drop our frame and let the access retry.
		leaf.Unlock()
		as.alloc.Put(f)
		return true, nil
	}
	leaf.SetEntry(li, cur.SwapRestore(f))
	leaf.Unlock()
	if m := as.trk(); m != nil {
		m.PageMapped(f, leaf, li, as)
	}
	as.rec.SwapUnref(slot)
	as.SwapIns.Add(1)
	req := as.curReq.Load()
	if as.met.Enabled() {
		as.met.Reclaim.PswpIn.Inc()
		as.met.Reclaim.SwapInLatency.ObserveTagged(time.Since(t0), req)
		if ts := as.tslot; ts != nil {
			ts.Fault.SwapIns.Inc()
		}
	}
	as.trc.SpanReq(trace.KindSwapIn, trace.StageNone, trace.ActorApp, t0, uint64(slot), 0, req)
	return true, nil
}

// ensurePrivateLeafLocked returns the last-level table and index for v,
// guaranteeing the table is exclusively owned by this process (splitting
// a shared table if needed) and reachable with PMD write permission.
func (as *AddressSpace) ensurePrivateLeafLocked(v addr.V) (*pagetable.Table, int) {
	pmd, pi := as.ensurePrivatePMDLocked(v)
	return as.privateChildLocked(pmd, pi, addr.PTE), v.Index(addr.PTE)
}

// ensurePrivatePMDLocked returns the PMD table and index for v,
// guaranteeing the PMD table itself is exclusively owned by this
// process (copying a table shared by the huge-page extension if
// needed). Entry insertions into shared tables would otherwise leak
// mappings into every sharer.
func (as *AddressSpace) ensurePrivatePMDLocked(v addr.V) (*pagetable.Table, int) {
	pud, pi := as.w.EnsurePUD(v)
	return as.privateChildLocked(pud, pi, addr.PMD), v.Index(addr.PMD)
}

// privateChildLocked returns the table of the given level in slot of
// parent, allocating it when absent and splitting it when shared.
func (as *AddressSpace) privateChildLocked(parent *pagetable.Table, slot int, level addr.Level) *pagetable.Table {
	t := parent.Child(slot)
	if t == nil {
		t = pagetable.NewTableFor(as.alloc, level, as.charger)
		parent.SetChild(slot, t, pagetable.FlagWritable|pagetable.FlagUser)
		return t
	}
	return as.splitSharedTableLocked(parent, slot, t)
}

// splitSharedTableLocked implements the table copy-on-write of §3.4–3.5
// at either shared level: old is the last-level table in slot of a PMD
// table, or — under the §4 huge-page extension — the PMD table in slot
// of a PUD table. If old is genuinely shared, the faulting process gets
// a dedicated copy made by the level's copy kernel: every writable page
// it maps is downgraded to COW in *both* tables (the deferred per-page
// work classic fork does eagerly) and the copy takes one page reference
// per mapped page (§3.6) and one share reference per nested table; old
// loses this process's share reference. If this process is the last
// sharer, old is simply re-dedicated by restoring the parent entry's
// writable bit (the fast path the paper describes when the counter
// reaches one).
//
// It returns the table now privately owned by this process.
func (as *AddressSpace) splitSharedTableLocked(parent *pagetable.Table, slot int, old *pagetable.Table) *pagetable.Table {
	// Cheap check before allocating: the last sharer re-dedicates
	// without a copy.
	if old.ShareCount(as.alloc) == 1 {
		old.Lock()
		last := old.ShareCount(as.alloc) == 1
		old.Unlock()
		if last {
			as.dedicate(parent, slot)
			return old
		}
	}

	// Allocate the new table before taking the shared table's lock, so
	// an out-of-memory unwind cannot leave the lock held or the split
	// half-applied. The failpoint fires at the same point for the same
	// reason: nothing has been mutated yet.
	fp := failpoint.FaultTableCopy
	if old.Level == addr.PMD {
		fp = failpoint.FaultPMDSplit
	}
	as.failInject(as.alloc.Failpoints(), fp)
	nt := pagetable.NewTableFor(as.alloc, old.Level, as.charger)
	old.Lock()
	if old.ShareCount(as.alloc) == 1 {
		// Raced with another sharer's split/exit: dedicate instead.
		old.Unlock()
		as.alloc.Put(nt.Frame)
		nt.Recycle()
		as.dedicate(parent, slot)
		return old
	}

	// A genuine split is the deferred table copy of §3.4; a last-level
	// one is timed for the fault.table_copy latency histogram.
	var splitStart time.Time
	as.prof.Charge(profile.PTCopy, 1)
	switch old.Level {
	case addr.PMD:
		as.notePMDSplit()
		as.copyPMDLocked(nt, old)
	default:
		as.TableSplits.Add(1)
		if as.met.Enabled() {
			as.met.Fault.TableSplits.Inc()
			if ts := as.tslot; ts != nil {
				ts.Fault.TableSplits.Inc()
			}
			splitStart = time.Now()
		}
		as.copyLeafLocked(nt, old, as)
	}
	if as.alloc.PTSharePut(old.Frame) == 0 {
		panic("core: shared table refcount reached zero during split")
	}
	old.Unlock()

	parent.SetChild(slot, nt, pagetable.FlagWritable|pagetable.FlagUser)
	if m := as.trk(); m != nil {
		m.OwnerAdd(nt, as)
		m.OwnerRemove(old, as)
	}
	// The old table's entries were COW-downgraded: every sharer's TLB
	// may hold stale writable translations.
	as.sd.Broadcast()
	as.prof.Charge(profile.TLBFlush, 1)
	if !splitStart.IsZero() && as.met.Enabled() {
		as.met.Fault.TableCopyLatency.ObserveTagged(time.Since(splitStart), as.curReq.Load())
	}
	return nt
}

// dedicate restores the writable bit of parent's entry over a table
// this process is now the last sharer of.
func (as *AddressSpace) dedicate(parent *pagetable.Table, slot int) {
	if e := parent.Entry(slot); !e.Writable() {
		parent.SetEntry(slot, e.With(pagetable.FlagWritable))
		as.noteFastDedup()
	}
}

// copyPMDLocked is copyLeafLocked one level up: it fills the unpublished
// PMD table dst with a copy of src, whose lock the caller holds. Huge
// entries are COW-downgraded in both and their heads referenced in one
// batch; nested last-level tables become shared between the two, as a
// plain on-demand fork would share them. Only when reclaim is tracking
// are dst's huge mappings and its nested tables registered to this
// space, in a pass of their own.
func (as *AddressSpace) copyPMDLocked(dst, src *pagetable.Table) {
	var heads pagetable.LeafFrames
	as.alloc.GetBatch(heads[:dst.CopyPMDFrom(src, &heads, as.alloc)])
	if m := as.trk(); m != nil {
		for i := 0; i < addr.EntriesPerTable; i++ {
			if e := dst.Entry(i); e.Huge() {
				m.HugeMapped(e.Frame(), dst, i, as)
			} else if t := dst.Child(i); t != nil {
				m.OwnerAdd(t, as)
			}
		}
	}
}

// copyLeafLocked fills the unpublished table dst with a copy-on-write
// copy of the last-level table src, whose lock the caller holds — the
// whole of a table split, and the per-slot work of classic fork: entries
// and their COW downgrade in one kernel pass, one page reference per
// present entry in one batch, one slot reference per swap entry, and,
// only when reclaim is tracking, dst's reverse mappings on behalf of
// owner in a pass of their own. It returns the present entries copied.
func (as *AddressSpace) copyLeafLocked(dst, src *pagetable.Table, owner *AddressSpace) int {
	var frames pagetable.LeafFrames
	n := dst.CopyLeafFrom(src, &frames, as.rec.SwapRef)
	as.alloc.GetBatch(frames[:n])
	if m := as.trk(); m != nil {
		for i := 0; i < addr.EntriesPerTable; i++ {
			if e := dst.Entry(i); e.Present() {
				m.PageMapped(e.Frame(), dst, i, owner)
			}
		}
	}
	return n
}

// pageCOWLocked resolves a write to a write-protected 4 KiB page in a
// dedicated table: reuse the page if this table is its only user,
// otherwise copy it.
func (as *AddressSpace) pageCOWLocked(tr pagetable.Translation) {
	leaf, li := tr.Leaf, tr.LeafIndex
	e := leaf.Entry(li)
	if !e.Present() || e.Writable() {
		return // resolved concurrently
	}
	f := e.Frame()
	as.failInject(as.alloc.Failpoints(), failpoint.FaultPageCopy)
	var nf phys.Frame
	if as.alloc.RefCount(f) > 1 {
		// Allocate outside the table lock so OOM cannot strand it.
		nf = as.alloc.AllocFor(as.charger)
	}
	leaf.Lock()
	defer leaf.Unlock()
	e = leaf.Entry(li)
	if !e.Present() || e.Writable() || e.Frame() != f {
		if nf.Valid() {
			as.alloc.Put(nf)
		}
		return // resolved concurrently
	}
	if as.alloc.RefCount(f) == 1 {
		// Sole user: the COW downgrade can simply be undone (the
		// kernel's do_wp_page reuse path).
		if nf.Valid() {
			as.alloc.Put(nf)
		}
		leaf.SetEntry(li, e.Without(pagetable.FlagCOW).With(
			pagetable.FlagWritable|pagetable.FlagDirty|pagetable.FlagAccessed))
		return
	}
	if !nf.Valid() {
		nf = as.alloc.AllocFor(as.charger)
	}
	if !as.alloc.CopyPage(nf, f) {
		as.noteZeroElides(1)
	}
	if m := as.trk(); m != nil {
		m.PageUnmapped(f, leaf, li)
	}
	as.alloc.Put(f)
	as.notePageCopy()
	leaf.SetEntry(li, pagetable.MakeEntry(nf,
		pagetable.FlagWritable|pagetable.FlagUser|pagetable.FlagDirty|pagetable.FlagAccessed))
	if m := as.trk(); m != nil {
		m.PageMapped(nf, leaf, li, as)
	}
}

// hugeCOWLocked resolves a write to a write-protected 2 MiB page: the
// 512-page copy whose latency the paper's Table 1 highlights.
func (as *AddressSpace) hugeCOWLocked(tr pagetable.Translation) {
	pmd, pi := tr.PMDTable, tr.PMDIndex
	e := pmd.Entry(pi)
	if !e.Present() || !e.Huge() || e.Writable() {
		return
	}
	head := e.Frame()
	if as.alloc.RefCount(head) == 1 {
		pmd.SetEntry(pi, e.Without(pagetable.FlagCOW).With(
			pagetable.FlagWritable|pagetable.FlagDirty|pagetable.FlagAccessed))
		return
	}
	as.failInject(as.alloc.Failpoints(), failpoint.FaultHugeCopy)
	nh := as.alloc.AllocHugeFor(as.charger)
	copied := as.alloc.CopyHugePage(nh, head)
	as.noteZeroElides(uint64(addr.EntriesPerTable - copied))
	if m := as.trk(); m != nil {
		m.HugeUnmapped(head, pmd, pi)
	}
	as.alloc.Put(head)
	as.noteHugeCopy()
	pmd.SetEntry(pi, pagetable.MakeEntry(nh,
		pagetable.FlagHuge|pagetable.FlagWritable|pagetable.FlagUser|
			pagetable.FlagDirty|pagetable.FlagAccessed))
	if m := as.trk(); m != nil {
		m.HugeMapped(nh, pmd, pi, as)
	}
}
