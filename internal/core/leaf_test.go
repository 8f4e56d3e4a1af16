package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/mem/phys"
	"repro/internal/mem/reclaim"
	"repro/internal/metrics"
	"repro/internal/profile"
)

// copyLeafLocked and drainLeafLocked are held to the per-entry loops
// they replaced in the leaf table split, copyPMDRangeClassic, the leaf
// table release and zapRangeLocked, and copyPMDLocked and the PMD arm of
// releaseTableRef to those of the PMD table split and release, kept here
// as the reference: one Swap-and-tally SetEntry, one Get or Put and one
// reverse-map hook per entry, in entry order.

func refCopyLeaf(as *AddressSpace, dst, src *pagetable.Table, owner *AddressSpace) int {
	n := 0
	for i := 0; i < addr.EntriesPerTable; i++ {
		e := src.Entry(i)
		if e.Swapped() {
			dst.SetEntry(i, e)
			as.rec.SwapRef(e.SwapSlot())
			continue
		}
		if !e.Present() {
			continue
		}
		if e.Writable() {
			e = e.Without(pagetable.FlagWritable | pagetable.FlagDirty).With(pagetable.FlagCOW)
			src.SetEntry(i, e)
		}
		dst.SetEntry(i, e)
		as.alloc.Get(e.Frame())
		if m := as.trk(); m != nil {
			m.PageMapped(e.Frame(), dst, i, owner)
		}
		n++
	}
	return n
}

func refDrainLeaf(as *AddressSpace, leaf *pagetable.Table, lo, hi int) {
	for i := lo; i < hi; i++ {
		if e := leaf.Entry(i); e.Present() {
			if m := as.trk(); m != nil {
				m.PageUnmapped(e.Frame(), leaf, i)
			}
			as.alloc.Put(e.Frame())
			leaf.SetEntry(i, 0)
		} else if e.Swapped() {
			as.rec.SwapUnref(e.SwapSlot())
			leaf.SetEntry(i, 0)
		}
	}
}

func refCopyPMD(as *AddressSpace, dst, src *pagetable.Table, owner *AddressSpace) {
	for i := 0; i < addr.EntriesPerTable; i++ {
		e := src.Entry(i)
		if !e.Present() {
			continue
		}
		if e.Huge() {
			if e.Writable() {
				e = e.Without(pagetable.FlagWritable | pagetable.FlagDirty).With(pagetable.FlagCOW)
				src.SetEntry(i, e)
			}
			dst.SetEntry(i, e)
			as.alloc.Get(e.Frame())
			if m := as.trk(); m != nil {
				m.HugeMapped(e.Frame(), dst, i, owner)
			}
			continue
		}
		if leaf := src.Child(i); leaf != nil {
			shared := e.Without(pagetable.FlagWritable)
			src.SetEntry(i, shared)
			dst.SetChild(i, leaf, shared)
			as.alloc.PTShareGet(leaf.Frame)
			if m := as.trk(); m != nil {
				m.OwnerAdd(leaf, owner)
			}
		}
	}
}

func refReleasePMD(as *AddressSpace, t *pagetable.Table) {
	t.Lock()
	if as.alloc.PTSharePut(t.Frame) > 0 {
		t.Unlock()
		if m := as.trk(); m != nil {
			m.OwnerRemove(t, as)
		}
		return
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		e := t.Entry(i)
		if !e.Present() {
			continue
		}
		if e.Huge() {
			if m := as.trk(); m != nil {
				m.HugeUnmapped(e.Frame(), t, i)
			}
			as.alloc.Put(e.Frame())
			t.SetEntry(i, 0)
			continue
		}
		if leaf := t.Child(i); leaf != nil {
			t.SetChild(i, nil, 0)
			as.releaseTableRef(leaf)
		}
	}
	t.Unlock()
	if m := as.trk(); m != nil {
		m.TableFreed(t)
	}
	as.alloc.Put(t.Frame)
	t.Recycle()
}

// sharedCounter is a tenant charger that only counts.
type sharedCounter struct{ frames, shared atomic.Int64 }

func (c *sharedCounter) ChargeFrames(n int64)   { c.frames.Add(n) }
func (c *sharedCounter) UnchargeFrames(n int64) { c.frames.Add(-n) }
func (c *sharedCounter) AdjustShared(n int64)   { c.shared.Add(n) }

// leafWorld is one allocator with everything the table helpers touch
// hanging off it, and one random source table. Two worlds built from the
// same seed are identical down to the frame numbers (the caller pins
// GOMAXPROCS to one, so the allocator has a single shard).
type leafWorld struct {
	alloc        *phys.Allocator
	prof         *profile.Profiler
	rec          *reclaim.Manager
	c            *sharedCounter
	charger      phys.FrameCharger
	owner, other *AddressSpace // src belongs to owner; the copy is made for other
	src, dst     *pagetable.Table
	frames       []phys.Frame       // every data frame an entry maps
	extra        []phys.Frame       // references held outside the tables
	nested       []*pagetable.Table // a PMD source's last-level tables
	sharer       *AddressSpace      // holds extraShares, as a third process would
	extraShares  []*pagetable.Table // share references held outside the tables
}

// newWorld builds a world with empty source and destination tables of
// the given level.
func newWorld(t *testing.T, level addr.Level, tracking, charged bool) *leafWorld {
	t.Helper()
	w := &leafWorld{prof: profile.New()}
	w.alloc = phys.NewAllocator(w.prof)
	met := metrics.New()
	w.alloc.SetMetrics(met)
	w.rec = reclaim.NewManager(w.alloc, met)
	w.alloc.SetReclaimer(w.rec)
	if tracking {
		w.rec.SetEnabled(true)
		t.Cleanup(func() { w.rec.SetEnabled(false) })
	}
	w.owner, w.other = NewAddressSpace(w.alloc, w.prof), NewAddressSpace(w.alloc, w.prof)
	if charged {
		w.c = &sharedCounter{}
		w.charger = w.c
		w.owner.SetTenant(1, w.c)
		w.other.SetTenant(1, w.c)
	}
	w.src = pagetable.NewTableFor(w.alloc, level, w.charger)
	w.dst = pagetable.NewTableFor(w.alloc, level, w.charger)
	return w
}

func buildLeafWorld(t *testing.T, seed int64, tracking, charged bool) *leafWorld {
	t.Helper()
	w := newWorld(t, addr.PTE, tracking, charged)
	charger := w.charger
	rng := rand.New(rand.NewSource(seed))
	density := []float64{0.02, 0.3, 0.9, 1}[seed%4]
	var huge phys.Frame // a compound page some entries map tails of
	mapFrame := func(i int, f phys.Frame, flags pagetable.Entry) {
		w.src.SetEntry(i, pagetable.MakeEntry(f, flags))
		w.frames = append(w.frames, f)
		if tracking {
			w.rec.PageMapped(f, w.src, i, w.owner)
		}
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		if rng.Float64() >= density {
			continue
		}
		flags := pagetable.FlagUser
		if rng.Intn(2) == 0 {
			flags |= pagetable.FlagAccessed
		}
		switch kind := rng.Intn(10); {
		case kind < 3: // private and writable, as before the first fork
			if rng.Intn(2) == 0 {
				flags |= pagetable.FlagDirty
			}
			mapFrame(i, w.alloc.AllocFor(charger), flags|pagetable.FlagWritable)
		case kind < 5: // COW, already shared with another table somewhere
			f := w.alloc.AllocFor(charger)
			w.alloc.Get(f)
			w.extra = append(w.extra, f)
			mapFrame(i, f, flags|pagetable.FlagCOW)
		case kind < 6: // COW, the other sharer gone
			mapFrame(i, w.alloc.AllocFor(charger), flags|pagetable.FlagCOW)
		case kind < 7: // read-only mapping
			mapFrame(i, w.alloc.AllocFor(charger), flags)
		case kind < 8: // a tail of a compound page: the reference lives on the head
			if !huge.Valid() {
				huge = w.alloc.AllocHugeFor(charger)
			} else {
				w.alloc.Get(huge)
			}
			mapFrame(i, huge+phys.Frame(1+rng.Intn(addr.EntriesPerTable-1)), flags|pagetable.FlagWritable)
		default: // swapped out; slot 0 is the zero page
			slot := uint64(rng.Intn(4)) * 7
			from := pagetable.MakeEntry(1, pagetable.FlagUser|pagetable.FlagWritable)
			if rng.Intn(2) == 0 {
				from = pagetable.MakeEntry(1, pagetable.FlagUser|pagetable.FlagCOW)
			}
			w.src.SetEntry(i, pagetable.MakeSwapEntry(slot, from))
			w.rec.SwapRef(slot)
		}
	}
	return w
}

// buildPMDWorld fills the source with a random PMD table: writable,
// COW and read-only huge pages, and nested last-level tables — some
// shared with a sharer the test stands in for — mapping a few pages each.
func buildPMDWorld(t *testing.T, seed int64, tracking, charged bool) *leafWorld {
	t.Helper()
	w := newWorld(t, addr.PMD, tracking, charged)
	w.sharer = NewAddressSpace(w.alloc, w.prof)
	rng := rand.New(rand.NewSource(seed))
	density := []float64{0.01, 0.03, 0.06, 0.12}[seed%4]
	mapHuge := func(i int, head phys.Frame, flags pagetable.Entry) {
		w.src.SetEntry(i, pagetable.MakeEntry(head, flags|pagetable.FlagHuge))
		w.frames = append(w.frames, head)
		if tracking {
			w.rec.HugeMapped(head, w.src, i, w.owner)
		}
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		if rng.Float64() >= density {
			continue
		}
		flags := pagetable.FlagUser
		if rng.Intn(2) == 0 {
			flags |= pagetable.FlagAccessed
		}
		switch kind := rng.Intn(10); {
		case kind < 3: // private and writable
			if rng.Intn(2) == 0 {
				flags |= pagetable.FlagDirty
			}
			mapHuge(i, w.alloc.AllocHugeFor(w.charger), flags|pagetable.FlagWritable)
		case kind < 4: // COW, shared with another table somewhere
			f := w.alloc.AllocHugeFor(w.charger)
			w.alloc.Get(f)
			w.extra = append(w.extra, f)
			mapHuge(i, f, flags|pagetable.FlagCOW)
		case kind < 5: // COW, the other sharer gone
			mapHuge(i, w.alloc.AllocHugeFor(w.charger), flags|pagetable.FlagCOW)
		case kind < 6: // read-only
			mapHuge(i, w.alloc.AllocHugeFor(w.charger), flags)
		default: // a nested last-level table, behind a writable or a shared entry
			leaf := pagetable.NewTableFor(w.alloc, addr.PTE, w.charger)
			for n := rng.Intn(4); n > 0; n-- {
				li := rng.Intn(addr.EntriesPerTable)
				if leaf.Entry(li).Present() {
					continue
				}
				f := w.alloc.AllocFor(w.charger)
				leaf.SetEntry(li, pagetable.MakeEntry(f, pagetable.FlagUser|pagetable.FlagCOW))
				w.frames = append(w.frames, f)
				if tracking {
					w.rec.PageMapped(f, leaf, li, w.owner)
				}
			}
			if rng.Intn(2) == 0 {
				w.alloc.PTShareGet(leaf.Frame)
				w.extraShares = append(w.extraShares, leaf)
				if tracking {
					w.rec.OwnerAdd(leaf, w.sharer)
				}
			} else {
				flags |= pagetable.FlagWritable
			}
			w.src.SetChild(i, leaf, flags)
			w.nested = append(w.nested, leaf)
			if tracking {
				w.rec.OwnerAdd(leaf, w.owner)
			}
		}
	}
	return w
}

// tables returns the world's source and destination tables that are
// still live, by name.
func (w *leafWorld) tables() map[string]*pagetable.Table {
	tables := map[string]*pagetable.Table{}
	if w.src != nil {
		tables["source"] = w.src
	}
	if w.dst != nil {
		tables["destination"] = w.dst
	}
	return tables
}

// wantSlots counts the swap entries of the world's two tables per slot.
func (w *leafWorld) wantSlots() map[uint64]int64 {
	slots := map[uint64]int64{}
	for _, tb := range w.tables() {
		for i := 0; i < addr.EntriesPerTable; i++ {
			if e := tb.Entry(i); e.Swapped() {
				slots[e.SwapSlot()]++
			}
		}
	}
	return slots
}

// sameLeafWorld requires got (driven through the helpers) to be in the
// state of ref (driven through the per-entry reference): entry words,
// nested tables and tallies of both tables while they live, every
// frame's reference count, nested tables' share counts and owners, live
// frames, swap-slot counts, reverse-map contents, charger counts and
// profile counters.
func sameLeafWorld(t *testing.T, what string, got, ref *leafWorld) {
	t.Helper()
	refTables := ref.tables()
	if len(got.tables()) != len(refTables) {
		t.Fatalf("%s: %d tables live, reference %d", what, len(got.tables()), len(refTables))
	}
	for name, g := range got.tables() {
		r := refTables[name]
		for i := 0; i < addr.EntriesPerTable; i++ {
			ge, re := g.Entry(i), r.Entry(i)
			if ge != re {
				t.Fatalf("%s: %s entry %d = %#x, reference %#x", what, name, i, uint64(ge), uint64(re))
			}
			if gc, rc := g.Child(i), r.Child(i); (gc == nil) != (rc == nil) || gc != nil && gc.Frame != rc.Frame {
				t.Fatalf("%s: %s child %d differs from the reference", what, name, i)
			}
			if ge.Present() {
				if gm, rm := got.rec.Mapped(ge.Frame(), g, i), ref.rec.Mapped(re.Frame(), r, i); gm != rm {
					t.Fatalf("%s: %s entry %d in the reverse map = %v, reference %v", what, name, i, gm, rm)
				}
			}
		}
		if g.PresentCount() != r.PresentCount() || g.HugeCount() != r.HugeCount() || g.SwapCount() != r.SwapCount() {
			t.Fatalf("%s: %s tallies present/huge/swapped = %d/%d/%d, reference %d/%d/%d", what, name,
				g.PresentCount(), g.HugeCount(), g.SwapCount(), r.PresentCount(), r.HugeCount(), r.SwapCount())
		}
	}
	for i, f := range got.frames {
		if rf := ref.frames[i]; rf != f {
			t.Fatalf("%s: twin worlds map different frames (%d vs %d)", what, f, rf)
		}
		if g, r := got.alloc.RefCount(f), ref.alloc.RefCount(f); g != r {
			t.Fatalf("%s: frame %d refcount %d, reference %d", what, f, g, r)
		}
	}
	for i, g := range got.nested {
		r := ref.nested[i]
		if gs, rs := g.ShareCount(got.alloc), r.ShareCount(ref.alloc); gs != rs {
			t.Fatalf("%s: nested table %d share count %d, reference %d", what, i, gs, rs)
		}
		for _, sp := range [][2]*AddressSpace{{got.owner, ref.owner}, {got.other, ref.other}} {
			if g, r := got.rec.Owns(g, sp[0]), ref.rec.Owns(r, sp[1]); g != r {
				t.Fatalf("%s: nested table %d ownership record %v, reference %v", what, i, g, r)
			}
		}
	}
	if g, r := got.alloc.Allocated(), ref.alloc.Allocated(); g != r {
		t.Fatalf("%s: %d frames allocated, reference %d", what, g, r)
	}
	for _, w := range []*leafWorld{got, ref} {
		// Slot counts against the tables, and no stale reverse mapping.
		if err := w.rec.VerifyBookkeeping(w.wantSlots()); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if got.c != nil {
		if g, r := got.c.frames.Load(), ref.c.frames.Load(); g != r {
			t.Fatalf("%s: charger holds %d frames, reference %d", what, g, r)
		}
		if g, r := got.c.shared.Load(), ref.c.shared.Load(); g != r {
			t.Fatalf("%s: charger shared count %d, reference %d", what, g, r)
		}
	}
	if g, r := got.prof.String(), ref.prof.String(); g != r {
		t.Fatalf("%s: profile counters\n%s\nreference\n%s", what, g, r)
	}
}

func TestLeafHelpersMatchPerEntryReference(t *testing.T) {
	// One shard, so that twin worlds hand out the same frames.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for seed := int64(1); seed <= 24; seed++ {
		for _, tracking := range []bool{false, true} {
			for _, charged := range []bool{false, true} {
				got := buildLeafWorld(t, seed, tracking, charged)
				ref := buildLeafWorld(t, seed, tracking, charged)
				what := func(step string) string {
					return fmt.Sprintf("seed %d tracking=%v charged=%v: %s", seed, tracking, charged, step)
				}
				sameLeafWorld(t, what("built"), got, ref)

				n := got.owner.copyLeafLocked(got.dst, got.src, got.other)
				if rn := refCopyLeaf(ref.owner, ref.dst, ref.src, ref.other); n != rn {
					t.Fatalf("%s: %d present entries copied, reference %d", what("copy"), n, rn)
				}
				sameLeafWorld(t, what("copy"), got, ref)

				rng := rand.New(rand.NewSource(seed))
				lo := rng.Intn(addr.EntriesPerTable)
				hi := lo + rng.Intn(addr.EntriesPerTable-lo+1)
				got.owner.drainLeafLocked(got.src, lo, hi)
				refDrainLeaf(ref.owner, ref.src, lo, hi)
				sameLeafWorld(t, what(fmt.Sprintf("drain [%d,%d) of the source", lo, hi)), got, ref)

				got.other.drainLeafLocked(got.dst, 0, addr.EntriesPerTable)
				refDrainLeaf(ref.other, ref.dst, 0, addr.EntriesPerTable)
				sameLeafWorld(t, what("drain of the copy"), got, ref)

				got.owner.drainLeafLocked(got.src, 0, addr.EntriesPerTable)
				refDrainLeaf(ref.owner, ref.src, 0, addr.EntriesPerTable)
				sameLeafWorld(t, what("drain of the rest"), got, ref)

				for _, w := range []*leafWorld{got, ref} {
					for _, tb := range []*pagetable.Table{w.src, w.dst} {
						w.alloc.Put(tb.Frame)
						tb.Recycle()
					}
				}
				teardownWorlds(t, what("teardown"), got, ref)

				// Eight seeds cover each PMD density twice; the huge
				// pages make a PMD world the costlier one to build.
				if seed <= 8 {
					checkPMDHelpers(t, seed, tracking, charged)
				}
			}
		}
	}
}

// checkPMDHelpers is the PMD arm of TestLeafHelpersMatchPerEntryReference:
// copy a random PMD table for the other space, release the copy, then
// release the source.
func checkPMDHelpers(t *testing.T, seed int64, tracking, charged bool) {
	t.Helper()
	got := buildPMDWorld(t, seed, tracking, charged)
	ref := buildPMDWorld(t, seed, tracking, charged)
	what := func(step string) string {
		return fmt.Sprintf("seed %d tracking=%v charged=%v: PMD %s", seed, tracking, charged, step)
	}
	sameLeafWorld(t, what("built"), got, ref)

	got.other.copyPMDLocked(got.dst, got.src)
	refCopyPMD(ref.owner, ref.dst, ref.src, ref.other)
	sameLeafWorld(t, what("copy"), got, ref)

	got.other.releaseTableRef(got.dst)
	refReleasePMD(ref.other, ref.dst)
	got.dst, ref.dst = nil, nil
	sameLeafWorld(t, what("release of the copy"), got, ref)

	got.owner.releaseTableRef(got.src)
	refReleasePMD(ref.owner, ref.src)
	got.src, ref.src = nil, nil
	sameLeafWorld(t, what("release of the source"), got, ref)

	for _, w := range []*leafWorld{got, ref} {
		for _, leaf := range w.extraShares {
			w.sharer.releaseTableRef(leaf)
		}
	}
	teardownWorlds(t, what("teardown"), got, ref)
}

// teardownWorlds drops the references the test holds and requires that
// nothing else outlives the tables.
func teardownWorlds(t *testing.T, what string, worlds ...*leafWorld) {
	t.Helper()
	for _, w := range worlds {
		w.alloc.PutBatch(w.extra)
		for _, as := range []*AddressSpace{w.owner, w.other, w.sharer} {
			if as != nil {
				as.Teardown()
			}
		}
		if n := w.alloc.Allocated(); n != 0 {
			t.Fatalf("%s: %d frames leaked", what, n)
		}
		if st := w.rec.Stats(); st.SwapSlots != 0 {
			t.Fatalf("%s: %d swap slots leaked", what, st.SwapSlots)
		}
	}
}

// leafWords snapshots every entry word of every last-level table of the
// space, in address order.
func leafWords(as *AddressSpace, r addr.Range) []pagetable.Entry {
	var words []pagetable.Entry
	as.w.VisitLeafTables(r, func(_ *pagetable.Table, _ int, leaf *pagetable.Table, _ addr.V) {
		for i := 0; i < addr.EntriesPerTable; i++ {
			words = append(words, leaf.Entry(i))
		}
	})
	return words
}

// pmdWords snapshots the entry words of the PMD table covering v.
func pmdWords(as *AddressSpace, v addr.V) []pagetable.Entry {
	pud, pi := as.w.FindPUD(v)
	pmd := pud.Child(pi)
	words := make([]pagetable.Entry, addr.EntriesPerTable)
	for i := range words {
		words[i] = pmd.Entry(i)
	}
	return words
}

// TestLeafCopyFailpointsLeaveSourceUntouched: the failpoints in front of
// a table copy — classic fork's, and a table split's at either shared
// level — fire before the first store to the source table, so an
// injected failure leaves every source entry — writable bits included —
// exactly as it was, with no reference taken.
func TestLeafCopyFailpointsLeaveSourceUntouched(t *testing.T) {
	as, base, size := preparedParent(t)
	defer as.Teardown()
	r := addr.NewRange(base, size)
	fp := failpoint.New(1)
	as.Allocator().SetFailpoints(fp)
	words := leafWords(as, r)
	frames := as.Allocator().Allocated()
	unchanged := func(what string) {
		t.Helper()
		for i, e := range leafWords(as, r) {
			if e != words[i] {
				t.Fatalf("%s: source entry %d of table %d changed from %#x to %#x",
					what, i%addr.EntriesPerTable, i/addr.EntriesPerTable, uint64(words[i]), uint64(e))
			}
		}
	}

	// Classic fork: the failpoint sits in front of the first slot's copy.
	if err := fp.Set(failpoint.ForkRefcount, "once"); err != nil {
		t.Fatal(err)
	}
	child, err := ForkWithOptions(as, ForkClassic, ForkOptions{})
	checkAbortedFork(t, as, child, err, frames)
	unchanged("aborted classic fork")

	// Table split, at the last level and — under the huge-page
	// extension — at the PMD level: share the tables, then fail the
	// child's first write.
	hp, hbase := hugeParent(t, 2)
	defer hp.Teardown()
	hp.Allocator().SetFailpoints(fp)
	for _, lv := range []struct {
		name, point string
		parent      *AddressSpace
		opts        ForkOptions
		v           addr.V
		words       func() []pagetable.Entry
		splits      func(*AddressSpace) uint64
	}{
		{"table split", failpoint.FaultTableCopy, as, ForkOptions{}, base,
			func() []pagetable.Entry { return leafWords(as, r) },
			func(c *AddressSpace) uint64 { return c.TableSplits.Load() }},
		{"PMD split", failpoint.FaultPMDSplit, hp, shareHuge, hbase,
			func() []pagetable.Entry { return pmdWords(hp, hbase) },
			func(c *AddressSpace) uint64 { return c.PMDSplits.Load() }},
	} {
		child, err := ForkWithOptions(lv.parent, ForkOnDemand, lv.opts)
		if err != nil {
			t.Fatal(err)
		}
		defer child.Teardown()
		words, shared := lv.words(), lv.parent.Allocator().Allocated()
		if err := fp.Set(lv.point, "once"); err != nil {
			t.Fatal(err)
		}
		if err := child.Touch(lv.v, true); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("write under an injected %s failure: err = %v, want ErrOutOfMemory", lv.name, err)
		}
		for i, e := range lv.words() {
			if e != words[i] {
				t.Fatalf("aborted %s: source entry %d changed from %#x to %#x", lv.name, i, uint64(words[i]), uint64(e))
			}
		}
		if got := lv.parent.Allocator().Allocated(); got != shared {
			t.Errorf("aborted %s left %d frames allocated, want %d", lv.name, got, shared)
		}
		if got := lv.splits(child); got != 0 {
			t.Errorf("aborted %s counted %d splits", lv.name, got)
		}
		if err := CheckInvariants(lv.parent, child); err != nil {
			t.Fatal(err)
		}
		// Disarmed, the same write splits the table and downgrades the source.
		if err := child.Touch(lv.v, true); err != nil {
			t.Fatal(err)
		}
		if got := lv.splits(child); got != 1 {
			t.Errorf("retried write after an aborted %s performed %d splits, want 1", lv.name, got)
		}
		if err := CheckInvariants(lv.parent, child); err != nil {
			t.Fatal(err)
		}
	}
}

// benchLeaf maps 512 distinct frames COW — the state of every table a
// fork server splits after its first fork: nothing left to downgrade,
// the copy is all there is.
func benchLeaf(b *testing.B) (*AddressSpace, *pagetable.Table) {
	as := newSpace()
	b.Cleanup(as.Teardown)
	leaf := pagetable.NewTable(as.alloc, addr.PTE)
	for i := 0; i < addr.EntriesPerTable; i++ {
		leaf.SetEntry(i, pagetable.MakeEntry(as.alloc.Alloc(), pagetable.FlagUser|pagetable.FlagCOW))
	}
	return as, leaf
}

func reportPerEntry(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/addr.EntriesPerTable, "ns/entry")
}

// BenchmarkLeafCopy prices one leaf copy per entry: the entry kernel by
// itself, and with the page reference count it exists to batch.
func BenchmarkLeafCopy(b *testing.B) {
	b.Run("kernel", func(b *testing.B) {
		as, src := benchLeaf(b)
		dst := pagetable.NewTable(as.alloc, addr.PTE)
		var frames pagetable.LeafFrames
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.CopyLeafFrom(src, &frames, nil)
		}
		reportPerEntry(b)
	})
	b.Run("with-refs", func(b *testing.B) {
		as, src := benchLeaf(b)
		dst := pagetable.NewTable(as.alloc, addr.PTE)
		var frames pagetable.LeafFrames
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			as.copyLeafLocked(dst, src, as)
			b.StopTimer()
			as.alloc.PutBatch(frames[:dst.DrainLeaf(0, addr.EntriesPerTable, &frames, nil)])
			b.StartTimer()
		}
		reportPerEntry(b)
	})
}

// BenchmarkLeafDrain prices one leaf drain per entry the same way. The
// frames stay referenced by the source table, as a fork server's do by
// the parent: the drain decrements, it does not free.
func BenchmarkLeafDrain(b *testing.B) {
	b.Run("kernel", func(b *testing.B) {
		as, src := benchLeaf(b)
		dst := pagetable.NewTable(as.alloc, addr.PTE)
		var frames pagetable.LeafFrames
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst.CopyLeafFrom(src, &frames, nil)
			b.StartTimer()
			dst.DrainLeaf(0, addr.EntriesPerTable, &frames, nil)
		}
		reportPerEntry(b)
	})
	b.Run("with-refs", func(b *testing.B) {
		as, src := benchLeaf(b)
		dst := pagetable.NewTable(as.alloc, addr.PTE)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			as.copyLeafLocked(dst, src, as)
			b.StartTimer()
			as.drainLeafLocked(dst, 0, addr.EntriesPerTable)
		}
		reportPerEntry(b)
	})
}
