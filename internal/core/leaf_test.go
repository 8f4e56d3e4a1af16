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
// they replaced in splitSharedLeafLocked, copyPMDRangeClassic,
// releaseLeafRef and zapRangeLocked, kept here as the reference: one
// Swap-and-tally SetEntry, one Get or Put and one reverse-map hook per
// entry, in entry order.

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

// sharedCounter is a tenant charger that only counts.
type sharedCounter struct{ frames, shared atomic.Int64 }

func (c *sharedCounter) ChargeFrames(n int64)   { c.frames.Add(n) }
func (c *sharedCounter) UnchargeFrames(n int64) { c.frames.Add(-n) }
func (c *sharedCounter) AdjustShared(n int64)   { c.shared.Add(n) }

// leafWorld is one allocator with everything the leaf helpers touch
// hanging off it, and one random source leaf. Two worlds built from the
// same seed are identical down to the frame numbers (the caller pins
// GOMAXPROCS to one, so the allocator has a single shard).
type leafWorld struct {
	alloc        *phys.Allocator
	prof         *profile.Profiler
	rec          *reclaim.Manager
	c            *sharedCounter
	owner, other *AddressSpace // src belongs to owner; the copy is made for other
	src, dst     *pagetable.Table
	frames       []phys.Frame // every data frame an entry maps
	extra        []phys.Frame // references held outside the tables
}

func buildLeafWorld(t *testing.T, seed int64, tracking, charged bool) *leafWorld {
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
	var charger phys.FrameCharger
	if charged {
		w.c = &sharedCounter{}
		charger = w.c
		w.owner.SetTenant(1, w.c)
		w.other.SetTenant(1, w.c)
	}
	w.src = pagetable.NewTableFor(w.alloc, addr.PTE, charger)
	w.dst = pagetable.NewTableFor(w.alloc, addr.PTE, charger)

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

// wantSlots counts the swap entries of the world's two tables per slot.
func (w *leafWorld) wantSlots() map[uint64]int64 {
	slots := map[uint64]int64{}
	for _, tb := range []*pagetable.Table{w.src, w.dst} {
		for i := 0; i < addr.EntriesPerTable; i++ {
			if e := tb.Entry(i); e.Swapped() {
				slots[e.SwapSlot()]++
			}
		}
	}
	return slots
}

// sameLeafWorld requires got (driven through the helpers) to be in the
// state of ref (driven through the per-entry reference): entry words and
// tallies of both tables, every frame's reference count, live frames,
// swap-slot counts, reverse-map contents, charger counts and profile
// counters.
func sameLeafWorld(t *testing.T, what string, got, ref *leafWorld) {
	t.Helper()
	tables := func(w *leafWorld) [2]*pagetable.Table { return [2]*pagetable.Table{w.src, w.dst} }
	for ti, name := range []string{"source", "destination"} {
		g, r := tables(got)[ti], tables(ref)[ti]
		for i := 0; i < addr.EntriesPerTable; i++ {
			ge, re := g.Entry(i), r.Entry(i)
			if ge != re {
				t.Fatalf("%s: %s entry %d = %#x, reference %#x", what, name, i, uint64(ge), uint64(re))
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

				// Nothing may outlive the tables but what the test holds.
				for _, w := range []*leafWorld{got, ref} {
					w.alloc.PutBatch(w.extra)
					for _, tb := range []*pagetable.Table{w.src, w.dst} {
						w.alloc.Put(tb.Frame)
						tb.Recycle()
					}
					w.owner.Teardown()
					w.other.Teardown()
					if n := w.alloc.Allocated(); n != 0 {
						t.Fatalf("%s: %d frames leaked", what("teardown"), n)
					}
					if st := w.rec.Stats(); st.SwapSlots != 0 {
						t.Fatalf("%s: %d swap slots leaked", what("teardown"), st.SwapSlots)
					}
				}
			}
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

// TestLeafCopyFailpointsLeaveSourceUntouched: the two failpoints in
// front of a leaf copy fire before the first store to the source table,
// so an injected failure leaves every source entry — writable bits
// included — exactly as it was, with no reference taken.
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

	// Table split: share the tables, then fail the child's first write.
	child, err = ForkWithOptions(as, ForkOnDemand, ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer child.Teardown()
	shared := as.Allocator().Allocated()
	if err := fp.Set(failpoint.FaultTableCopy, "once"); err != nil {
		t.Fatal(err)
	}
	if err := child.Touch(base, true); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("write under an injected table-copy failure: err = %v, want ErrOutOfMemory", err)
	}
	unchanged("aborted table split")
	if got := as.Allocator().Allocated(); got != shared {
		t.Errorf("aborted table split left %d frames allocated, want %d", got, shared)
	}
	if got := child.TableSplits.Load(); got != 0 {
		t.Errorf("aborted table split counted %d splits", got)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
	// Disarmed, the same write splits the table and downgrades the source.
	if err := child.Touch(base, true); err != nil {
		t.Fatal(err)
	}
	if got := child.TableSplits.Load(); got != 1 {
		t.Errorf("retried write performed %d splits, want 1", got)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
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
