package pagetable

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
)

// The kernels are held to the per-entry code they replaced, kept here as
// the reference: a Swap-and-tally SetEntry per slot.

func refCopyLeaf(dst, src *Table, swapSlot func(uint64)) (frames []phys.Frame) {
	for i := 0; i < addr.EntriesPerTable; i++ {
		e := src.Entry(i)
		dst.SetEntry(i, e)
		if e.Swapped() {
			swapSlot(e.SwapSlot())
			continue
		}
		if !e.Present() {
			continue
		}
		if e.Writable() {
			e = e.Without(FlagWritable | FlagDirty).With(FlagCOW)
			src.SetEntry(i, e)
			dst.SetEntry(i, e)
		}
		frames = append(frames, e.Frame())
	}
	return frames
}

func refDrainLeaf(t *Table, lo, hi int, swapSlot func(uint64)) (frames []phys.Frame) {
	for i := lo; i < hi; i++ {
		if e := t.Entry(i); e.Present() {
			frames = append(frames, e.Frame())
			t.SetEntry(i, 0)
		} else if e.Swapped() {
			swapSlot(e.SwapSlot())
			t.SetEntry(i, 0)
		}
	}
	return frames
}

// randomLeaf fills a fresh leaf with a random mix of empty, writable,
// read-only, COW, accessed/dirty and swapped entries at the given
// density. Frame numbers are arbitrary: the kernels never touch the
// allocator.
func randomLeaf(alloc *phys.Allocator, rng *rand.Rand, density float64) *Table {
	t := NewTable(alloc, addr.PTE)
	for i := 0; i < addr.EntriesPerTable; i++ {
		if rng.Float64() >= density {
			continue
		}
		flags := FlagUser
		if rng.Intn(2) == 0 {
			flags |= FlagAccessed
		}
		switch rng.Intn(5) {
		case 0: // writable, possibly dirty
			flags |= FlagWritable
			if rng.Intn(2) == 0 {
				flags |= FlagDirty
			}
			t.SetEntry(i, MakeEntry(phys.Frame(rng.Intn(1<<30)+1), flags))
		case 1: // already COW
			t.SetEntry(i, MakeEntry(phys.Frame(rng.Intn(1<<30)+1), flags|FlagCOW))
		case 2: // read-only mapping
			t.SetEntry(i, MakeEntry(phys.Frame(rng.Intn(1<<30)+1), flags))
		case 3: // swapped out, of a writable or a COW mapping; slot 0 is the zero page
			from := MakeEntry(1, FlagUser|FlagWritable)
			if rng.Intn(2) == 0 {
				from = MakeEntry(1, FlagUser|FlagCOW)
			}
			t.SetEntry(i, MakeSwapEntry(uint64(rng.Intn(6)), from))
		case 4: // a huge-flagged word: never in a real leaf, but tallied
			t.SetEntry(i, MakeEntry(phys.Frame(rng.Intn(1<<30)+1), flags|FlagHuge))
		}
	}
	return t
}

// cloneTable copies src's entries and child pointers into a fresh table
// of the same level; nested tables are shared with src, not copied.
func cloneTable(alloc *phys.Allocator, src *Table) *Table {
	t := NewTable(alloc, src.Level)
	for i := 0; i < addr.EntriesPerTable; i++ {
		if c := src.Child(i); c != nil {
			t.SetChild(i, c, src.Entry(i))
		} else {
			t.SetEntry(i, src.Entry(i))
		}
	}
	return t
}

func sameTable(t *testing.T, what string, got, want *Table) {
	t.Helper()
	for i := 0; i < addr.EntriesPerTable; i++ {
		if g, w := got.Entry(i), want.Entry(i); g != w {
			t.Fatalf("%s: entry %d = %#x, reference %#x", what, i, uint64(g), uint64(w))
		}
		if g, w := got.Child(i), want.Child(i); g != w {
			t.Fatalf("%s: child %d = %p, reference %p", what, i, g, w)
		}
	}
	if got.PresentCount() != want.PresentCount() || got.HugeCount() != want.HugeCount() || got.SwapCount() != want.SwapCount() {
		t.Fatalf("%s: tallies present/huge/swapped = %d/%d/%d, reference %d/%d/%d", what,
			got.PresentCount(), got.HugeCount(), got.SwapCount(),
			want.PresentCount(), want.HugeCount(), want.SwapCount())
	}
}

func TestLeafKernelsMatchPerEntryReference(t *testing.T) {
	alloc := phys.NewAllocator(nil)
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		density := []float64{0, 0.05, 0.5, 1}[seed%4]
		src := randomLeaf(alloc, rng, density)
		refSrc := cloneTable(alloc, src)

		var frames LeafFrames
		var slots, refSlots []uint64
		dst, refDst := NewTable(alloc, addr.PTE), NewTable(alloc, addr.PTE)
		n := dst.CopyLeafFrom(src, &frames, func(s uint64) { slots = append(slots, s) })
		want := refCopyLeaf(refDst, refSrc, func(s uint64) { refSlots = append(refSlots, s) })
		if !slices.Equal(frames[:n], want) {
			t.Fatalf("seed %d: copy gathered frames %v, reference %v", seed, frames[:n], want)
		}
		if !slices.Equal(slots, refSlots) {
			t.Fatalf("seed %d: copy reported swap slots %v, reference %v", seed, slots, refSlots)
		}
		sameTable(t, "copy source", src, refSrc)
		sameTable(t, "copy destination", dst, refDst)

		// Drain a random range of the copy, then the rest of it.
		lo := rng.Intn(addr.EntriesPerTable)
		hi := lo + rng.Intn(addr.EntriesPerTable-lo+1)
		for _, r := range [][2]int{{lo, hi}, {0, addr.EntriesPerTable}} {
			slots, refSlots = slots[:0], refSlots[:0]
			n = dst.DrainLeaf(r[0], r[1], &frames, func(s uint64) { slots = append(slots, s) })
			want = refDrainLeaf(refDst, r[0], r[1], func(s uint64) { refSlots = append(refSlots, s) })
			if !slices.Equal(frames[:n], want) {
				t.Fatalf("seed %d: drain [%d,%d) gathered frames %v, reference %v", seed, r[0], r[1], frames[:n], want)
			}
			if !slices.Equal(slots, refSlots) {
				t.Fatalf("seed %d: drain [%d,%d) reported swap slots %v, reference %v", seed, r[0], r[1], slots, refSlots)
			}
			sameTable(t, "drained table", dst, refDst)
		}
		if dst.PresentCount() != 0 || dst.SwapCount() != 0 {
			t.Fatalf("seed %d: full drain left %d present, %d swapped", seed, dst.PresentCount(), dst.SwapCount())
		}
		checkPMDKernel(t, alloc, seed)
	}
}

// refCopyPMD is the per-entry PMD copy CopyPMDFrom replaced: a
// Swap-and-tally store per slot and one share-count bump per nested
// table, in entry order.
func refCopyPMD(dst, src *Table, alloc *phys.Allocator) (heads []phys.Frame) {
	for i := 0; i < addr.EntriesPerTable; i++ {
		e := src.Entry(i)
		if !e.Present() {
			continue
		}
		if e.Huge() {
			if e.Writable() {
				e = e.Without(FlagWritable | FlagDirty).With(FlagCOW)
				src.SetEntry(i, e)
			}
			dst.SetEntry(i, e)
			heads = append(heads, e.Frame())
			continue
		}
		if child := src.Child(i); child != nil {
			shared := e.Without(FlagWritable)
			src.SetEntry(i, shared)
			dst.SetChild(i, child, shared)
			alloc.PTShareGet(child.Frame)
		}
	}
	return heads
}

// randomPMD fills a fresh PMD table with a random mix of empty slots,
// writable, COW and read-only huge entries, nested last-level tables
// behind writable or write-protected entries, and present non-huge words
// without a table (never in a real PMD, but skipped by both copies).
func randomPMD(alloc *phys.Allocator, rng *rand.Rand, density float64) *Table {
	t := NewTable(alloc, addr.PMD)
	for i := 0; i < addr.EntriesPerTable; i++ {
		if rng.Float64() >= density {
			continue
		}
		flags := FlagUser
		if rng.Intn(2) == 0 {
			flags |= FlagAccessed
		}
		head := phys.Frame(rng.Intn(1<<20)+1) * addr.EntriesPerTable
		switch rng.Intn(5) {
		case 0: // writable huge page, possibly dirty
			flags |= FlagWritable
			if rng.Intn(2) == 0 {
				flags |= FlagDirty
			}
			t.SetEntry(i, MakeEntry(head, flags|FlagHuge))
		case 1: // COW huge page
			t.SetEntry(i, MakeEntry(head, flags|FlagHuge|FlagCOW))
		case 2: // read-only huge page
			t.SetEntry(i, MakeEntry(head, flags|FlagHuge))
		case 3: // nested last-level table, shared or private
			if rng.Intn(2) == 0 {
				flags |= FlagWritable
			}
			t.SetChild(i, NewTable(alloc, addr.PTE), flags)
		case 4: // present, not huge, no table
			t.SetEntry(i, MakeEntry(head, flags|FlagWritable))
		}
	}
	return t
}

// checkPMDKernel is the PMD arm of TestLeafKernelsMatchPerEntryReference:
// the kernel and the reference copy twin sources that point at the same
// nested tables, so each of those must gain exactly one share reference
// per copy.
func checkPMDKernel(t *testing.T, alloc *phys.Allocator, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := randomPMD(alloc, rng, []float64{0, 0.05, 0.5, 1}[seed%4])
	refSrc := cloneTable(alloc, src)
	shares := map[*Table]int32{}
	for i := 0; i < addr.EntriesPerTable; i++ {
		if c := src.Child(i); c != nil {
			shares[c] = c.ShareCount(alloc)
		}
	}
	checkShares := func(step string, delta int32) {
		t.Helper()
		for c, before := range shares {
			if got := c.ShareCount(alloc); got != before+delta {
				t.Fatalf("seed %d: nested table share count %d after %s, want %d", seed, got, step, before+delta)
			}
		}
	}

	var heads LeafFrames
	dst, refDst := NewTable(alloc, addr.PMD), NewTable(alloc, addr.PMD)
	n := dst.CopyPMDFrom(src, &heads, alloc)
	checkShares("the kernel copy", 1)
	want := refCopyPMD(refDst, refSrc, alloc)
	checkShares("the reference copy", 2)
	if !slices.Equal(heads[:n], want) {
		t.Fatalf("seed %d: PMD copy gathered heads %v, reference %v", seed, heads[:n], want)
	}
	sameTable(t, "PMD copy source", src, refSrc)
	sameTable(t, "PMD copy destination", dst, refDst)
}
