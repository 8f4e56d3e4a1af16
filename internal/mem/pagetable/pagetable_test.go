package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
)

func newWalker() *Walker {
	alloc := phys.NewAllocator(nil)
	return &Walker{Root: NewTable(alloc, addr.PGD), Alloc: alloc}
}

func TestEntryEncoding(t *testing.T) {
	e := MakeEntry(12345, FlagWritable|FlagAccessed)
	if !e.Present() {
		t.Error("made entry not present")
	}
	if !e.Writable() || !e.Accessed() {
		t.Error("flags lost")
	}
	if e.Dirty() || e.Huge() || e.COW() {
		t.Error("spurious flags")
	}
	if got := e.Frame(); got != 12345 {
		t.Errorf("Frame = %d", got)
	}
	e2 := e.With(FlagDirty).Without(FlagWritable)
	if !e2.Dirty() || e2.Writable() {
		t.Error("With/Without failed")
	}
	if e2.Frame() != 12345 {
		t.Error("With/Without clobbered frame")
	}
}

func TestEntryEncodingQuick(t *testing.T) {
	f := func(frame uint32, flags uint16) bool {
		fl := Entry(flags) & flagsMask
		e := MakeEntry(phys.Frame(frame), fl)
		return e.Frame() == phys.Frame(frame) && e.Present()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntryString(t *testing.T) {
	if got := Entry(0).String(); got != "<none>" {
		t.Errorf("empty entry string = %q", got)
	}
	e := MakeEntry(7, FlagWritable|FlagCOW)
	s := e.String()
	if s == "" || s == "<none>" {
		t.Errorf("entry string = %q", s)
	}
}

func TestEnsureAndFind(t *testing.T) {
	w := newWalker()
	v := addr.V(0x7f0012345678)
	if leaf, _ := w.FindPTE(v); leaf != nil {
		t.Fatal("FindPTE before Ensure returned a table")
	}
	leaf, li := w.EnsurePTE(v)
	if leaf == nil || !leaf.IsLeaf() {
		t.Fatal("EnsurePTE returned bad table")
	}
	if li != v.Index(addr.PTE) {
		t.Errorf("leaf index = %d", li)
	}
	leaf2, li2 := w.FindPTE(v)
	if leaf2 != leaf || li2 != li {
		t.Error("FindPTE disagrees with EnsurePTE")
	}
	// Same 2 MiB region shares the leaf; next region gets a new one.
	same, _ := w.EnsurePTE(v + addr.PageSize)
	if same != leaf {
		t.Error("same-region EnsurePTE allocated a new leaf")
	}
	other, _ := w.EnsurePTE(v + addr.PTECoverage)
	if other == leaf {
		t.Error("next-region EnsurePTE reused the leaf")
	}
}

func TestFreshTableShareCountIsOne(t *testing.T) {
	alloc := phys.NewAllocator(nil)
	tbl := NewTable(alloc, addr.PTE)
	if got := tbl.ShareCount(alloc); got != 1 {
		t.Errorf("fresh table share count = %d, want 1", got)
	}
	if !alloc.IsPageTable(tbl.Frame) {
		t.Error("table frame not flagged as page table")
	}
}

func TestWalkBasic(t *testing.T) {
	w := newWalker()
	v := addr.V(0x40000000)
	if _, ok := w.Walk(v); ok {
		t.Fatal("walk of unmapped address succeeded")
	}
	frame := w.Alloc.Alloc()
	leaf, li := w.EnsurePTE(v)
	leaf.SetEntry(li, MakeEntry(frame, FlagWritable|FlagUser))
	tr, ok := w.Walk(v + 0x123)
	if !ok {
		t.Fatal("walk of mapped address failed")
	}
	if tr.Frame != frame || tr.Offset != 0x123 {
		t.Errorf("translation = %+v", tr)
	}
	if !tr.Writable {
		t.Error("writable mapping walked as read-only")
	}
	if tr.Huge {
		t.Error("4k mapping walked as huge")
	}
	if tr.Leaf != leaf || tr.LeafIndex != li {
		t.Error("leaf back-reference wrong")
	}
}

func TestWalkHierarchicalAttribute(t *testing.T) {
	// The crux of §3.2: clearing the PMD entry's writable bit must make
	// the whole 2 MiB region effectively read-only even though leaf
	// entries stay writable.
	w := newWalker()
	v := addr.V(0x40000000)
	frame := w.Alloc.Alloc()
	leaf, li := w.EnsurePTE(v)
	leaf.SetEntry(li, MakeEntry(frame, FlagWritable))
	pmd, pi := w.FindPMD(v)
	pmd.SetEntry(pi, pmd.Entry(pi).Without(FlagWritable))

	tr, ok := w.Walk(v)
	if !ok {
		t.Fatal("walk failed")
	}
	if tr.Writable {
		t.Error("PMD write-protect did not mask leaf writable bit")
	}
	if !tr.Entry.Writable() {
		t.Error("leaf entry itself lost its writable bit")
	}

	// Restoring the PMD bit restores effective permission.
	pmd.SetEntry(pi, pmd.Entry(pi).With(FlagWritable))
	tr, _ = w.Walk(v)
	if !tr.Writable {
		t.Error("restored PMD bit did not restore permission")
	}
}

func TestWalkHugePage(t *testing.T) {
	w := newWalker()
	v := addr.V(0x80000000) // 2 MiB aligned
	head := w.Alloc.AllocHuge()
	pmd, pi := w.EnsurePMD(v)
	pmd.SetEntry(pi, MakeEntry(head, FlagWritable|FlagHuge))

	tr, ok := w.Walk(v + addr.V(5*addr.PageSize+7))
	if !ok {
		t.Fatal("huge walk failed")
	}
	if !tr.Huge {
		t.Error("huge translation not flagged")
	}
	if tr.Frame != head+5 {
		t.Errorf("huge frame = %d, want %d", tr.Frame, head+5)
	}
	if tr.Offset != 7 {
		t.Errorf("offset = %d", tr.Offset)
	}
	if tr.Leaf != pmd || tr.LeafIndex != pi {
		t.Error("huge leaf back-reference wrong")
	}
}

func TestEnsurePTEUnderHugePanics(t *testing.T) {
	w := newWalker()
	v := addr.V(0x80000000)
	head := w.Alloc.AllocHuge()
	pmd, pi := w.EnsurePMD(v)
	pmd.SetEntry(pi, MakeEntry(head, FlagWritable|FlagHuge))
	defer func() {
		if recover() == nil {
			t.Error("EnsurePTE under huge mapping did not panic")
		}
	}()
	w.EnsurePTE(v)
}

func TestCopyEntriesPreservesAccessed(t *testing.T) {
	alloc := phys.NewAllocator(nil)
	src := NewTable(alloc, addr.PTE)
	dst := NewTable(alloc, addr.PTE)
	src.SetEntry(3, MakeEntry(99, FlagAccessed))
	var frames LeafFrames
	if n := dst.CopyLeafFrom(src, &frames, nil); n != 1 || frames[0] != 99 {
		t.Errorf("copy gathered %d frames (first %d), want frame 99 alone", n, frames[0])
	}
	if !dst.Entry(3).Accessed() {
		t.Error("accessed bit lost in table copy")
	}
}

func TestCountPresent(t *testing.T) {
	alloc := phys.NewAllocator(nil)
	tbl := NewTable(alloc, addr.PTE)
	if got := tbl.PresentCount(); got != 0 {
		t.Errorf("fresh PresentCount = %d", got)
	}
	tbl.SetEntry(0, MakeEntry(1, 0))
	tbl.SetEntry(511, MakeEntry(2, 0))
	if got := tbl.PresentCount(); got != 2 {
		t.Errorf("PresentCount = %d, want 2", got)
	}
}

func TestVisitPMDs(t *testing.T) {
	w := newWalker()
	// Map three 2 MiB regions: two adjacent, one 1 GiB away.
	bases := []addr.V{0x40000000, 0x40200000, 0x80000000}
	for _, b := range bases {
		leaf, li := w.EnsurePTE(b)
		leaf.SetEntry(li, MakeEntry(w.Alloc.Alloc(), 0))
	}
	var visited []addr.V
	w.VisitPMDs(addr.NewRange(0, 1<<40), func(pmd *Table, idx int, base addr.V) {
		visited = append(visited, base)
	})
	if len(visited) != 3 {
		t.Fatalf("visited %d PMD slots, want 3: %v", len(visited), visited)
	}
	for i, b := range bases {
		if visited[i] != b {
			t.Errorf("visited[%d] = %v, want %v", i, visited[i], b)
		}
	}
}

func TestVisitPMDsSubrange(t *testing.T) {
	w := newWalker()
	for _, b := range []addr.V{0x40000000, 0x40200000, 0x40400000} {
		leaf, li := w.EnsurePTE(b)
		leaf.SetEntry(li, MakeEntry(w.Alloc.Alloc(), 0))
	}
	var n int
	w.VisitPMDs(addr.NewRange(0x40200000, addr.PTECoverage), func(*Table, int, addr.V) { n++ })
	if n != 1 {
		t.Errorf("subrange visited %d slots, want 1", n)
	}
}

func TestVisitLeafTablesSkipsHuge(t *testing.T) {
	w := newWalker()
	// One 4k-mapped region and one huge region.
	leaf, li := w.EnsurePTE(0x40000000)
	leaf.SetEntry(li, MakeEntry(w.Alloc.Alloc(), 0))
	head := w.Alloc.AllocHuge()
	pmd, pi := w.EnsurePMD(0x40200000)
	pmd.SetEntry(pi, MakeEntry(head, FlagWritable|FlagHuge))

	var leaves int
	w.VisitLeafTables(addr.NewRange(0x40000000, 2*addr.PTECoverage),
		func(pmd *Table, idx int, l *Table, base addr.V) {
			leaves++
			if l != leaf {
				t.Error("unexpected leaf")
			}
		})
	if leaves != 1 {
		t.Errorf("visited %d leaves, want 1", leaves)
	}
}

func TestWalkMissingIntermediate(t *testing.T) {
	w := newWalker()
	// Build only down to PMD without leaf; Walk must fail cleanly.
	pmd, pi := w.EnsurePMD(0x40000000)
	_ = pmd
	_ = pi
	if _, ok := w.Walk(0x40000000); ok {
		t.Error("walk without leaf table succeeded")
	}
}

func TestSetChildClear(t *testing.T) {
	alloc := phys.NewAllocator(nil)
	parent := NewTable(alloc, addr.PMD)
	child := NewTable(alloc, addr.PTE)
	parent.SetChild(4, child, FlagWritable)
	if parent.Child(4) != child || !parent.Entry(4).Present() {
		t.Fatal("SetChild failed")
	}
	if parent.Entry(4).Frame() != child.Frame {
		t.Error("child entry frame mismatch")
	}
	parent.SetChild(4, nil, 0)
	if parent.Child(4) != nil || parent.Entry(4).Present() {
		t.Error("SetChild(nil) did not clear")
	}
}

func TestVisitPMDsAcrossPGDGap(t *testing.T) {
	// Two mapped regions in different PGD entries (512 GiB apart) with
	// nothing between: the visitor must find both and skip the gap.
	w := newWalker()
	a := addr.V(0x10_0000_0000) // PGD entry 0
	b := addr.V(addr.PUDCoverage + 0x2000_0000)
	for _, v := range []addr.V{a, b} {
		leaf, li := w.EnsurePTE(v)
		leaf.SetEntry(li, MakeEntry(w.Alloc.Alloc(), 0))
	}
	var visited []addr.V
	w.VisitPMDs(addr.NewRange(0, 2*addr.PUDCoverage), func(pmd *Table, idx int, base addr.V) {
		visited = append(visited, base)
	})
	if len(visited) != 2 {
		t.Fatalf("visited = %v", visited)
	}
	if visited[0] != a.HugeBase() || visited[1] != b.HugeBase() {
		t.Errorf("visited = %v", visited)
	}
}

func TestWalkerFindPUDAndEnsurePUD(t *testing.T) {
	w := newWalker()
	v := addr.V(0x40000000)
	if pud, _ := w.FindPUD(v); pud != nil {
		t.Fatal("FindPUD before ensure returned table")
	}
	pud, pi := w.EnsurePUD(v)
	if pud == nil || pud.Level != addr.PUD {
		t.Fatalf("EnsurePUD level = %v", pud.Level)
	}
	fpud, fpi := w.FindPUD(v)
	if fpud != pud || fpi != pi {
		t.Error("FindPUD disagrees with EnsurePUD")
	}
	if pi != v.Index(addr.PUD) {
		t.Errorf("index = %d", pi)
	}
}

// TestPresentHugeCounts drives every entry-mutation path and checks
// the maintained tallies against a full rescan, including a
// randomized sequence (the counts back the O(1) hugeOnly and the
// parallel-fork threshold, so drift would silently change fork
// behaviour).
func TestPresentHugeCounts(t *testing.T) {
	rescan := func(tb *Table) (present, huge int) {
		for i := 0; i < addr.EntriesPerTable; i++ {
			e := tb.Entry(i)
			if e.Present() {
				present++
			}
			if e.Huge() {
				huge++
			}
		}
		return
	}
	check := func(tb *Table, what string) {
		t.Helper()
		p, h := rescan(tb)
		if tb.PresentCount() != p || tb.HugeCount() != h {
			t.Fatalf("%s: counts (%d,%d) != rescan (%d,%d)",
				what, tb.PresentCount(), tb.HugeCount(), p, h)
		}
	}

	alloc := phys.NewAllocator(nil)
	tb := NewTable(alloc, addr.PMD)
	tb.SetEntry(0, MakeEntry(100, FlagWritable))
	check(tb, "set")
	tb.SetEntry(0, MakeEntry(100, FlagWritable|FlagHuge))
	check(tb, "set huge over plain")
	tb.SetEntry(0, 0)
	check(tb, "clear")
	tb.SetChild(1, NewTable(alloc, addr.PTE), FlagWritable)
	check(tb, "set child")
	tb.SetChild(1, nil, 0)
	check(tb, "clear child")
	tb.SetEntry(2, MakeEntry(5, 0))
	tb.OrEntry(2, FlagAccessed|FlagDirty)
	check(tb, "or flags")
	tb.OrEntry(3, FlagHuge) // Or onto an empty slot still tallies
	check(tb, "or huge on empty")

	var frames LeafFrames
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		slot := rng.Intn(addr.EntriesPerTable)
		switch rng.Intn(4) {
		case 0:
			tb.SetEntry(slot, MakeEntry(phys.Frame(rng.Intn(1000)+1), Entry(rng.Intn(1<<10))))
		case 1:
			tb.SetEntry(slot, 0)
		case 2:
			tb.OrEntry(slot, Entry(rng.Intn(1<<10)))
		case 3:
			tb.DrainLeaf(slot, min(slot+rng.Intn(8), addr.EntriesPerTable), &frames, func(uint64) {})
		}
	}
	check(tb, "randomized")

	cp := NewTable(alloc, addr.PMD)
	cp.CopyLeafFrom(tb, &frames, func(uint64) {})
	check(tb, "copy source")
	check(cp, "copy destination")
}
