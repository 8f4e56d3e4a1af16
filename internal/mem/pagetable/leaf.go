package pagetable

import (
	"sync/atomic"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
)

// Whole-table kernels for last-level tables. Copying a leaf (a table
// split, one slot of classic fork) and draining one (exit, munmap, fork
// rollback) are bulk operations on a 4 KiB page of entries, not 512
// independent updates: one pass, the tallies touched once, and the
// present frames handed back so the caller pays the one per-entry cost
// the design requires — the page reference count — through
// phys.GetBatch / PutBatch. Reference counts, reverse maps and profile
// counters stay with package core.

// LeafFrames is the array a kernel gathers present frames into; callers
// keep it on their stack.
type LeafFrames [addr.EntriesPerTable]phys.Frame

// CopyLeafFrom fills t with a copy-on-write copy of src and returns the
// number of present entries, their frames left in frames[:n] in index
// order. Writable entries are downgraded (writable and dirty cleared,
// COW set) in both tables; everything else, accessed bits included
// (§3.2), is copied verbatim. swapSlot is called for every swap entry
// copied — each is a new reference to its slot.
//
// The caller holds src's lock. Sharers still walk src and OR accessed
// bits into it, so it is loaded atomically and stored to only where an
// entry changes. t must be unpublished and clean, as NewTable hands it
// out: its entries take plain stores and its tallies are set, not
// adjusted.
func (t *Table) CopyLeafFrom(src *Table, frames *LeafFrames, swapSlot func(slot uint64)) int {
	var n int
	var huge, swapped int32
	for i := range src.entries {
		e := Entry(atomic.LoadUint64(&src.entries[i]))
		if e == 0 {
			continue
		}
		switch {
		case e&FlagPresent != 0:
			if e&FlagWritable != 0 {
				e = e&^(FlagWritable|FlagDirty) | FlagCOW
				atomic.StoreUint64(&src.entries[i], uint64(e))
			}
			frames[n] = e.Frame()
			n++
		case e&FlagSwapped != 0:
			swapped++
			swapSlot(e.SwapSlot())
		}
		if e&FlagHuge != 0 {
			huge++
		}
		t.entries[i] = uint64(e)
	}
	t.present.Store(int32(n))
	t.huge.Store(huge)
	t.swapped.Store(swapped)
	return n
}

// DrainLeaf clears the present and swap entries of t in [lo, hi) and
// returns the number of present ones, their frames left in frames[:n]
// in index order for the caller to release. swapSlot is called for
// every swap entry cleared.
//
// The caller owns the drained entries exclusively — it holds the only
// reference to the table, or its address-space lock for a dedicated one,
// and has taken the entries out of the reverse map — so nothing else can
// load or store them and plain accesses suffice.
func (t *Table) DrainLeaf(lo, hi int, frames *LeafFrames, swapSlot func(slot uint64)) int {
	var n int
	var huge, swapped int32
	for i := lo; i < hi; i++ {
		e := Entry(t.entries[i])
		switch {
		case e&FlagPresent != 0:
			frames[n] = e.Frame()
			n++
		case e&FlagSwapped != 0:
			swapped++
			swapSlot(e.SwapSlot())
		default:
			continue
		}
		if e&FlagHuge != 0 {
			huge++
		}
		t.entries[i] = 0
	}
	t.FlushTally(TallyDelta{Present: -int32(n), Huge: -huge, Swapped: -swapped})
	return n
}
