package phys

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuddyAlignment(t *testing.T) {
	a := NewAllocator(nil)
	for i := 0; i < 4; i++ {
		h := a.AllocHuge()
		if uint64(h)%(1<<HugeOrder) != 0 {
			t.Fatalf("huge block %d not naturally aligned", h)
		}
		a.Put(h)
	}
}

func TestBuddyCoalescing(t *testing.T) {
	a := NewAllocator(nil)
	// Allocate a full maximal block's worth of single frames, free them
	// all; the buddy system must coalesce back to maximal blocks only.
	n := 1 << MaxOrder
	fs := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, a.Alloc())
	}
	for _, f := range fs {
		a.Put(f)
	}
	free := a.FreeBlocks()
	for o := 0; o < MaxOrder; o++ {
		if free[o] != 0 {
			t.Errorf("order %d has %d free blocks after full coalesce", o, free[o])
		}
	}
	if free[MaxOrder] == 0 {
		t.Error("no maximal blocks after full coalesce")
	}
	// A huge allocation must now succeed without growing the arena.
	before := a.Stats().Extent
	h := a.AllocHuge()
	if a.Stats().Extent != before {
		t.Error("huge allocation grew arena despite coalesced space")
	}
	a.Put(h)
}

func TestBuddyMixedOrders(t *testing.T) {
	a := NewAllocator(nil)
	h := a.AllocHuge()
	f := a.Alloc()
	// The single frame must not fall inside the huge block.
	if f >= h && f < h+(1<<HugeOrder) {
		t.Fatalf("single frame %d allocated inside huge block [%d,%d)", f, h, h+(1<<HugeOrder))
	}
	a.Put(f)
	a.Put(h)
	if a.Allocated() != 0 {
		t.Error("leak")
	}
}

func TestBuddySplitReuse(t *testing.T) {
	a := NewAllocator(nil)
	// Free a huge block, then allocate singles: they must be carved from
	// the freed block (no growth).
	h := a.AllocHuge()
	a.Put(h)
	before := a.Stats().Extent
	for i := 0; i < 1<<MaxOrder; i++ {
		a.Alloc()
	}
	if a.Stats().Extent != before {
		t.Error("single allocations grew arena despite free huge block")
	}
}

// Property: random alloc/free sequences never hand out overlapping
// blocks, and freeing everything always coalesces back to maximal
// blocks.
func TestQuickBuddyConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(nil)
		type block struct {
			head Frame
			n    Frame
		}
		var live []block
		owner := make(map[Frame]bool)
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				var b block
				if rng.Intn(8) == 0 {
					b = block{a.AllocHuge(), 1 << HugeOrder}
				} else {
					b = block{a.Alloc(), 1}
				}
				for i := Frame(0); i < b.n; i++ {
					if owner[b.head+i] {
						t.Logf("seed %d: frame %d double-allocated", seed, b.head+i)
						return false
					}
					owner[b.head+i] = true
				}
				live = append(live, b)
			} else {
				i := rng.Intn(len(live))
				b := live[i]
				live = append(live[:i], live[i+1:]...)
				for j := Frame(0); j < b.n; j++ {
					delete(owner, b.head+j)
				}
				a.Put(b.head)
			}
		}
		for _, b := range live {
			a.Put(b.head)
		}
		if a.Allocated() != 0 {
			return false
		}
		free := a.FreeBlocks()
		for o := 0; o < MaxOrder; o++ {
			if free[o] != 0 {
				t.Logf("seed %d: %d stray order-%d blocks", seed, free[o], o)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLimitAndTryAlloc(t *testing.T) {
	a := NewAllocator(nil)
	a.SetLimit(2)
	f1, err := a.TryAlloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TryAlloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.TryAlloc(); err != ErrNoMemory {
		t.Errorf("over-limit TryAlloc err = %v", err)
	}
	a.Put(f1)
	if _, err := a.TryAlloc(); err != nil {
		t.Errorf("TryAlloc after free: %v", err)
	}
	a.SetLimit(0)
	if _, err := a.TryAlloc(); err != nil {
		t.Errorf("unlimited TryAlloc: %v", err)
	}
}

func TestAllocPanicsAtLimit(t *testing.T) {
	a := NewAllocator(nil)
	a.SetLimit(1)
	a.Alloc()
	defer func() {
		if recover() == nil {
			t.Error("Alloc over limit did not panic")
		}
	}()
	a.Alloc()
}

// scanBuddy is the buddy core as it was before free blocks recorded
// their list position: removeFree finds the block by scanning its list.
// It is the reference the O(1) removal is held to — same swap-with-tail,
// so the same list order and therefore the same frames handed out.
type scanBuddy struct {
	lists     [MaxOrder + 1][]Frame
	freeOrder map[Frame]int8
	next      Frame
}

func (b *scanBuddy) push(f Frame, order uint8) {
	b.freeOrder[f] = int8(order) + 1
	b.lists[order] = append(b.lists[order], f)
}

func (b *scanBuddy) pop(order uint8) Frame {
	list := b.lists[order]
	if len(list) == 0 {
		return NoFrame
	}
	f := list[len(list)-1]
	b.lists[order] = list[:len(list)-1]
	delete(b.freeOrder, f)
	return f
}

func (b *scanBuddy) remove(f Frame, order uint8) {
	list := b.lists[order]
	for i, x := range list {
		if x == f {
			list[i] = list[len(list)-1]
			b.lists[order] = list[:len(list)-1]
			delete(b.freeOrder, f)
			return
		}
	}
	panic("scanBuddy: free block missing from its free list")
}

func (b *scanBuddy) alloc(order uint8) Frame {
	for o := order; o <= MaxOrder; o++ {
		f := b.pop(o)
		if !f.Valid() {
			continue
		}
		for cur := o; cur > order; cur-- {
			b.push(f+Frame(1)<<(cur-1), cur-1)
		}
		return f
	}
	f := blockHead(b.next+Frame(1)<<MaxOrder-1, MaxOrder)
	b.next = f + Frame(1)<<MaxOrder
	for cur := uint8(MaxOrder); cur > order; cur-- {
		b.push(f+Frame(1)<<(cur-1), cur-1)
	}
	return f
}

func (b *scanBuddy) free(f Frame, order uint8) {
	for order < MaxOrder {
		bud := buddyOf(f, order)
		if bud >= b.next || b.freeOrder[bud] != int8(order)+1 {
			break
		}
		b.remove(bud, order)
		if bud < f {
			f = bud
		}
		order++
	}
	b.push(f, order)
}

// TestBuddyRemoveMatchesScan drives the buddy core and the scanning
// reference through the same random alloc/free sequences and requires
// identical frames out and identical free lists — order included — after
// every step, plus the position index the O(1) removal relies on.
func TestBuddyRemoveMatchesScan(t *testing.T) {
	type block struct {
		head  Frame
		order uint8
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(nil)
		ref := &scanBuddy{freeOrder: map[Frame]int8{}, next: 1}
		var live []block
		for op := 0; op < 4000; op++ {
			// Allocation-heavy first, free-heavy later, so lists grow long
			// and then coalesce back.
			if len(live) == 0 || rng.Intn(4000) > op {
				order := uint8(0)
				if rng.Intn(6) == 0 {
					order = uint8(rng.Intn(MaxOrder + 1))
				}
				a.mu.Lock()
				got := a.allocBlock(order)
				a.mu.Unlock()
				if want := ref.alloc(order); got != want {
					t.Fatalf("seed %d op %d: order-%d alloc gave frame %d, scan reference %d", seed, op, order, got, want)
				}
				live = append(live, block{got, order})
			} else {
				i := rng.Intn(len(live))
				b := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				a.mu.Lock()
				a.freeBlock(b.head, b.order)
				a.mu.Unlock()
				ref.free(b.head, b.order)
			}
			for o := range a.buddy.freeLists {
				list := a.buddy.freeLists[o]
				if !slices.Equal(list, ref.lists[o]) {
					t.Fatalf("seed %d op %d: order-%d free list %v, scan reference %v", seed, op, o, list, ref.lists[o])
				}
				for i, f := range list {
					if pi := a.info(f); int(pi.freeIdx) != i || pi.freeOrder != int8(o)+1 {
						t.Fatalf("seed %d op %d: frame %d at order-%d position %d records order+1 %d position %d",
							seed, op, f, o, i, pi.freeOrder, pi.freeIdx)
					}
				}
			}
		}
	}
}
