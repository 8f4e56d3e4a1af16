package phys

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/profile"
)

func TestAllocDistinctFrames(t *testing.T) {
	a := NewAllocator(nil)
	seen := make(map[Frame]bool)
	for i := 0; i < 1000; i++ {
		f := a.Alloc()
		if !f.Valid() {
			t.Fatal("Alloc returned invalid frame")
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	if got := a.Allocated(); got != 1000 {
		t.Errorf("Allocated = %d, want 1000", got)
	}
}

func TestRefcountLifecycle(t *testing.T) {
	a := NewAllocator(nil)
	f := a.Alloc()
	if got := a.RefCount(f); got != 1 {
		t.Fatalf("fresh refcount = %d, want 1", got)
	}
	a.Get(f)
	if got := a.RefCount(f); got != 2 {
		t.Fatalf("after Get refcount = %d, want 2", got)
	}
	a.Put(f)
	if got := a.Allocated(); got != 1 {
		t.Fatalf("freed while referenced: allocated = %d", got)
	}
	a.Put(f)
	if got := a.Allocated(); got != 0 {
		t.Fatalf("not freed at zero refcount: allocated = %d", got)
	}
}

// reuseCases are the two situations in which the allocator promises that
// a freed frame is the next one handed out. Which shard a free or an
// alloc lands in is not part of the contract (see shardFor), so on a
// multi-shard allocator a free-then-alloc may miss the freed frame until
// the caches are flushed.
var reuseCases = []struct {
	name string
	// prepare runs on the fresh allocator; settle runs between the free
	// and the alloc.
	prepare, settle func(a *Allocator)
}{
	// One shard: its cache is LIFO, so the frame comes straight back.
	{"one shard", func(a *Allocator) { a.shards = a.shards[:1] }, func(*Allocator) {}},
	// Any shard count: a flush returns every cached frame to the buddy
	// core, which coalesces the arena and splits it from the bottom again.
	{"after FlushShards", func(*Allocator) {}, (*Allocator).FlushShards},
}

func TestFrameReuseAfterFree(t *testing.T) {
	for _, tc := range reuseCases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAllocator(nil)
			tc.prepare(a)
			f := a.Alloc()
			a.Put(f)
			tc.settle(a)
			g := a.Alloc()
			if g != f {
				t.Errorf("free list not reused: got %d, want %d", g, f)
			}
			if got := a.RefCount(g); got != 1 {
				t.Errorf("reused frame refcount = %d, want 1", got)
			}
		})
	}
}

func TestNegativeRefcountPanics(t *testing.T) {
	a := NewAllocator(nil)
	f := a.Alloc()
	a.Put(f)
	defer func() {
		if recover() == nil {
			t.Error("Put below zero did not panic")
		}
	}()
	a.Put(f)
}

func TestDataLazyMaterialization(t *testing.T) {
	a := NewAllocator(nil)
	f := a.Alloc()
	if a.DataIfPresent(f) != nil {
		t.Error("fresh frame has materialized data")
	}
	d := a.Data(f)
	if len(d) != addr.PageSize {
		t.Fatalf("data len = %d", len(d))
	}
	for _, b := range d {
		if b != 0 {
			t.Fatal("materialized data not zeroed")
		}
	}
	d[0] = 0xAA
	if got := a.Data(f)[0]; got != 0xAA {
		t.Error("data not stable across calls")
	}
}

func TestDataClearedOnFree(t *testing.T) {
	for _, tc := range reuseCases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAllocator(nil)
			tc.prepare(a)
			f := a.Alloc()
			a.Data(f)[0] = 0xFF
			a.Put(f)
			tc.settle(a)
			g := a.Alloc()
			if g != f {
				t.Fatalf("expected frame reuse")
			}
			if a.DataIfPresent(g) != nil {
				t.Error("reused frame leaked previous data")
			}
		})
	}
}

func TestCopyPage(t *testing.T) {
	a := NewAllocator(nil)
	src, dst := a.Alloc(), a.Alloc()
	a.Data(src)[100] = 7
	if !a.CopyPage(dst, src) {
		t.Error("nonzero copy reported elided")
	}
	if got := a.Data(dst)[100]; got != 7 {
		t.Errorf("copied byte = %d, want 7", got)
	}
	// Copy from a zero (unmaterialized) source is elided: it reports
	// false and leaves the destination logically zero without
	// materializing it.
	zsrc, zdst := a.Alloc(), a.Alloc()
	a.Data(zdst)[5] = 9
	if a.CopyPage(zdst, zsrc) {
		t.Error("zero copy not elided")
	}
	if a.DataIfPresent(zdst) != nil {
		t.Error("elided copy left destination materialized")
	}
	if got := a.Data(zdst)[5]; got != 0 {
		t.Errorf("zero-copy dest byte = %d, want 0", got)
	}
	// A materialized-but-all-zero source elides too.
	msrc, mdst := a.Alloc(), a.Alloc()
	a.Data(msrc) // materialize zeroes
	if a.CopyPage(mdst, msrc) {
		t.Error("all-zero materialized source not elided")
	}
	if !a.PageIsZero(mdst) || !a.PageIsZero(msrc) {
		t.Error("PageIsZero disagrees with elision")
	}
}

func TestCompoundPage(t *testing.T) {
	a := NewAllocator(nil)
	head := a.AllocHuge()
	if !a.IsHuge(head) {
		t.Fatal("head not recognized as huge")
	}
	if got := a.Allocated(); got != 1<<HugeOrder {
		t.Errorf("Allocated = %d, want 512", got)
	}
	// Every tail must resolve to the head.
	for i := Frame(1); i < 1<<HugeOrder; i++ {
		if got := a.CompoundHead(head + i); got != head {
			t.Fatalf("CompoundHead(tail %d) = %d, want %d", i, got, head)
		}
	}
	if got := a.CompoundHead(head); got != head {
		t.Errorf("CompoundHead(head) = %d", got)
	}
	// Get/Put on a tail operates on the head count.
	a.Get(head + 3)
	if got := a.RefCount(head); got != 2 {
		t.Errorf("head refcount = %d, want 2", got)
	}
	a.Put(head + 100)
	a.Put(head)
	if got := a.Allocated(); got != 0 {
		t.Errorf("compound not freed: %d", got)
	}
}

func TestCompoundReuse(t *testing.T) {
	a := NewAllocator(nil)
	h1 := a.AllocHuge()
	a.Put(h1)
	h2 := a.AllocHuge()
	if h2 != h1 {
		t.Errorf("huge free list not reused: %d vs %d", h2, h1)
	}
	if got := a.RefCount(h2); got != 1 {
		t.Errorf("reused huge refcount = %d", got)
	}
}

func TestCopyHugePage(t *testing.T) {
	a := NewAllocator(nil)
	src, dst := a.AllocHuge(), a.AllocHuge()
	a.Data(src + 511)[4095] = 0x5A
	a.CopyHugePage(dst, src)
	if got := a.Data(dst + 511)[4095]; got != 0x5A {
		t.Errorf("huge copy lost tail byte: %d", got)
	}
}

func TestPTShareCounter(t *testing.T) {
	a := NewAllocator(nil)
	f := a.AllocPageTable()
	if !a.IsPageTable(f) {
		t.Fatal("page-table flag missing")
	}
	a.PTShareInit(f, 1)
	if got := a.PTShareGet(f); got != 2 {
		t.Errorf("PTShareGet = %d, want 2", got)
	}
	if got := a.PTSharePut(f); got != 1 {
		t.Errorf("PTSharePut = %d, want 1", got)
	}
	if got := a.PTShareCount(f); got != 1 {
		t.Errorf("PTShareCount = %d, want 1", got)
	}
}

func TestPTShareNegativePanics(t *testing.T) {
	a := NewAllocator(nil)
	f := a.AllocPageTable()
	a.PTShareInit(f, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative share count did not panic")
		}
	}()
	a.PTSharePut(f)
}

func TestProfilerCharges(t *testing.T) {
	p := profile.New()
	a := NewAllocator(p)
	f := a.Alloc()
	a.Get(f)
	if got := p.Count(profile.CompoundHead); got != 1 {
		t.Errorf("CompoundHead count = %d, want 1", got)
	}
	if got := p.Count(profile.PageRefInc); got != 1 {
		t.Errorf("PageRefInc count = %d, want 1", got)
	}
	a.PTShareGet(a.AllocPageTable())
	if got := p.Count(profile.PTShareInc); got != 1 {
		t.Errorf("PTShareInc count = %d, want 1", got)
	}
}

func TestStatsAndPeak(t *testing.T) {
	a := NewAllocator(nil)
	fs := make([]Frame, 10)
	for i := range fs {
		fs[i] = a.Alloc()
	}
	for _, f := range fs {
		a.Put(f)
	}
	st := a.Stats()
	if st.Allocated != 0 {
		t.Errorf("Allocated = %d", st.Allocated)
	}
	if st.Peak != 10 {
		t.Errorf("Peak = %d, want 10", st.Peak)
	}
	// The buddy allocator grows the arena in maximal (512-frame) blocks.
	if st.Extent < 10 {
		t.Errorf("Extent = %d, want >= 10", st.Extent)
	}
	if a.Peak() != 10 {
		t.Errorf("Peak() = %d", a.Peak())
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := NewAllocator(nil)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]Frame, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, a.Alloc())
			}
			for _, f := range local {
				a.Get(f)
				a.Put(f)
				a.Put(f)
			}
		}()
	}
	wg.Wait()
	if got := a.Allocated(); got != 0 {
		t.Errorf("leak after concurrent churn: %d", got)
	}
}

// Property: any interleaving of Get/Put pairs leaves the allocator with
// zero live frames and never corrupts counts.
func TestQuickRefcountBalance(t *testing.T) {
	f := func(gets []uint8) bool {
		a := NewAllocator(nil)
		fr := a.Alloc()
		n := 0
		for _, g := range gets {
			k := int(g % 8)
			for i := 0; i < k; i++ {
				a.Get(fr)
				n++
			}
		}
		for i := 0; i < n; i++ {
			a.Put(fr)
		}
		if a.RefCount(fr) != 1 {
			return false
		}
		a.Put(fr)
		return a.Allocated() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChunkGrowth(t *testing.T) {
	a := NewAllocator(nil)
	// Allocate past one chunk boundary to exercise arena growth.
	n := chunkSize + 10
	fs := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, a.Alloc())
	}
	// Metadata for high frames must be addressable and correct.
	last := fs[len(fs)-1]
	if got := a.RefCount(last); got != 1 {
		t.Errorf("high frame refcount = %d", got)
	}
	for _, f := range fs {
		a.Put(f)
	}
	if a.Allocated() != 0 {
		t.Error("leak after chunk growth churn")
	}
}

func TestInfoPanicsOnInvalid(t *testing.T) {
	a := NewAllocator(nil)
	defer func() {
		if recover() == nil {
			t.Error("Info(NoFrame) did not panic")
		}
	}()
	a.Info(NoFrame)
}

// countingCharger is a FrameCharger that only counts.
type countingCharger struct{ frames, shared atomic.Int64 }

func (c *countingCharger) ChargeFrames(n int64)   { c.frames.Add(n) }
func (c *countingCharger) UnchargeFrames(n int64) { c.frames.Add(-n) }
func (c *countingCharger) AdjustShared(n int64)   { c.shared.Add(n) }

// TestPutBatchMatchesPut holds PutBatch to len(frames) calls of Put on a
// twin allocator: ordinary and charged frames at reference counts one to
// three, compound tails (resolved to their head), repeats of one frame
// within a batch — the same counts, frees, charger accounting and
// profile charges.
func TestPutBatchMatchesPut(t *testing.T) {
	type world struct {
		a      *Allocator
		prof   *profile.Profiler
		c      *countingCharger
		frames []Frame // every frame ever referenced, for the comparison
		batch  []Frame
	}
	build := func() *world {
		w := &world{prof: profile.New(), c: &countingCharger{}}
		w.a = NewAllocator(w.prof)
		w.a.shards = w.a.shards[:1] // the twins must hand out the same frames
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 300; i++ {
			var f Frame
			if i%2 == 0 {
				f = w.a.AllocFor(w.c)
			} else {
				f = w.a.Alloc()
			}
			w.frames = append(w.frames, f)
			refs := 1 + rng.Intn(3)
			for r := 1; r < refs; r++ {
				w.a.Get(f)
			}
			// Drop some of the references, possibly all, some of them twice
			// in the one batch.
			for r := rng.Intn(refs + 1); r > 0; r-- {
				w.batch = append(w.batch, f)
			}
		}
		for i := 0; i < 3; i++ {
			head := w.a.AllocHugeFor(w.c)
			w.frames = append(w.frames, head)
			w.a.Get(head + 7)
			w.batch = append(w.batch, head+Frame(100+i)) // a tail: resolves to head
			if i == 0 {
				w.batch = append(w.batch, head) // second and last reference: freed
			}
		}
		rng.Shuffle(len(w.batch), func(i, j int) { w.batch[i], w.batch[j] = w.batch[j], w.batch[i] })
		return w
	}
	one, batched := build(), build()
	for _, f := range one.batch {
		one.a.Put(f)
	}
	batched.a.PutBatch(batched.batch)
	batched.a.PutBatch(nil)

	for i, f := range one.frames {
		if g := batched.frames[i]; g != f {
			t.Fatalf("twin allocators diverged before the test: frame %d vs %d", f, g)
		}
		if got, want := batched.a.RefCount(f), one.a.RefCount(f); got != want {
			t.Errorf("frame %d: refcount %d after PutBatch, %d after Puts", f, got, want)
		}
	}
	if got, want := batched.a.Allocated(), one.a.Allocated(); got != want {
		t.Errorf("allocated %d after PutBatch, %d after Puts", got, want)
	}
	if got, want := batched.c.frames.Load(), one.c.frames.Load(); got != want {
		t.Errorf("charged frames %d after PutBatch, %d after Puts", got, want)
	}
	if got, want := batched.c.shared.Load(), one.c.shared.Load(); got != want {
		t.Errorf("charger shared count %d after PutBatch, %d after Puts", got, want)
	}
	for _, ctr := range []string{profile.PageRefDec, profile.CompoundHead, profile.PageRefInc} {
		if got, want := batched.prof.Count(ctr), one.prof.Count(ctr); got != want {
			t.Errorf("%v charged %d after PutBatch, %d after Puts", ctr, got, want)
		}
	}
	if got := batched.prof.Count(profile.PageRefDec); got != uint64(len(batched.batch)) {
		t.Errorf("page_ref_dec = %d, want one per frame (%d)", got, len(batched.batch))
	}
}

func TestPutBatchNegativeRefcountPanics(t *testing.T) {
	a := NewAllocator(nil)
	f := a.Alloc()
	defer func() {
		if recover() == nil {
			t.Error("PutBatch below zero did not panic")
		}
	}()
	a.PutBatch([]Frame{f, f})
}

// TestConcurrentLastPutsOfChargedFrames is the regression test for the
// charger race: two holders drop the last two references of a charged
// frame at once, so one Put sees the count reach one (and must tell the
// charger the frame is exclusive again) while the other frees the frame
// and clears its charger. Run under -race; Put reading the charger after
// its decrement was a reported data race.
func TestConcurrentLastPutsOfChargedFrames(t *testing.T) {
	a := NewAllocator(nil)
	c := &countingCharger{}
	const n = 2000
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = a.AllocFor(c)
		a.Get(frames[i])
	}
	if got := c.shared.Load(); got != n {
		t.Fatalf("shared count = %d before the puts, want %d", got, n)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2)
	go func() { // one reference at a time
		defer wg.Done()
		<-start
		for _, f := range frames {
			a.Put(f)
		}
	}()
	go func() { // the other reference, a table's worth per batch
		defer wg.Done()
		<-start
		for lo := 0; lo < n; lo += 500 {
			a.PutBatch(frames[lo : lo+500])
		}
	}()
	close(start)
	wg.Wait()
	if got := a.Allocated(); got != 0 {
		t.Errorf("allocated = %d after the last puts, want 0", got)
	}
	if got := c.frames.Load(); got != 0 {
		t.Errorf("charged frames = %d after the last puts, want 0", got)
	}
	if got := c.shared.Load(); got != 0 {
		t.Errorf("shared count = %d after the last puts, want 0", got)
	}
}
