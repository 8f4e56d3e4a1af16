package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/mem/phys"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
	"repro/internal/profile"
)

// forceFanOut lowers the fan-out threshold for one test, so a classic
// fork with Parallelism > 1 reaches the worker pool even on the small
// regions tests use.
func forceFanOut(t *testing.T) {
	t.Helper()
	prev := fanOutMinTasks
	fanOutMinTasks = 0
	t.Cleanup(func() { fanOutMinTasks = prev })
}

// newMeteredSpace is newSpace with a metrics registry and a profiler.
func newMeteredSpace() (*AddressSpace, *metrics.Registry, *profile.Profiler) {
	prof := profile.New()
	alloc := phys.NewAllocator(prof)
	met := metrics.New()
	alloc.SetMetrics(met)
	return NewAddressSpace(alloc, prof), met, prof
}

// TestForkParallelMatchesSequential: a classic fork fanned out to the
// pool produces the same child as a sequential one, and an on-demand
// fork ignores Parallelism — it takes the sequential path and records
// no fan-out.
func TestForkParallelMatchesSequential(t *testing.T) {
	forceFanOut(t)
	for _, mode := range forkModes() {
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				as, met, _ := newMeteredSpace()
				defer as.Teardown()
				size := uint64(6 * addr.PTECoverage)
				base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
				fillPattern(t, as, base, size, 0xC3)

				seq := Fork(as, mode)
				before := met.Snapshot()
				par := mustForkOpts(as, mode, ForkOptions{Parallelism: workers})
				fanned := met.Snapshot().Sub(before).Fork.ParallelForks
				r := addr.NewRange(base, size)
				if err := EqualMemory(as, par, r); err != nil {
					t.Fatalf("parallel child diverges from parent: %v", err)
				}
				if err := EqualMemory(seq, par, r); err != nil {
					t.Fatalf("parallel child diverges from sequential child: %v", err)
				}
				if err := CheckInvariants(as, seq, par); err != nil {
					t.Fatal(err)
				}
				want := uint64(0)
				if mode == ForkClassic {
					want = 1
				}
				if fanned != want {
					t.Errorf("ParallelForks = %d, want %d", fanned, want)
				}
				par.Teardown()
				seq.Teardown()
			})
		}
	}
}

// classicForkImage is what a classic fork of a fixed parent leaves
// behind, with frame numbers stripped so two address spaces compare.
type classicForkImage struct {
	flags        []pagetable.Entry // flag bits of every child leaf entry
	refs         []int32           // refcount of each mapped page, in entry order
	fig3         fig3Counts
	tablesCopied uint64
}

// classicForkWith forks a fresh, patterned 5-table parent classically
// with the given worker count and records the result.
func classicForkWith(t *testing.T, workers int) classicForkImage {
	t.Helper()
	as, met, prof := newMeteredSpace()
	defer as.Teardown()
	size := uint64(5 * addr.PTECoverage)
	base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, size, 0x11)
	var img classicForkImage
	var child *AddressSpace
	before := met.Snapshot()
	img.fig3 = fig3Delta(prof, func() {
		child = mustForkOpts(as, ForkClassic, ForkOptions{Parallelism: workers})
	})
	defer child.Teardown()
	img.tablesCopied = met.Snapshot().Sub(before).Fork.TablesCopied
	r := addr.NewRange(base, size)
	if err := EqualMemory(as, child, r); err != nil {
		t.Fatal(err)
	}
	pw, cw := leafWords(as, r), leafWords(child, r)
	if len(pw) != len(cw) {
		t.Fatalf("child has %d leaf entries, parent %d", len(cw), len(pw))
	}
	for i, e := range cw {
		if e != pw[i] {
			t.Fatalf("child entry %d = %v, parent %v", i, e, pw[i])
		}
		img.flags = append(img.flags, e&pagetable.Entry(addr.PageSize-1))
		if e.Present() {
			img.refs = append(img.refs, as.Allocator().RefCount(e.Frame()))
		}
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestClassicForkParallelIdentical: the collect-then-execute engine
// gives the same child — entry words, page refcounts, Figure 3 counters
// and tables copied — whether one goroutine runs the tasks or the pool
// shares them.
func TestClassicForkParallelIdentical(t *testing.T) {
	forceFanOut(t)
	seq, par := classicForkWith(t, 1), classicForkWith(t, 4)
	if !reflect.DeepEqual(seq.flags, par.flags) {
		t.Error("leaf entry flags differ between Parallelism 1 and 4")
	}
	if !reflect.DeepEqual(seq.refs, par.refs) {
		t.Error("page refcounts differ between Parallelism 1 and 4")
	}
	if !seq.fig3.equal(par.fig3) {
		t.Errorf("Figure 3 counters: Parallelism 4 charged %v, 1 charged %v", par.fig3, seq.fig3)
	}
	if seq.tablesCopied != 5 || par.tablesCopied != seq.tablesCopied {
		t.Errorf("TablesCopied = %d (Parallelism 1), %d (4), want 5", seq.tablesCopied, par.tablesCopied)
	}
}

// TestForkParallelProfileCounts pins the semantic equivalence of the
// fan-out: a parallel classic fork must perform exactly the same
// per-page and per-table accounting work as a sequential one —
// batching may merge profiler charges, never change their totals. The
// on-demand case shows Parallelism changes nothing there either.
func TestForkParallelProfileCounts(t *testing.T) {
	forceFanOut(t)
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			counts := func(workers int) map[string]uint64 {
				as, _, prof := newMeteredSpace()
				defer as.Teardown()
				size := uint64(5 * addr.PTECoverage)
				base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
				fillPattern(t, as, base, size, 0x11)
				prof.Reset()
				child := mustForkOpts(as, mode, ForkOptions{Parallelism: workers})
				defer child.Teardown()
				out := map[string]uint64{}
				for _, name := range []string{
					profile.CopyOnePTE, profile.PageRefInc, profile.CompoundHead,
					profile.PTShareInc, profile.UpperWalk, profile.TLBFlush,
				} {
					out[name] = prof.Count(name)
				}
				return out
			}
			seq, par := counts(1), counts(4)
			for name, want := range seq {
				if got := par[name]; got != want {
					t.Errorf("%s: parallel fork charged %d, sequential %d", name, got, want)
				}
			}
		})
	}
}

func TestForkParallelismValidation(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	mustMmap(t, as, uint64(addr.PTECoverage), rw, vm.MapPrivate|vm.MapPopulate)

	t.Run("negative panics", func(t *testing.T) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("ForkWithOptions accepted Parallelism=-1")
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "Parallelism") {
				t.Errorf("panic message %q does not name the knob", msg)
			}
		}()
		mustForkOpts(as, ForkClassic, ForkOptions{Parallelism: -1})
	})

	t.Run("zero is sequential default", func(t *testing.T) {
		child := mustForkOpts(as, ForkClassic, ForkOptions{})
		defer child.Teardown()
		if err := CheckInvariants(as, child); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("huge values clamp", func(t *testing.T) {
		forceFanOut(t)
		child := mustForkOpts(as, ForkClassic, ForkOptions{Parallelism: 1 << 20})
		defer child.Teardown()
		if err := CheckInvariants(as, child); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForkParallelBelowThreshold checks that a small address space with
// Parallelism set still forks correctly through the sequential
// fallback (the threshold keeps tiny forks off the pool).
func TestForkParallelBelowThreshold(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as, met, _ := newMeteredSpace()
			defer as.Teardown()
			size := uint64(2 * addr.PTECoverage) // 2 slots, one 16-slot chunk
			base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
			fillPattern(t, as, base, size, 0x77)
			child := mustForkOpts(as, mode, ForkOptions{Parallelism: 8})
			defer child.Teardown()
			if err := EqualMemory(as, child, addr.NewRange(base, size)); err != nil {
				t.Fatal(err)
			}
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
			if n := met.Snapshot().Fork.ParallelForks; n != 0 {
				t.Errorf("a fork below the threshold fanned out (ParallelForks = %d)", n)
			}
		})
	}
}

// TestConcurrentForkFaultStress forks the parent from several
// goroutines (each classic fork itself fanned out) while sibling
// children fault-write into the leaves they still share with the
// parent. Run under -race this exercises every cross-goroutine edge of
// the parallel engine: shared leaf locks, share counters, the sharded
// allocator, and the profiler.
func TestConcurrentForkFaultStress(t *testing.T) {
	forceFanOut(t)
	par := ForkOptions{Parallelism: 2}
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			prof := profile.New()
			alloc := phys.NewAllocator(prof)
			as := NewAddressSpace(alloc, prof)
			size := uint64(8 * addr.PTECoverage)
			base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
			fillPattern(t, as, base, size, 0x5A)

			// Siblings created up front; they share leaves with the parent
			// (on-demand) or hold COW pages (classic).
			const siblings = 3
			sibs := make([]*AddressSpace, siblings)
			for i := range sibs {
				sibs[i] = mustForkOpts(as, mode, par)
			}

			const forkers = 4
			const forksEach = 4
			kids := make([][]*AddressSpace, forkers)
			var wg sync.WaitGroup
			for g := 0; g < forkers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < forksEach; it++ {
						kids[g] = append(kids[g], mustForkOpts(as, mode, par))
					}
				}(g)
			}
			for i, sib := range sibs {
				wg.Add(1)
				go func(i int, sib *AddressSpace) {
					defer wg.Done()
					// Fault-write a byte into every 2 MiB region, twice, so
					// leaf splits and COW copies race with the forks above.
					for pass := 0; pass < 2; pass++ {
						for off := uint64(0); off < size; off += uint64(addr.PTECoverage) / 2 {
							v := base + addr.V(off)
							if err := sib.StoreByte(v, byte(i+1)); err != nil {
								t.Errorf("sibling %d write at %#x: %v", i, off, err)
								return
							}
						}
					}
				}(i, sib)
			}
			wg.Wait()

			all := []*AddressSpace{as}
			all = append(all, sibs...)
			for _, ks := range kids {
				all = append(all, ks...)
			}
			if err := CheckInvariants(all...); err != nil {
				t.Fatal(err)
			}
			// The parent was never written post-fill, so every kid forked
			// mid-stress must still read identical memory.
			r := addr.NewRange(base, size)
			for _, ks := range kids {
				for _, k := range ks {
					if err := EqualMemory(as, k, r); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, s := range all {
				s.Teardown()
			}
			if n := alloc.Allocated(); n != 0 {
				t.Errorf("leak: %d frames still allocated", n)
			}
		})
	}
}
