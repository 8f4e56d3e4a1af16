package core

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/mem/vm"
	"repro/internal/profile"
)

// fig3Counters are the Figure 3 event counters the batched leaf kernels
// could disturb: the per-page work of a fork, a table split and an exit.
var fig3Counters = []string{
	profile.CompoundHead, profile.PageRefInc, profile.PageRefDec,
	profile.CopyOnePTE, profile.PTCopy, profile.PTShareInc, profile.PageCopy,
}

type fig3Counts map[string]uint64

func (c fig3Counts) equal(o fig3Counts) bool {
	for _, name := range fig3Counters {
		if c[name] != o[name] {
			return false
		}
	}
	return true
}

// fig3Delta runs step and returns what it charged to each counter.
func fig3Delta(prof *profile.Profiler, step func()) fig3Counts {
	before := fig3Counts{}
	for _, name := range fig3Counters {
		before[name] = prof.Count(name)
	}
	step()
	d := fig3Counts{}
	for _, name := range fig3Counters {
		if n := prof.Count(name) - before[name]; n != 0 {
			d[name] = n
		}
	}
	return d
}

// TestFigure3CountsPerForkSplitExit pins the profile events of one
// classic fork, one on-demand fork, one table split and the exits that
// undo them to the values the per-entry implementation charged (measured
// at the commit before the leaf kernels, on this same scenario: four
// fully populated last-level tables, 2048 pages). Batching the entry
// copy and the refcount traffic must not change how many of the paper's
// per-page operations happen, only what each costs the simulator.
func TestFigure3CountsPerForkSplitExit(t *testing.T) {
	const tables = 4
	const pages = tables * addr.EntriesPerTable
	prof := profile.New()
	alloc := phys.NewAllocator(prof)
	parent := NewAddressSpace(alloc, prof)
	defer parent.Teardown()
	base, err := parent.Mmap(0, tables*addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	var child *AddressSpace
	fork := func(mode ForkMode) func() {
		return func() {
			var err error
			if child, err = ForkWithOptions(parent, mode, ForkOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(as **AddressSpace, v addr.V) func() {
		return func() {
			if err := (*as).Touch(v, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	exit := func() { child.Teardown() }

	steps := []struct {
		name string
		run  func()
		want fig3Counts
	}{
		{"classic fork", fork(ForkClassic), fig3Counts{
			profile.CompoundHead: pages, profile.PageRefInc: pages, profile.CopyOnePTE: pages}},
		{"exit of a classic child", exit, fig3Counts{
			// one per page, one per table of the child's hierarchy
			profile.PageRefDec: pages + tables + 3}},
		{"on-demand fork", fork(ForkOnDemand), fig3Counts{
			profile.PTShareInc: tables}},
		{"first write of the child to a shared region: table split + page copy", write(&child, base), fig3Counts{
			profile.PTCopy: 1, profile.CompoundHead: addr.EntriesPerTable, profile.PageRefInc: addr.EntriesPerTable,
			profile.PageCopy: 1, profile.PageRefDec: 1}},
		{"second write to the same region: page copy only", write(&child, base+addr.PageSize), fig3Counts{
			profile.PageCopy: 1, profile.PageRefDec: 1}},
		{"exit of a child with one privatised table", exit, fig3Counts{
			profile.PageRefDec: addr.EntriesPerTable + 1 + 3}},
		{"parent write after the child is gone: re-dedicates, copies nothing", write(&parent, base), fig3Counts{}},
	}
	for _, s := range steps {
		if got := fig3Delta(prof, s.run); !got.equal(s.want) {
			t.Errorf("%s charged %v, want %v", s.name, got, s.want)
		}
	}
	if err := CheckInvariants(parent); err != nil {
		t.Fatal(err)
	}
}
