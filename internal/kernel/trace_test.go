package kernel

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TestProcOdfRootListing pins the /proc/odf directory listing: present
// endpoints only, one per line, in the registry's fixed order, with
// profile appearing exactly when a profiler is attached.
func TestProcOdfRootListing(t *testing.T) {
	bare := New()
	got, err := bare.Procfs("/proc/odf")
	if err != nil {
		t.Fatal(err)
	}
	if want := "checkpoints\nfailpoints\nmetrics\ntenants\ntrace\nvmstat\n"; got != want {
		t.Errorf("/proc/odf without profiler = %q, want %q", got, want)
	}
	// A trailing slash reads the same directory.
	slash, err := bare.Procfs("/proc/odf/")
	if err != nil {
		t.Fatal(err)
	}
	if slash != got {
		t.Errorf("/proc/odf/ = %q, want %q", slash, got)
	}

	profiled := New(WithProfiler(profile.New()))
	got, err = profiled.Procfs("/proc/odf")
	if err != nil {
		t.Fatal(err)
	}
	if want := "checkpoints\nfailpoints\nmetrics\nprofile\ntenants\ntrace\nvmstat\n"; got != want {
		t.Errorf("/proc/odf with profiler = %q, want %q", got, want)
	}

	// Every listed name must itself resolve.
	for _, name := range []string{"failpoints", "metrics", "profile", "trace", "vmstat"} {
		if _, err := profiled.Procfs("/proc/odf/" + name); err != nil {
			t.Errorf("listed endpoint %s does not read: %v", name, err)
		}
	}
	if _, err := bare.Procfs("/proc/odf/profile"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("profile without profiler = %v, want fs.ErrNotExist", err)
	}
}

// TestProcfsTraceGolden pins the /proc/odf/trace text format. The
// fixture is emitted directly into the kernel's tracer so timestamps
// and ordering are deterministic.
func TestProcfsTraceGolden(t *testing.T) {
	k := New()
	k.SetTraceEnabled(true)
	us := time.Microsecond.Nanoseconds()
	for _, e := range []trace.Event{
		{TS: 2 * us, Dur: 11 * us, Kind: trace.KindFork, Stage: trace.StageNone, Actor: trace.ActorApp, Arg1: 1, Arg2: 2},
		{TS: 3 * us, Dur: 4 * us, Kind: trace.KindForkStage, Stage: trace.StageShare, Actor: trace.ActorForkWorker(1), Arg1: 0, Arg2: 256},
		{TS: 9 * us, Dur: 1 * us, Kind: trace.KindForkStage, Stage: trace.StageTLB, Actor: trace.ActorApp},
		{TS: 20 * us, Dur: 3 * us, Kind: trace.KindFault, Stage: trace.ResolveTableCopy, Actor: trace.ActorApp, Arg1: 0x7f0000001000, Arg2: 1},
		{TS: 30 * us, Kind: trace.KindReclaimEvict, Stage: trace.StageNone, Actor: trace.ActorKswapd, Arg1: 42, Arg2: 7},
	} {
		k.Tracer().Emit(e)
	}
	k.SetTraceEnabled(false)
	got, err := k.Procfs("/proc/odf/trace")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "proc_trace.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/proc/odf/trace differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestKernelTraceLifecycle checks the kernel-level tracing API: off by
// default, a traced fork+fault window produces classified events, the
// Chrome export validates, and re-enabling starts a fresh timeline.
func TestKernelTraceLifecycle(t *testing.T) {
	k := New()
	if k.TraceEnabled() {
		t.Fatal("tracing enabled at boot")
	}
	if s := k.TraceSnapshot(); len(s.Events) != 0 {
		t.Fatalf("events recorded while disabled: %d", len(s.Events))
	}

	k.SetTraceEnabled(true)
	p := k.NewProcess()
	defer p.Exit()
	base, err := p.Mmap(4*addr.PTECoverage, vm.ProtRead|vm.ProtWrite, vm.MapPrivate|vm.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	c, err := p.Fork(WithMode(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Exit()
	// First write through a shared table: a table-copy fault.
	if err := c.StoreByte(base, 2); err != nil {
		t.Fatal(err)
	}
	k.SetTraceEnabled(false)

	s := k.TraceSnapshot()
	kinds := map[trace.Kind]int{}
	stages := map[trace.Stage]int{}
	for _, e := range s.Events {
		kinds[e.Kind]++
		stages[e.Stage]++
	}
	if kinds[trace.KindFork] == 0 {
		t.Error("no fork event recorded")
	}
	if stages[trace.StageShare] == 0 || stages[trace.StageTLB] == 0 {
		t.Errorf("fork stages missing: %v", stages)
	}
	if stages[trace.ResolveTableCopy] == 0 {
		t.Errorf("table-copy fault not classified: %v", stages)
	}

	var buf bytes.Buffer
	if err := k.WriteTrace(&buf, trace.FormatChrome); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("chrome export invalid: %v", err)
	}

	// Re-enabling resets: the old timeline must not leak into the new.
	k.SetTraceEnabled(true)
	if s := k.TraceSnapshot(); len(s.Events) != 0 {
		t.Errorf("re-enable kept %d stale events", len(s.Events))
	}
	k.SetTraceEnabled(false)
}

// TestTraceDuringSwapPressure records a timeline while concurrent
// lineages fork (all engines, parallel workers) and write under a
// frame limit with swap on, so kswapd and direct reclaim run during
// recording. Primarily a race-detector target for the tracer's
// lock-free ring; it also checks the trace captured both the fork and
// the reclaim side, and that the export stays well-formed.
func TestTraceDuringSwapPressure(t *testing.T) {
	k := New()
	k.SetSwapEnabled(true)
	defer k.SetSwapEnabled(false)
	k.SetTraceEnabled(true)
	defer k.SetTraceEnabled(false)

	// Generous hard limit (forks have no OOM stall path, and a limit
	// tighter than one lineage's working set can livelock three
	// lineages stealing each other's frames), but watermarks so
	// aggressive that kswapd starts evicting as soon as any single
	// lineage's working set materializes: free dips below low once
	// ~100 frames are allocated, and OOM would need the full 4096.
	const pages = 256
	const limit = 4096
	k.Allocator().SetLimit(k.Allocator().Allocated() + limit)
	defer k.Allocator().SetLimit(0)
	if err := k.SetSwapWatermarks(limit-96, limit-48); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for l := 0; l < 3; l++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			root := k.NewProcess()
			defer root.Exit()
			base, err := root.Mmap(pages/2*addr.PageSize, vm.ProtRead|vm.ProtWrite, vm.MapPrivate)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < pages/2; i++ {
				if err := root.StoreByte(base+addr.V(i*addr.PageSize), byte(seed)); err != nil {
					t.Errorf("init write: %v", err)
					return
				}
			}
			// Synchronous direct reclaim: kswapd runs off the aggressive
			// watermarks as scheduling allows, but the test must not
			// depend on the background goroutine winning the CPU before
			// this short workload finishes, so each lineage also evicts
			// a batch of its (and its peers') cold pages in-line.
			k.Reclaim().ReclaimFrames(32)
			opts := []ForkOpt{WithMode(core.ForkOnDemand)}
			if seed%2 == 1 {
				opts = []ForkOpt{WithMode(core.ForkClassic), WithWorkers(2)}
			}
			for rep := 0; rep < 4; rep++ {
				c, err := root.Fork(opts...)
				if err != nil {
					t.Errorf("fork: %v", err)
					return
				}
				for i := 0; i < pages/2; i += 8 {
					if err := c.StoreByte(base+addr.V(i*addr.PageSize), byte(rep)); err != nil {
						t.Errorf("child write: %v", err)
						break
					}
				}
				c.Exit()
			}
		}(l)
	}
	wg.Wait()

	s := k.TraceSnapshot()
	kinds := map[trace.Kind]int{}
	for _, e := range s.Events {
		kinds[e.Kind]++
	}
	if kinds[trace.KindFork] == 0 {
		t.Error("pressure trace has no fork events")
	}
	if kinds[trace.KindFault] == 0 {
		t.Error("pressure trace has no fault events")
	}
	if kinds[trace.KindReclaimScan] == 0 && kinds[trace.KindWriteback] == 0 {
		t.Errorf("pressure trace shows no reclaim activity: %v", kinds)
	}
	var buf bytes.Buffer
	if err := k.WriteTrace(&buf, trace.FormatChrome); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("chrome export invalid under pressure: %v", err)
	}
}
