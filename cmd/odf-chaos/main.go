// Command odf-chaos soak-tests the memory subsystem under randomized
// fault injection: a deterministic workload of forks (all engines),
// page writes, reads, and process exits runs with failpoints armed on
// the allocation, swap I/O, and fork paths, while a shadow copy of
// every process's memory checks that no injected failure ever corrupts
// surviving state. The run ends with a full audit: every lineage
// byte-identical to its shadow, accounting invariants clean, zero
// leaked frames, zero leaked swap slots, and no leaked goroutines.
//
// Usage:
//
//	odf-chaos [-seed N] [-ops N] [-p P] [-points a,b,c] [-frames N]
//
// A fixed -seed replays the identical op and injection schedule.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/odfork"
)

var (
	seed     = flag.Uint64("seed", 1, "op schedule and injection PRNG seed")
	ops      = flag.Int("ops", 10000, "chaos operations to run")
	prob     = flag.Float64("p", 0.01, "per-check injection probability")
	points   = flag.String("points", defaultPoints, "comma-separated failpoints to arm")
	frames   = flag.Int64("frames", 8192, "physical frame limit (0 = none)")
	tenantsN = flag.Int("tenants", 0, "0 = single-domain chaos; 2 = blast-radius mode "+
		"(injection scoped to tenant A, tenant B is an untouched control)")
)

// The default schedule arms the alloc, swap I/O, and fork stages — the
// acceptance matrix. fault.* copy paths ride along because chaos
// writes constantly hit COW; swap.corrupt stays out (a corrupted
// payload is genuinely lost data, exercised by unit tests instead).
const defaultPoints = "phys.alloc,phys.shard-refill,swap.read,swap.write,swap.free," +
	"fork.walk,fork.share,fork.refcount,fault.table-copy,fault.page-copy"

// Two private regions per process: a base-page arena and a huge-page
// arena, so PMD splits and huge copies participate.
const (
	baseBytes = 512 * odfork.KiB
	hugeBytes = odfork.HugePageSize
	maxProcs  = 12
)

// proc pairs a live process with the shadow of what its memory must
// contain.
type proc struct {
	p          *odfork.Process
	base, huge odfork.Addr
	shadow     []byte // baseBytes of base arena then hugeBytes of huge arena
}

func (pr *proc) addrOf(off int) odfork.Addr {
	if off < int(baseBytes) {
		return pr.base + odfork.Addr(off)
	}
	return pr.huge + odfork.Addr(off-int(baseBytes))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "odf-chaos: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// tolerable reports whether an op error is an injected (or pressure)
// failure the workload is expected to absorb, as opposed to
// corruption.
func tolerable(err error) bool {
	return errors.Is(err, odfork.ErrNoMem) || errors.Is(err, odfork.ErrSwapIO)
}

func main() {
	flag.Parse()
	if *tenantsN != 0 && *tenantsN != 2 {
		fail("-tenants must be 0 or 2")
	}
	rng := rand.New(rand.NewSource(int64(*seed)))

	sys := odfork.NewSystem()
	if *frames > 0 {
		sys.SetFrameLimit(*frames)
	}
	sys.SetSwapEnabled(true)

	// Blast-radius mode: the chaos pool belongs to tenant A and all
	// injection is scoped to A's work; tenant B runs a quiet control
	// lineage through the same kernel. Any corruption of B is a
	// containment failure, not bad luck.
	var tenantA, tenantB *odfork.Tenant
	var broot *proc
	if *tenantsN == 2 {
		var err error
		if tenantA, err = sys.NewTenant("chaos-a", 0); err != nil {
			fail("tenant A: %v", err)
		}
		if tenantB, err = sys.NewTenant("control-b", 0); err != nil {
			fail("tenant B: %v", err)
		}
	}

	root := spawn(sys, rng, tenantA)
	procs := []*proc{root}
	if tenantB != nil {
		broot = spawn(sys, rng, tenantB)
	}

	// The fork worker pool starts on the first classic fork that fans
	// out and stays. Run the schedule's classic+workers fork once before
	// the goroutine baseline, so a pool it starts is not counted as a
	// leak.
	warm, err := root.p.Fork(odfork.WithMode(odfork.Classic), odfork.WithWorkers(4))
	if err != nil {
		fail("warmup fork: %v", err)
	}
	warm.Exit()
	baseline := runtime.NumGoroutine()

	// Arm the schedule only after setup, so the initial population is
	// deterministic regardless of the armed set.
	sys.SetFailpointSeed(*seed)
	sys.SetFailpointsEnabled(true)
	if tenantA != nil {
		sys.SetFailpointScope(tenantA)
	}
	armed := strings.Split(*points, ",")
	for _, name := range armed {
		name = strings.TrimSpace(name)
		if failpoint.Index(name) < 0 {
			fail("unknown failpoint %q (catalog: %s)", name, strings.Join(failpoint.Catalog(), ", "))
		}
		if err := sys.SetFailpoint(name, fmt.Sprintf("prob:%g", *prob)); err != nil {
			fail("arming %s: %v", name, err)
		}
	}
	mode := ""
	if tenantA != nil {
		mode = " tenants=2 (scope: chaos-a)"
	}
	fmt.Printf("odf-chaos: seed=%d ops=%d p=%g frames=%d points=%d%s\n",
		*seed, *ops, *prob, *frames, len(armed), mode)

	start := time.Now()
	var forks, aborts, writes, reads, exits int
	for op := 0; op < *ops; op++ {
		switch r := rng.Intn(100); {
		case r < 20: // fork
			parent := procs[rng.Intn(len(procs))]
			if len(procs) >= maxProcs {
				victim := 1 + rng.Intn(len(procs)-1) // never the root
				procs[victim].p.Exit()
				procs = append(procs[:victim], procs[victim+1:]...)
				exits++
				if parent.p.Exited() {
					continue
				}
			}
			opts := []odfork.ForkOpt{odfork.WithMode(odfork.OnDemand)}
			switch rng.Intn(4) {
			case 0:
				opts[0] = odfork.WithMode(odfork.Classic)
			case 1:
				opts = []odfork.ForkOpt{odfork.WithMode(odfork.Classic), odfork.WithWorkers(4)}
			case 2:
				opts = append(opts, odfork.WithForkOptions(odfork.ForkOptions{ShareHugePMD: true}))
			}
			child, err := parent.p.Fork(opts...)
			if err != nil {
				if !tolerable(err) {
					fail("op %d: fork: %v", op, err)
				}
				aborts++
				continue
			}
			forks++
			cp := &proc{p: child, base: parent.base, huge: parent.huge,
				shadow: append([]byte(nil), parent.shadow...)}
			procs = append(procs, cp)
			// A fresh fork must read back byte-identical to its parent.
			if err := equalWithRetry(parent, cp); err != nil {
				fail("op %d: post-fork divergence: %v", op, err)
			}
		case r < 70: // write a batch of bytes
			pr := procs[rng.Intn(len(procs))]
			for i := 0; i < 16; i++ {
				off := rng.Intn(len(pr.shadow))
				b := byte(rng.Intn(256))
				if err := pr.p.StoreByte(pr.addrOf(off), b); err != nil {
					if !tolerable(err) {
						fail("op %d: write: %v", op, err)
					}
					continue // failed before mutating: shadow unchanged
				}
				pr.shadow[off] = b
				writes++
			}
		case r < 95: // read-verify a batch of bytes
			pr := procs[rng.Intn(len(procs))]
			for i := 0; i < 16; i++ {
				off := rng.Intn(len(pr.shadow))
				got, err := pr.p.LoadByte(pr.addrOf(off))
				if err != nil {
					if !tolerable(err) {
						fail("op %d: read: %v", op, err)
					}
					continue
				}
				if got != pr.shadow[off] {
					fail("op %d: pid %d offset %d: read %#x, shadow %#x",
						op, pr.p.PID(), off, got, pr.shadow[off])
				}
				reads++
			}
		default: // exit a non-root process
			if len(procs) > 1 {
				victim := 1 + rng.Intn(len(procs)-1)
				procs[victim].p.Exit()
				procs = append(procs[:victim], procs[victim+1:]...)
				exits++
			}
		}
		// The control tenant keeps working through the storm: its
		// writes and reads must never see an injected fault (scope
		// excludes B) and must never observe corrupt data.
		if broot != nil && (op+1)%100 == 0 {
			for i := 0; i < 8; i++ {
				off := rng.Intn(len(broot.shadow))
				b := byte(rng.Intn(256))
				if err := broot.p.StoreByte(broot.addrOf(off), b); err != nil {
					fail("op %d: control tenant write: %v (injection leaked across the scope?)", op, err)
				}
				broot.shadow[off] = b
			}
			for i := 0; i < 8; i++ {
				off := rng.Intn(len(broot.shadow))
				got, err := broot.p.LoadByte(broot.addrOf(off))
				if err != nil {
					fail("op %d: control tenant read: %v (injection leaked across the scope?)", op, err)
				}
				if got != broot.shadow[off] {
					fail("op %d: CROSS-TENANT CORRUPTION: control offset %d read %#x, shadow %#x",
						op, off, got, broot.shadow[off])
				}
			}
		}
		if (op+1)%1000 == 0 {
			if err := sys.CheckInvariants(); err != nil {
				fail("op %d: invariants: %v", op, err)
			}
			fmt.Printf("  %6d ops | procs=%2d forks=%d aborts=%d writes=%d reads=%d injected=%d\n",
				op+1, len(procs), forks, aborts, writes, reads, sys.Metrics().Robust.InjectedFaults)
		}
	}

	// Drain phase: injection off, then every surviving lineage must be
	// byte-exact and the books must balance. The telemetry snapshot is
	// taken first — disabling failpoints resets the injection counters.
	snap := sys.Metrics()
	sys.SetFailpointsEnabled(false)
	if err := sys.CheckInvariants(); err != nil {
		fail("final invariants: %v", err)
	}
	// The control lineage is audited with the same byte-exactness bar
	// as the chaos pool; its account must also balance.
	if broot != nil {
		procs = append(procs, broot)
	}
	buf := make([]byte, len(procs[0].shadow))
	for _, pr := range procs {
		if err := pr.p.ReadAt(buf[:baseBytes], pr.base); err != nil {
			fail("final read pid %d: %v", pr.p.PID(), err)
		}
		if err := pr.p.ReadAt(buf[baseBytes:], pr.huge); err != nil {
			fail("final read pid %d: %v", pr.p.PID(), err)
		}
		for i := range buf {
			if buf[i] != pr.shadow[i] {
				fail("final verify pid %d offset %d: %#x != shadow %#x",
					pr.p.PID(), i, buf[i], pr.shadow[i])
			}
		}
	}

	for _, pr := range procs {
		pr.p.Exit()
	}
	if n := sys.LiveProcesses(); n != 0 {
		fail("%d processes survived the drain", n)
	}
	for _, ts := range sys.TenantStats() {
		if ts.UsageFrames != 0 {
			fail("tenant %s: %d frames still charged after the drain", ts.Name, ts.UsageFrames)
		}
	}
	if n := sys.AllocatedFrames(); n != 0 {
		fail("%d frames leaked", n)
	}
	if n := vmstatValue(sys, "swap_slots"); n != 0 {
		fail("%d swap slots leaked", n)
	}
	if n := vmstatValue(sys, "swap_store_slots"); n != 0 {
		fail("%d swap store slots leaked", n)
	}
	sys.SetSwapEnabled(false) // joins kswapd
	time.Sleep(50 * time.Millisecond)
	if n := runtime.NumGoroutine(); n > baseline {
		fail("goroutines leaked: %d > baseline %d", n, baseline)
	}

	fmt.Printf("odf-chaos: PASS in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  forks=%d aborted=%d writes=%d reads=%d exits=%d\n",
		forks, aborts, writes, reads, exits)
	fmt.Printf("  injected=%d fork_aborts=%d swap_retries=%d/%d degraded=%v\n",
		snap.Robust.InjectedFaults, snap.Robust.ForkAborts,
		snap.Robust.SwapReadRetries, snap.Robust.SwapWriteRetries, sys.SwapDegraded())
}

// spawn creates a root process (owned by tn when non-nil): both arenas
// mapped, populated with a deterministic pattern, and mirrored into
// the shadow.
func spawn(sys *odfork.System, rng *rand.Rand, tn *odfork.Tenant) *proc {
	p := sys.NewTenantProcess(tn)
	base, err := p.Mmap(baseBytes, odfork.ProtRead|odfork.ProtWrite, odfork.MapPrivate)
	if err != nil {
		fail("mmap base arena: %v", err)
	}
	huge, err := p.Mmap(hugeBytes, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapHuge)
	if err != nil {
		fail("mmap huge arena: %v", err)
	}
	pr := &proc{p: p, base: base, huge: huge, shadow: make([]byte, baseBytes+hugeBytes)}
	rng.Read(pr.shadow)
	if err := p.WriteAt(pr.shadow[:baseBytes], base); err != nil {
		fail("populate base arena: %v", err)
	}
	if err := p.WriteAt(pr.shadow[baseBytes:], huge); err != nil {
		fail("populate huge arena: %v", err)
	}
	return pr
}

// equalWithRetry compares child against parent over both arenas,
// retrying when the comparison itself trips an injected fault (the
// reads fault pages in through the same instrumented paths).
func equalWithRetry(parent, child *proc) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		a, b := parent.p.Space(), child.p.Space()
		if err = core.EqualMemory(a, b, addr.NewRange(parent.base, baseBytes)); err == nil {
			err = core.EqualMemory(a, b, addr.NewRange(parent.huge, hugeBytes))
		}
		if err == nil || !tolerable(err) {
			return err
		}
	}
	return err
}

// vmstatValue parses one "name value" line out of /proc/odf/vmstat.
func vmstatValue(sys *odfork.System, name string) int64 {
	text, err := sys.Procfs("/proc/odf/vmstat")
	if err != nil {
		fail("vmstat: %v", err)
	}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				fail("vmstat %s: %v", name, err)
			}
			return v
		}
	}
	fail("vmstat has no %q line", name)
	return 0
}
