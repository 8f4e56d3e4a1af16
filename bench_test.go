package repro

// The benchmark suite regenerates every table and figure of the
// paper's evaluation as testing.B benchmarks, so `go test -bench=.`
// reproduces the whole study at a bounded scale. Sizes here are kept
// moderate for runtime; the odf-bench command sweeps the full ranges.
//
// Run with a fixed iteration count — e.g. `go test -bench=. -benchmem
// -benchtime=50x` — because several benchmarks do expensive unmeasured
// setup per iteration (fork + child teardown around a microsecond
// measured region), which the default time-based iteration search
// multiplies into very long runs.
//
//	Figure 2  -> BenchmarkFig2ForkLatency, BenchmarkFig2Concurrent
//	Figure 3  -> BenchmarkFig3Profile (prints the attribution)
//	Figure 4  -> BenchmarkFig4HugeFork
//	Figure 7  -> BenchmarkFig7Invocation
//	Table 1   -> BenchmarkTab1FaultCost
//	Figure 8  -> BenchmarkFig8Overall
//	Figure 9  -> BenchmarkFig9Fuzzing
//	Tables 2-3-> BenchmarkTab3UnitTest (fork+test per engine)
//	Tables 4-5-> BenchmarkTab5RedisFork (snapshot fork under load)
//	Figure 10 -> BenchmarkFig10VMClone
//	Tables 6-7-> BenchmarkTab6Httpd
//	Ablations -> BenchmarkAblation*, BenchmarkFaultFastPath

import (
	"fmt"
	"testing"

	"repro/internal/apps/fuzz"
	"repro/internal/apps/httpd"
	"repro/internal/apps/kvstore"
	"repro/internal/apps/sqlike"
	"repro/internal/apps/vmclone"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/kernel"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
	"repro/internal/profile"
)

const (
	benchMiB = uint64(1) << 20
	rwProt   = vm.ProtRead | vm.ProtWrite
	popFlags = vm.MapPrivate | vm.MapPopulate
)

// forkParent builds a process with size bytes of populated memory.
func forkParent(b *testing.B, k *kernel.Kernel, size uint64, flags vm.MapFlags) *kernel.Process {
	b.Helper()
	p := k.NewProcess()
	if _, err := p.Mmap(size, rwProt, flags); err != nil {
		b.Fatal(err)
	}
	return p
}

func benchFork(b *testing.B, size uint64, mode core.ForkMode, flags vm.MapFlags) {
	b.ReportAllocs()
	k := kernel.New()
	p := forkParent(b, k, size, flags)
	defer p.Exit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Fork(kernel.WithMode(mode))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Exit()
		c.Wait()
		b.StartTimer()
	}
}

// BenchmarkForkOnDemand measures the headline operation — an
// on-demand fork of a 256 MiB process — with telemetry collection on
// (the default) and off, and with the flight recorder on and off, so
// the sub-benchmarks bound the overhead of both observability layers
// on the hot path. trace-off is the shipping configuration (tracing
// costs one atomic load per instrumentation point); the acceptance
// bar is trace-off within 2% of metrics-on. Every row runs with the
// failpoint registry attached but disarmed (the shipping state, one
// atomic load per site); failpoints-armed bounds the cost of arming a
// point elsewhere in the system, which upgrades the fork sites to a
// name lookup plus a per-point mode load without firing anything.
func BenchmarkForkOnDemand(b *testing.B) {
	b.ReportAllocs()
	for _, mc := range []struct {
		name  string
		opts  []kernel.Option
		trace bool
		setup func(*kernel.Kernel)
	}{
		{"metrics-on", nil, false, nil},
		{"metrics-off", []kernel.Option{kernel.WithMetricsDisabled()}, false, nil},
		{"trace-off", nil, false, nil},
		{"trace-on", nil, true, nil},
		{"failpoints-armed", nil, false, func(k *kernel.Kernel) {
			// kswapd never runs here, so the point never fires; its
			// being armed is what flips the fork sites onto the
			// armed-registry path.
			if err := k.SetFailpoint(failpoint.KswapdPanic, "every:1000000"); err != nil {
				b.Fatal(err)
			}
		}},
	} {
		b.Run(mc.name, func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New(mc.opts...)
			k.SetTraceEnabled(mc.trace)
			if mc.setup != nil {
				mc.setup(k)
			}
			p := forkParent(b, k, 256*benchMiB, popFlags)
			defer p.Exit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := p.Fork(kernel.WithMode(core.ForkOnDemand))
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c.Exit()
				c.Wait()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFig2ForkLatency is the Figure 2 sequential line: classic
// fork latency at increasing memory sizes.
func BenchmarkFig2ForkLatency(b *testing.B) {
	b.ReportAllocs()
	for _, mb := range []uint64{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			b.ReportAllocs()
			benchFork(b, mb*benchMiB, core.ForkClassic, popFlags)
		})
	}
}

// BenchmarkFig2Concurrent is the Figure 2 concurrent line: three
// benchmark instances forking in parallel on one kernel.
func BenchmarkFig2Concurrent(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New()
	procs := make([]*kernel.Process, 3)
	for i := range procs {
		procs[i] = forkParent(b, k, 128*benchMiB, popFlags)
		defer procs[i].Exit()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, len(procs))
		for _, p := range procs {
			go func(p *kernel.Process) {
				c, err := p.Fork(kernel.WithMode(core.ForkClassic))
				if err == nil {
					c.Exit()
				}
				done <- err
			}(p)
		}
		for range procs {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkForkParallel sweeps the parallel classic fork engine:
// worker counts 1–8 across 128 MiB–1 GiB. The 1-worker rows are the
// sequential baseline; speedup at 4 workers on a ≥ 1 GiB fork is the
// headline number on a multi-core runner. On-demand fork ignores
// Parallelism, so it has no rows here.
func BenchmarkForkParallel(b *testing.B) {
	b.ReportAllocs()
	for _, mb := range []uint64{128, 256, 512, 1024} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%dMB/workers=%d", mb, workers), func(b *testing.B) {
				b.ReportAllocs()
				k := kernel.New()
				p := forkParent(b, k, mb*benchMiB, popFlags)
				defer p.Exit()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := p.Fork(kernel.WithMode(core.ForkClassic), kernel.WithWorkers(workers))
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					c.Exit()
					c.Wait()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkFig3Profile reproduces the profile attribution; the rendered
// report is printed once.
func BenchmarkFig3Profile(b *testing.B) {
	b.ReportAllocs()
	prof := profile.New()
	k := kernel.New(kernel.WithProfiler(prof))
	p := forkParent(b, k, 128*benchMiB, popFlags)
	defer p.Exit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Fork(kernel.WithMode(core.ForkClassic))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Exit()
		b.StartTimer()
	}
	b.StopTimer()
	if b.N > 1 {
		b.Logf("\n%s", prof.String())
	}
}

// BenchmarkFig4HugeFork is the Figure 4 curve: classic fork over 2 MiB
// pages.
func BenchmarkFig4HugeFork(b *testing.B) {
	b.ReportAllocs()
	for _, mb := range []uint64{128, 512} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			b.ReportAllocs()
			benchFork(b, mb*benchMiB, core.ForkClassic, popFlags|vm.MapHuge)
		})
	}
}

// BenchmarkFig7Invocation compares the three engines at one size — the
// Figure 7 cross-section.
func BenchmarkFig7Invocation(b *testing.B) {
	b.ReportAllocs()
	const size = 256 * benchMiB
	b.Run("fork", func(b *testing.B) { benchFork(b, size, core.ForkClassic, popFlags) })
	b.Run("fork-huge-pages", func(b *testing.B) {
		b.ReportAllocs()
		benchFork(b, size, core.ForkClassic, popFlags|vm.MapHuge)
	})
	b.Run("on-demand-fork", func(b *testing.B) { benchFork(b, size, core.ForkOnDemand, popFlags) })
}

// BenchmarkTab1FaultCost measures the worst-case fault: the child's
// first write to the middle of the region after fork.
func BenchmarkTab1FaultCost(b *testing.B) {
	b.ReportAllocs()
	const size = 64 * benchMiB
	cases := []struct {
		name  string
		mode  core.ForkMode
		flags vm.MapFlags
	}{
		{"fork", core.ForkClassic, popFlags},
		{"fork-huge-pages", core.ForkClassic, popFlags | vm.MapHuge},
		{"on-demand-fork", core.ForkOnDemand, popFlags},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			p := k.NewProcess()
			base, err := p.Mmap(size, rwProt, tc.flags)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Exit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := p.Fork(kernel.WithMode(tc.mode))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := c.StoreByte(base+addr.V(size/2), 1); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c.Exit()
				c.Wait()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFig8Overall measures fork + sequential access of half the
// region (50/50 read-write), per engine — one cell of Figure 8.
func BenchmarkFig8Overall(b *testing.B) {
	b.ReportAllocs()
	const size = 64 * benchMiB
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			buf := make([]byte, 256*1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := forkParent(b, k, size, popFlags)
				b.StartTimer()
				c, err := p.Fork(kernel.WithMode(mode))
				if err != nil {
					b.Fatal(err)
				}
				base := addr.V(0x7f00_0000_0000)
				for off := uint64(0); off < size/2; off += uint64(len(buf)) {
					var err error
					if (off/uint64(len(buf)))%2 == 0 {
						err = p.ReadAt(buf, base+addr.V(off))
					} else {
						err = p.WriteAt(buf, base+addr.V(off))
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				c.Exit()
				p.Exit()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFig9Fuzzing measures one fuzzing execution (fork + target +
// teardown) per engine over a loaded database.
func BenchmarkFig9Fuzzing(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			f, err := fuzz.NewFuzzer(k, fuzz.Config{
				DB:       sqlike.Config{ArenaBytes: 64 * benchMiB, MaxItems: 40000, MaxTags: 1000},
				Items:    20000,
				NameLen:  24,
				TagEvery: 50,
				Mode:     mode,
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.RunOne(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTab3UnitTest measures fork + one unit test per engine over a
// loaded database (the Table 3 flow; Table 2's init phase is the
// fuzzer/database Load, measured by BenchmarkDatabaseLoad).
func BenchmarkTab3UnitTest(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			proc := k.NewProcess()
			defer proc.Exit()
			db, err := sqlike.New(proc, sqlike.Config{
				ArenaBytes: 64 * benchMiB, MaxItems: 40000, MaxTags: 1000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.Load(20000, 24, 50); err != nil {
				b.Fatal(err)
			}
			tests := sqlike.StandardTests()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ut := tests[i%len(tests)]
				c, err := proc.Fork(kernel.WithMode(mode))
				if err != nil {
					b.Fatal(err)
				}
				if err := ut.Run(db.Clone(c)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c.Exit()
				c.Wait()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDatabaseLoad is the Table 2 initialization phase.
func BenchmarkDatabaseLoad(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New()
	for i := 0; i < b.N; i++ {
		proc := k.NewProcess()
		db, err := sqlike.New(proc, sqlike.Config{
			ArenaBytes: 64 * benchMiB, MaxItems: 40000, MaxTags: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Load(20000, 24, 50); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		proc.Exit()
		b.StartTimer()
	}
}

// BenchmarkTab5RedisFork measures the snapshot fork of a loaded
// Redis-like store per engine (the Table 5 metric; Table 4's latency
// distribution is produced by `odf-bench tab45`).
func BenchmarkTab5RedisFork(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			st, err := kvstore.New(k, kvstore.Config{
				ArenaBytes: 128 * benchMiB,
				TableCap:   1 << 16,
				Mode:       mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.Populate(20000, 64); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.SnapshotNow(nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.WaitSnapshots()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFig10VMClone measures one VM-clone fuzzing execution per
// engine.
func BenchmarkFig10VMClone(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			c, err := vmclone.NewCloner(k, vmclone.Config{
				RAMBytes: 64 * benchMiB,
				BootFill: 16 * benchMiB,
			}, mode)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.RunN(1, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTab6Httpd measures per-request latency of the prefork server
// per engine (the negative result: both should be equal).
func BenchmarkTab6Httpd(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			s, err := httpd.Start(k, httpd.Config{
				ConfigBytes: 7 * benchMiB,
				Workers:     8,
				Mode:        mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			req := []byte("GET /bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Handle(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEagerRefcount prices re-adding per-page reference
// counting to on-demand-fork (DESIGN.md §5).
func BenchmarkAblationEagerRefcount(b *testing.B) {
	b.ReportAllocs()
	benchForkOpts(b, core.ForkOptions{EagerPageRefs: true})
}

// BenchmarkAblationPerPTEProtect prices per-PTE write protection versus
// the single PMD-entry downgrade.
func BenchmarkAblationPerPTEProtect(b *testing.B) {
	b.ReportAllocs()
	benchForkOpts(b, core.ForkOptions{PerPTEProtect: true})
}

// BenchmarkAblationUpperLevels isolates the cost on-demand-fork does
// pay — copying the upper levels — by forking an ODF process whose
// leaves are fully shared (the measured work is almost entirely
// upper-table duplication).
func BenchmarkAblationUpperLevels(b *testing.B) {
	b.ReportAllocs()
	benchForkOpts(b, core.ForkOptions{})
}

func benchForkOpts(b *testing.B, opts core.ForkOptions) {
	b.ReportAllocs()
	k := kernel.New()
	p := forkParent(b, k, 256*benchMiB, popFlags)
	defer p.Exit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Fork(kernel.WithMode(core.ForkOnDemand), kernel.WithForkOptions(opts))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Exit()
		c.Wait()
		b.StartTimer()
	}
}

// BenchmarkFaultFastPath measures the last-sharer fast path: after the
// only other sharer exits, the parent's first write re-dedicates the
// table by flipping one PMD bit instead of copying 512 entries.
func BenchmarkFaultFastPath(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New()
	p := k.NewProcess()
	defer p.Exit()
	base, err := p.Mmap(64*benchMiB, rwProt, popFlags)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := p.Fork(kernel.WithMode(core.ForkOnDemand))
		if err != nil {
			b.Fatal(err)
		}
		c.Exit()
		c.Wait()
		b.StartTimer()
		// Parent write: fast dedicate, no table copy.
		if err := p.StoreByte(base+addr.V(uint64(i%32)*addr.PTECoverage), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if splits := k.MetricsSnapshot().Fault.TableSplits; splits != 0 {
		b.Fatalf("fast path benchmark performed %d splits", splits)
	}
}

// BenchmarkTLBHitPath measures the access fast path: repeated loads of
// a cached translation versus walks of an always-cold TLB.
func BenchmarkTLBHitPath(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New()
	p := forkParent(b, k, 4*benchMiB, popFlags)
	defer p.Exit()
	base := addr.V(0x7f00_0000_0000)
	if err := p.StoreByte(base, 1); err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.LoadByte(base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Space().TLB().Flush()
			if _, err := p.LoadByte(base); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHugeExtSharedPMD measures the §4 extension: on-demand-fork
// of a huge-mapped process with whole-PMD-table sharing.
func BenchmarkHugeExtSharedPMD(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New()
	p := forkParent(b, k, 256*benchMiB, popFlags|vm.MapHuge)
	defer p.Exit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Fork(kernel.WithMode(core.ForkOnDemand), kernel.WithForkOptions(core.ForkOptions{ShareHugePMD: true}))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Exit()
		c.Wait()
		b.StartTimer()
	}
}

// BenchmarkCheckpointSpawn measures the serverless warm-start primitive.
func BenchmarkCheckpointSpawn(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New()
	p := forkParent(b, k, 256*benchMiB, popFlags)
	defer p.Exit()
	cp, err := p.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	defer cp.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cp.Spawn()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Exit()
		b.StartTimer()
	}
}

// BenchmarkForkUnderPressure measures both fork engines while the
// parent's dirty working set sits at 90% and 99% of the frame limit
// with the swap store on (occ=0 is the unlimited baseline). Classic
// fork must push its page copies through direct reclaim to complete;
// on-demand fork only needs upper-level tables and barely notices the
// pressure.
func BenchmarkForkUnderPressure(b *testing.B) {
	b.ReportAllocs()
	const pressureMiB = 16
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		for _, occ := range []int{0, 90, 99} {
			b.Run(fmt.Sprintf("%s/occ=%d", mode, occ), func(b *testing.B) {
				b.ReportAllocs()
				k := kernel.New()
				k.SetSwapEnabled(true)
				defer k.SetSwapEnabled(false)
				p := k.NewProcess()
				defer p.Exit()
				base, err := p.Mmap(pressureMiB*benchMiB, rwProt, vm.MapPrivate)
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, addr.PageSize)
				for i := range buf {
					buf[i] = byte(i*31 + 7)
				}
				pages := int(pressureMiB * benchMiB / uint64(addr.PageSize))
				for i := 0; i < pages; i++ {
					buf[0] = byte(i)
					if err := p.WriteAt(buf, base+addr.V(uint64(i)*uint64(addr.PageSize))); err != nil {
						b.Fatal(err)
					}
				}
				if occ > 0 {
					k.Allocator().SetLimit(k.Allocator().Allocated() * 100 / int64(occ))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := p.Fork(kernel.WithMode(mode))
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					// Unmeasured COW burst: keeps the reclaimer working
					// between measured forks instead of letting kswapd
					// settle the system after the first iteration.
					for j := 0; j < pages; j += 8 {
						if err := c.WriteAt([]byte{1}, base+addr.V(uint64(j)*uint64(addr.PageSize))); err != nil {
							b.Fatal(err)
						}
					}
					c.Exit()
					c.Wait()
					b.StartTimer()
				}
			})
		}
	}
}
