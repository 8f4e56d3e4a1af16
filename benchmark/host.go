package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calibrate times a fixed integer-mixing loop (best of three) — the
// machine-speed yardstick recorded before and after every workload. It
// is deliberately a local copy of the idea in internal/bench: the
// benchmark pins as little of the program as it can.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for round := 0; round < 3; round++ {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(start); d < best && x != 0 {
			best = d
		}
	}
	return float64(best)
}

// timerPairNS is the cost of one time.Now()/time.Since pair, the floor
// under every latency this benchmark reports.
func timerPairNS() float64 {
	const n = 1 << 16
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	total := time.Since(start)
	if sink < 0 {
		return 0
	}
	return float64(total) / n
}

// hostUsage is a point-in-time reading of what the benchmark process
// has cost the host so far.
type hostUsage struct {
	cpu                 time.Duration
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func readHost() hostUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// rssPeakMiB reads the process's resident-set high-water mark (VmHWM).
func rssPeakMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// rng is splitmix64: every input the program sees is drawn from one of
// these, seeded from -seed, so the same seed gives the same run.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
