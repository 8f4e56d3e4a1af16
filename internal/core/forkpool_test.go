package core

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

// freshProcessArg marks the re-run of a test in its own test binary.
const freshProcessArg = "fresh-process"

// TestSequentialForkStartsNoGoroutines: forks that do not fan out —
// classic or on-demand, with or without Parallelism — and the exits
// that follow leave the goroutine count where it was; the fork worker
// pool starts only when a classic fork actually fans out. Any earlier
// test may have started the pool, so the check re-runs this test in a
// fresh test binary.
func TestSequentialForkStartsNoGoroutines(t *testing.T) {
	if flag.Arg(0) != freshProcessArg {
		out, err := exec.Command(os.Args[0], "-test.run=^TestSequentialForkStartsNoGoroutines$",
			"-test.count=1", "-test.v", "--", freshProcessArg).CombinedOutput()
		if err != nil {
			t.Fatalf("fresh-process run: %v\n%s", err, out)
		}
		if !bytes.Contains(out, []byte("--- PASS: TestSequentialForkStartsNoGoroutines")) {
			t.Fatalf("fresh-process run did not pass the test:\n%s", out)
		}
		return
	}
	before := runtime.NumGoroutine()
	as := newSpace()
	size := uint64(4 * addr.PTECoverage)
	base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, size, 0x3C)
	for _, mode := range forkModes() {
		for _, workers := range []int{0, 4} {
			child := mustForkOpts(as, mode, ForkOptions{Parallelism: workers})
			if err := EqualMemory(as, child, addr.NewRange(base, size)); err != nil {
				t.Fatal(err)
			}
			child.Teardown()
		}
	}
	as.Teardown()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before the forks, %d after", before, after)
	}
	if forkPoolCh != nil {
		t.Error("a sequential fork started the fork worker pool")
	}
}
