// Command benchmark is the repository's benchmark: five workloads over
// the program's public functions, end-to-end metrics from an untraced
// run, per-layer metrics from a second run wrapped in the benchmark's
// own spans. See README.md in this directory.
//
//	go run ./benchmark                       all workloads, both runs, one result file
//	go run ./benchmark -workload fork-loop -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -check benchmark/out/result.json
//	go run ./benchmark -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

var workloads = []workload{kvSnapshot, cloneInvoke, forkLoop, memPressure, ckptRestore}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames))
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "measured budget per workload: the op count is pinned at opsPerSecond × seconds")
		trace   = flag.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), -1: both")
		scale   = flag.String("scale", "full", "full, or tiny (small images, a few hundred ops; for the smoke test)")
		outDir  = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for the result file, traces and checkpoint files")
		checkF  = flag.String("check", "", "validate a result file and exit")
		cmp     = flag.Bool("compare", false, "compare two result files given as arguments: parent, then change")
	)
	flag.Parse()
	switch {
	case *checkF != "":
		os.Exit(mainCheck(*checkF))
	case *cmp:
		os.Exit(mainCompare(flag.Args()))
	}
	if *seconds < 1 || (*scale != "full" && *scale != "tiny") || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad -seconds, -scale or -trace")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, tiny: *scale == "tiny", outDir: *outDir}
	// A run that produced its results exits 0 even when operations
	// failed: the failure is in the results ("correct": false), and
	// -check turns it into an exit code.
	if _, err := run(cfg, *name, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes the selected workloads and phases, prints every metric,
// and writes the result file. After each (workload, phase) it prints
// the one-line JSON object the driver reads; the driver runs one
// workload and one phase, so that line is the last.
func run(cfg config, name string, trace int) (*resultFile, error) {
	// The load is fixed: one process, at most two CPUs, at most two
	// clients. Records taken at different widths are not comparable.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	file := &resultFile{Schema: schema, GoMaxProcs: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds, Scale: "full"}
	if cfg.tiny {
		file.Scale = "tiny"
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	growHeap(cfg)
	found := false
	for _, wl := range workloads {
		if name != "all" && name != wl.name {
			continue
		}
		found = true
		var res *workloadResult
		if trace != 1 {
			r, err := runUntraced(wl, cfg)
			if err != nil {
				return nil, err
			}
			res = r
			r.print(os.Stdout)
			fmt.Println(driverLine(r, false))
		}
		if trace != 0 {
			r, err := runTraced(wl, cfg)
			if err != nil {
				return nil, err
			}
			r.print(os.Stdout)
			fmt.Println(driverLine(r, true))
			if res == nil {
				res = r
			} else {
				res.absorb(r)
			}
		}
		res.FailShare = float64(res.Failed) / float64(max(res.Attempted, 1))
		file.Workloads = append(file.Workloads, res)
	}
	if !found {
		return nil, fmt.Errorf("no workload %q (have %v)", name, workloadNames)
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := file.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: result written to %s\n", path)
	return file, nil
}

func mainCheck(path string) int {
	f, err := readResult(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := check(f)
	for _, b := range bad {
		fmt.Println("FAIL", b)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Printf("ok: %d workloads, %d end-to-end and %d per-layer metrics each\n", len(f.Workloads), len(endToEnd), len(perLayer))
	return 0
}

func mainCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files: parent, then change")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	anyWorse, err := compare(os.Stdout, a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if anyWorse {
		return 1
	}
	return 0
}
