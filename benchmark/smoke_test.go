package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs all five workloads, untraced and traced, at -scale
// tiny and round-trips the result through the checker and the
// comparator. No bound is applied to a number here; the point is that
// the benchmark keeps compiling against the program's public functions
// and keeps verifying every output.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := config{seed: 1, seconds: 1, tiny: true, outDir: dir}
	file, err := run(cfg, "all", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("ran %d workloads, want %d", len(file.Workloads), len(workloadNames))
	}
	for _, r := range file.Workloads {
		if !r.correct() {
			t.Errorf("%s: %d of %d operations failed, errors %v", r.Name, r.Failed, r.Attempted, r.Errors)
		}
		if _, err := os.Stat(r.TraceFile); err != nil {
			t.Errorf("%s: no span file: %v", r.Name, err)
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(driverLine(r, traced)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", r.Name, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if !line.Correct || line.Attempted < 1 || len(line.Metrics) != want {
				t.Errorf("%s: driver line (traced=%v) has correct=%v attempted=%d and %d metrics, want %d",
					r.Name, traced, line.Correct, line.Attempted, len(line.Metrics), want)
			}
		}
	}

	back, err := readResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range check(back) {
		t.Error("check:", bad)
	}
	var buf bytes.Buffer
	if worse, err := compare(&buf, back, back); err != nil || worse {
		t.Errorf("a record compared with itself: worse=%v err=%v\n%s", worse, err, buf.String())
	}
	back.Seed++
	if _, err := compare(&buf, file, back); err == nil {
		t.Error("records with different seeds compared without complaint")
	}
}

// TestSecondSeed: every input is drawn from the seed, and a second seed
// must run as clean as the first.
func TestSecondSeed(t *testing.T) {
	cfg := config{seed: 2, seconds: 1, tiny: true, outDir: t.TempDir()}
	file, err := run(cfg, "all", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range file.Workloads {
		if !r.correct() {
			t.Errorf("%s: %d of %d operations failed, errors %v", r.Name, r.Failed, r.Attempted, r.Errors)
		}
	}
}

// TestManifest holds BENCHMARK.json and the metric dictionary in
// spec.go together.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}
