package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
)

const schema = "odf-benchmark/v1"

// metricValue is one reported number. Rounds holds the per-round
// values the median was taken over; timings also carry their sample
// count and the percentile that was read. A per-layer metric this
// workload does not measure is present with Value 0 and Measured
// false, so every workload prints the whole dictionary.
type metricValue struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	N        int       `json:"n,omitempty"`
	Pct      float64   `json:"pct,omitempty"`
	Rounds   []float64 `json:"rounds,omitempty"`
	Measured bool      `json:"measured"`
}

type workloadResult struct {
	Name         string                 `json:"name"`
	RoundOps     int                    `json:"round_ops"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FailShare    float64                `json:"fail_share"`
	FramesLeaked int64                  `json:"frames_leaked"`
	MeasuredS    float64                `json:"measured_s,omitempty"`
	CalibNS      float64                `json:"calib_ns"`
	CalibDrift   float64                `json:"calib_drift_share"`
	Noisy        bool                   `json:"noisy"`
	Errors       []string               `json:"errors,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	Host         map[string]float64     `json:"host,omitempty"`
	Spans        []spanSummary          `json:"spans,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`
}

// setCalib records the host-noise guard: the calibration loop ran
// before and after the workload, and a drift above 5 % flags the
// workload noisy.
func (r *workloadResult) setCalib(before, after float64) {
	r.CalibNS = before
	r.CalibDrift = math.Abs(after-before) / before
	r.Noisy = r.CalibDrift > 0.05
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// absorb folds the traced run of the same workload into r.
func (r *workloadResult) absorb(t *workloadResult) {
	r.Attempted += t.Attempted
	r.Failed += t.Failed
	r.FramesLeaked += t.FramesLeaked
	r.Noisy = r.Noisy || t.Noisy
	r.Errors = append(r.Errors, t.Errors...)
	r.PerLayer, r.Spans, r.TraceFile = t.PerLayer, t.Spans, t.TraceFile
}

type resultFile struct {
	Schema     string            `json:"schema"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Scale      string            `json:"scale"`
	Workloads  []*workloadResult `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// driverLine is the one-line JSON object the driver reads from the end
// of standard output.
func driverLine(r *workloadResult, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if traced {
		src = r.PerLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range src {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings
	return string(b)
}

func printMetrics(w io.Writer, title string, specs []metricSpec, vals map[string]metricValue) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		note := ""
		switch {
		case !v.Measured:
			note = "  (not measured on this workload)"
		case v.N > 0 && v.Pct > 0:
			note = fmt.Sprintf("  (p%g, n=%d)", v.Pct, v.N)
		case v.N > 0:
			note = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "    %-36s %14.4f %-7s%s\n", m.Name, v.Value, m.Unit, note)
	}
}

func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s: %d ops/round, attempted %d, failed %d (fail_share %.6f ratio), calib %.0f ns drift %.3f",
		r.Name, r.RoundOps, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.CalibNS, r.CalibDrift)
	if r.Noisy {
		fmt.Fprint(w, "  NOISY")
	}
	fmt.Fprintln(w)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
	if r.EndToEnd != nil {
		printMetrics(w, "end to end (untraced run)", endToEnd, r.EndToEnd)
	}
	if r.PerLayer != nil {
		printMetrics(w, "per layer (traced run)", perLayer, r.PerLayer)
		fmt.Fprintf(w, "  span self times (%s)\n", r.TraceFile)
		for _, s := range r.Spans {
			fmt.Fprintf(w, "    %-28s n=%-8d total %10.2f ms  self %10.2f ms  self p50 %9.2f us\n",
				s.Name, s.Count, s.TotalMS, s.SelfMS, s.SelfP50US)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// check validates a result file against the metric dictionary.
func check(f *resultFile) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	seen := map[string]bool{}
	for _, r := range f.Workloads {
		seen[r.Name] = true
		if r.Attempted < 1 {
			fail("%s: no operation attempted", r.Name)
		} else if share := float64(r.Failed) / float64(r.Attempted); share > failShareBound {
			fail("%s: fail_share %.6f above %.3f", r.Name, share, failShareBound)
		}
		if r.FramesLeaked != 0 {
			fail("%s: phys.frames_leaked = %d", r.Name, r.FramesLeaked)
		}
		for _, e := range r.Errors {
			fail("%s: %s", r.Name, e)
		}
		checkSet := func(kind string, specs []metricSpec, vals map[string]metricValue) {
			if vals == nil {
				fail("%s: no %s metrics", r.Name, kind)
				return
			}
			known := map[string]bool{}
			for _, m := range specs {
				known[m.Name] = true
				v, ok := vals[m.Name]
				switch {
				case !ok:
					fail("%s: %s missing", r.Name, m.Name)
				case v.Unit != m.Unit:
					fail("%s: %s has unit %q, want %q", r.Name, m.Name, v.Unit, m.Unit)
				case v.Measured != m.on(r.Name):
					fail("%s: %s measured=%v, the dictionary says %v", r.Name, m.Name, v.Measured, m.on(r.Name))
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					fail("%s: %s is not a number", r.Name, m.Name)
				case v.Pct > 0 && v.N == 0:
					fail("%s: timing %s carries no n", r.Name, m.Name)
				case v.Pct > 50 && float64(v.N/max(len(v.Rounds), 1))*(1-v.Pct/100) < 10:
					fail("%s: %s reads p%g off %d samples a round, fewer than 10 beyond it", r.Name, m.Name, v.Pct, v.N/max(len(v.Rounds), 1))
				}
			}
			for name := range vals {
				if !nameRE.MatchString(name) {
					fail("%s: metric name %q", r.Name, name)
				}
				if !known[name] {
					fail("%s: %s is not in the dictionary", r.Name, name)
				}
			}
		}
		checkSet("end-to-end", endToEnd, r.EndToEnd)
		checkSet("per-layer", perLayer, r.PerLayer)
		if r.Name != wlMem && r.PerLayer != nil {
			for _, name := range reclaimCounters {
				if v := r.PerLayer[name].Value; v != 0 {
					fail("%s: %s = %g, reclaim must be idle here", r.Name, name, v)
				}
			}
		}
	}
	for _, name := range workloadNames {
		if !seen[name] {
			fail("workload %s missing", name)
		}
	}
	return bad
}

// verdicts of the comparator, per workload × end-to-end metric.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// compare applies each end-to-end metric's direction and bound to A
// (the parent) and B (the change), one row per workload.
func compare(w io.Writer, a, b *resultFile) (anyWorse bool, err error) {
	if a.GoMaxProcs != b.GoMaxProcs || a.Seed != b.Seed || a.Seconds != b.Seconds || a.Scale != b.Scale {
		return false, fmt.Errorf("records are not comparable: gomaxprocs %d/%d seed %d/%d seconds %d/%d scale %s/%s",
			a.GoMaxProcs, b.GoMaxProcs, a.Seed, b.Seed, a.Seconds, b.Seconds, a.Scale, b.Scale)
	}
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			continue
		}
		if ra.RoundOps != rb.RoundOps {
			return false, fmt.Errorf("%s: op counts differ (%d vs %d a round)", ra.Name, ra.RoundOps, rb.RoundOps)
		}
		fmt.Fprintf(w, "%s\n", ra.Name)
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		v := same
		if fb > fa+failShareBound {
			v, anyWorse = worse, true
		}
		fmt.Fprintf(w, "  %-22s %14.6f %14.6f %-7s %s\n", "fail_share", fa, fb, "ratio", v)
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := verdict(m, va, vb)
			if v == worse {
				anyWorse = true
			}
			fmt.Fprintf(w, "  %-22s %14.4f %14.4f %-7s %s\n", m.Name, va.Value, vb.Value, m.Unit, v)
		}
	}
	return anyWorse, nil
}

func verdict(m metricSpec, a, b metricValue) string {
	if a.Value == 0 {
		if b.Value == 0 {
			return same
		}
		return unresolved
	}
	// gain > 0 means B is better than A by that share of A.
	gain := (b.Value - a.Value) / a.Value
	if m.Better == "lower" {
		gain = -gain
	}
	if m.Name == "setup_s" && math.Abs(b.Value-a.Value) < setupFloorS {
		return same
	}
	// Where one side's own rounds spread wider than the bound, a move
	// of that size cannot be told from noise: the cell is unresolved
	// unless every round of one side beats every round of the other.
	noisy := spread(a) > m.Bound || spread(b) > m.Bound
	if noisy && !disjoint(a.Rounds, b.Rounds) {
		return unresolved
	}
	switch {
	case gain < -m.Bound:
		return worse
	case gain > m.Bound:
		return better
	}
	return same
}

// spread is the interquartile distance of a metric's per-round values
// as a share of their median.
func spread(v metricValue) float64 {
	if len(v.Rounds) < 4 {
		return 0
	}
	s := samples(v.Rounds).sorted()
	med := s.pct(50)
	if med == 0 {
		return 0
	}
	return (s.pct(75) - s.pct(25)) / med
}

func disjoint(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}
