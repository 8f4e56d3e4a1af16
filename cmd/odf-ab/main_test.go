package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestSpreadQuartiles(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name        string
		in          []float64
		q1, med, q3 float64
		values      []float64
	}{
		{"odd N", []float64{5, 1, 4, 2, 3}, 2, 3, 4, []float64{5, 1, 4, 2, 3}},
		{"even N", []float64{4, 1, 3, 2}, 1.75, 2.5, 3.25, []float64{4, 1, 3, 2}},
		{"one value", []float64{7}, 7, 7, 7, []float64{7}},
		{"NaN skipped", []float64{nan, 3, 1, nan, 2}, 1.5, 2, 2.5, []float64{3, 1, 2}},
	} {
		s := spreadOf(tc.in)
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 {
			t.Errorf("%s: q1/median/q3 = %v/%v/%v, want %v/%v/%v", tc.name, s.Q1, s.Median, s.Q3, tc.q1, tc.med, tc.q3)
		}
		if !slices.Equal(s.Values, tc.values) {
			t.Errorf("%s: values %v, want %v in run order", tc.name, s.Values, tc.values)
		}
	}
	if spreadOf([]float64{nan, nan}) != nil {
		t.Error("a sample of NaNs has a spread")
	}
}

func TestCompareMetric(t *testing.T) {
	ten := func(v ...float64) []float64 { return v }
	nan := math.NaN()
	base := ten(100, 101, 102, 103, 104, 105, 106, 107, 108, 109) // IQR 4.5
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, head []float64
		wins       int
		pairs      int
		verdict    string
	}{
		{"ties count for neither", lower, base, base, 0, 10, "unresolved"},
		{"ties do not make 9/10 losses", metricDef{Better: "lower"}, ten(100, 100, 100, 100, 100, 100, 100, 100, 100, 100),
			ten(100, 100, 100, 100, 100, 200, 200, 200, 200, 200), 0, 10, "unresolved"},
		{"lower is better", lower, base, shift(-10), 10, 10, "better"},
		{"higher is better", higher, base, shift(-10), 0, 10, "worse"},
		{"higher wins", higher, base, shift(10), 10, 10, "better"},
		{"10/10 inside the parent IQR", lower, base, shift(-1), 10, 10, "unresolved"},
		{"8/10 outside the IQR", lower, base,
			ten(90, 91, 92, 93, 94, 95, 96, 97, 200, 200), 8, 10, "unresolved"},
		{"bound breached while 6/10 lose", lower, ten(100, 100, 100, 100, 100, 100, 100, 100, 100, 100),
			ten(200, 200, 200, 200, 200, 200, 50, 50, 50, 50), 4, 10, "worse than bound"},
		{"per-layer metrics have no bound", metricDef{Better: "lower"}, ten(100, 100, 100, 100, 100, 100, 100, 100, 100, 100),
			ten(200, 200, 200, 200, 200, 200, 50, 50, 50, 50), 4, 10, "unresolved"},
		{"a run without the metric is no pair", lower, base,
			ten(nan, 90, 91, 92, 93, 94, 95, 96, 97, 98), 9, 9, "better"},
		{"on the parent only", lower, base, ten(nan, nan, nan, nan, nan, nan, nan, nan, nan, nan), 0, 0, "on one side only"},
	} {
		r := compareMetric(tc.def, tc.base, tc.head)
		if r.HeadWins != tc.wins || r.Pairs != tc.pairs || r.Verdict != tc.verdict {
			t.Errorf("%s: head better %d/%d, %q; want %d/%d, %q", tc.name, r.HeadWins, r.Pairs, r.Verdict, tc.wins, tc.pairs, tc.verdict)
		}
	}
}

// TestIncorrectRunsAreReported holds that a run reporting "correct":
// false or failed operations is counted and its metrics kept, and
// that a metric only one side reports is listed.
func TestIncorrectRunsAreReported(t *testing.T) {
	parse := func(out string) runLine {
		l, err := parseRunLine([]byte(out))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	good := parse("ops_per_s 10\n" + `{"correct":true,"attempted":10,"failed":0,"metrics":{"ops_per_s":{"value":10,"unit":"1/s"},"old_us":{"value":3,"unit":"us"}}}` + "\n")
	bad := parse(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\nnoise\n" +
		`{"correct":false,"attempted":10,"failed":2,"metrics":{"ops_per_s":{"value":4,"unit":"1/s"}}}` + "\n")
	if bad.Correct || bad.Failed != 2 {
		t.Fatalf("parseRunLine read %+v, want the last result line", bad)
	}
	defs := []metricDef{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}, {Name: "old_us", Unit: "us", Better: "lower"}}
	rep := summarize("fork-loop", defs, [2][]runLine{{good, good}, {good, bad}})
	if o := rep.Ops[1]; o.Runs != 2 || o.Incorrect != 1 || o.Failed != 2 || o.Attempted != 20 {
		t.Errorf("change ops %+v, want 2 runs, 1 incorrect, 2 of 20 failed", o)
	}
	if len(rep.Metrics) != 2 || !slices.Equal(rep.Metrics[0].Change.Values, []float64{10, 4}) {
		t.Fatalf("metrics %+v, want ops_per_s with the failed run's value kept", rep.Metrics)
	}
	if r := rep.Metrics[1]; r.Name != "old_us" || !slices.Equal(r.Change.Values, []float64{3}) || r.Pairs != 1 {
		t.Errorf("old_us row %+v, want the one pair that has it", r)
	}
	var sb strings.Builder
	rep.markdown(&sb)
	if !strings.Contains(sb.String(), "change 2/20") || !strings.Contains(sb.String(), "change 1/2") {
		t.Errorf("table does not report the failed run:\n%s", sb.String())
	}
	if _, err := parseRunLine([]byte("benchmark: no workload\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

func TestFmtNum(t *testing.T) {
	for v, want := range map[float64]string{1072.4: "1072", 54.83: "54.8", 6.963: "6.96", 0.0123: "0.0123", 0: "0", -2.5: "-2.50"} {
		if got := fmtNum(v); got != want {
			t.Errorf("fmtNum(%v) = %q, want %q", v, got, want)
		}
	}
}
