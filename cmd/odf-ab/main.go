// Command odf-ab measures a change against its parent with the
// repository benchmark. It builds ./benchmark in both trees with
// -trimpath -buildvcs=false, so equal sources give equal binaries,
// runs them as interleaved pairs, one process at a time, and prints per
// metric each side's median [q1, q3], how many pairs the change won
// and a verdict (see compareMetric) under the directions and bounds of
// the change's BENCHMARK.json. The same data goes to ab_out.json.
//
//	odf-ab [flags] BASE [HEAD]
//	odf-ab -pairs 1 -scale tiny HEAD~1    # the smoke `make bench-gate` runs
//
// BASE and HEAD are git revisions, exported with git archive into a
// temporary directory removed on exit; HEAD defaults to the working
// tree. The repository is only read. The exit status is 1 when a run
// fails, reports "correct": false or has failed operations, and never
// depends on a verdict.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

var (
	pairs     = flag.Int("pairs", 10, "interleaved parent/change pairs per seed")
	seeds     = flag.Int("seeds", 1, "run seeds 1..N")
	workloads = flag.String("workload", "all", "comma-separated workloads of BENCHMARK.json, or all")
	trace     = flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics (the traced run)")
	scale     = flag.String("scale", "full", "full, or tiny (the benchmark's smoke scale)")
)

// manifest is the part of BENCHMARK.json odf-ab reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// metricDef is one metric of BENCHMARK.json; per-layer ones have no
// bound.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

var labels = [2]string{"parent", "change"}

func main() {
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 || *pairs < 1 || *seeds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: odf-ab [flags] BASE [HEAD]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, flag.Args())
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "odf-ab:", err)
		os.Exit(1)
	}
}

// run does the comparison in a temporary directory it removes before
// returning.
func run(ctx context.Context, revs []string) error {
	tmp, err := os.MkdirTemp("", "odf-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	top, err := output(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root := strings.TrimSpace(string(top))
	dirs := [2]string{filepath.Join(tmp, labels[0]), root}
	if len(revs) == 2 {
		dirs[1] = filepath.Join(tmp, labels[1])
	} else {
		revs = append(revs, "working tree")
	}
	var bins [2]string
	for i, dir := range dirs {
		if dir != root { // git archive, then tar: the repository is only read
			tarball := dir + ".tar"
			if _, err := output(ctx, root, "git", "archive", "--prefix="+labels[i]+"/", "-o", tarball, revs[i]); err != nil {
				return err
			}
			if _, err := output(ctx, tmp, "tar", "-xf", tarball); err != nil {
				return err
			}
		}
		bins[i] = filepath.Join(tmp, labels[i]+".bin")
		fmt.Fprintf(os.Stderr, "odf-ab: building the %s benchmark (%s)\n", labels[i], revs[i])
		if _, err := output(ctx, dir, "go", "build", "-trimpath", "-buildvcs=false", "-o", bins[i], "./benchmark"); err != nil {
			return err
		}
	}
	// The change's manifest gives the workloads, run length, directions
	// and bounds; the parent's names the metrics only it reports.
	var ms [2]manifest
	for i, dir := range dirs {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			err = json.Unmarshal(b, &ms[i])
		}
		if err != nil {
			return fmt.Errorf("the %s's BENCHMARK.json: %w", labels[i], err)
		}
	}
	m := ms[1]
	defs := slices.Concat(m.EndToEnd, m.PerLayer, ms[0].EndToEnd, ms[0].PerLayer)
	names := strings.Split(*workloads, ",")
	if *workloads == "all" {
		names = names[:0]
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
	}

	res := struct {
		Revs                            [2]string
		Pairs, Seeds, Trace, RunSeconds int
		Scale                           string
		Workloads                       []report
		MakeLoc                         map[string][2]int `json:",omitempty"`
	}{Revs: [2]string(revs), Pairs: *pairs, Seeds: *seeds, Trace: *trace, Scale: *scale, RunSeconds: m.RunSeconds}
	fmt.Printf("## odf-ab: %s (parent) vs %s (change)\n\n%d pairs × %d seeds per workload, -trace %d, -scale %s, %d s runs\n",
		revs[0], revs[1], *pairs, *seeds, *trace, *scale, m.RunSeconds)
	bad := false
	for _, w := range names {
		var lines [2][]runLine
		for seed := 1; seed <= *seeds; seed++ {
			for p := 0; p < *pairs; p++ {
				first := ((seed-1)**pairs + p) % 2 // alternate which side goes first
				for _, i := range [2]int{first, 1 - first} {
					fmt.Fprintf(os.Stderr, "odf-ab: %s seed %d pair %d/%d: %s\n", w, seed, p+1, *pairs, labels[i])
					outdir := filepath.Join(tmp, "out") // fresh for every run
					if err := os.RemoveAll(outdir); err != nil {
						return err
					}
					stdout, err := output(ctx, tmp, bins[i], "-workload", w, "-seed", strconv.Itoa(seed),
						"-seconds", strconv.Itoa(m.RunSeconds), "-trace", strconv.Itoa(*trace), "-scale", *scale, "-outdir", outdir)
					var l runLine
					if err == nil {
						l, err = parseRunLine(stdout)
					}
					if err != nil {
						return fmt.Errorf("%s %s seed %d: %w", labels[i], w, seed, err)
					}
					lines[i] = append(lines[i], l)
				}
			}
		}
		rep := summarize(w, defs, lines)
		rep.markdown(os.Stdout)
		for _, o := range rep.Ops {
			bad = bad || o.Incorrect > 0 || o.Failed > 0
		}
		res.Workloads = append(res.Workloads, rep)
	}
	res.MakeLoc = codeSize(ctx, dirs)
	for _, k := range []string{"total outside benchmark/", "exported odfork declarations"} {
		if v, ok := res.MakeLoc[k]; ok {
			fmt.Printf("\n`make loc` %s, parent → change: %d → %d (%+d)", k, v[0], v[1], v[1]-v[0])
		}
	}
	fmt.Println()
	js, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile("ab_out.json", append(js, '\n'), 0o644)
	}
	if err == nil && bad {
		err = errors.New(`a run reported "correct": false or failed operations`)
	}
	return err
}

// output runs a command and returns its standard output; a failure
// carries the end of its standard error.
func output(ctx context.Context, dir, name string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := stderr.Bytes()
		return nil, fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, msg[max(0, len(msg)-2000):])
	}
	return out, nil
}

var locRe = regexp.MustCompile(`(?m)^ *(\d+) (total outside benchmark/|exported odfork declarations)$`)

// codeSize is `make -s loc` of both trees by line label, or nil when a
// tree has no such target.
func codeSize(ctx context.Context, dirs [2]string) map[string][2]int {
	size := map[string][2]int{}
	for i, dir := range dirs {
		out, err := output(ctx, dir, "make", "-s", "loc")
		if err != nil {
			return nil
		}
		for _, m := range locRe.FindAllStringSubmatch(string(out), -1) {
			v := size[m[2]]
			v[i], _ = strconv.Atoi(m[1]) // \d+ of a line count
			size[m[2]] = v
		}
	}
	return size
}

// runLine is the one-line JSON object a benchmark run prints last.
type runLine struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

// parseRunLine reads the last line of out that starts with {"correct".
func parseRunLine(out []byte) (runLine, error) {
	var r runLine
	i := bytes.LastIndex(out, []byte(`{"correct"`))
	if i < 0 {
		return r, errors.New(`no {"correct" line in the output`)
	}
	line, _, _ := bytes.Cut(out[i:], []byte("\n"))
	return r, json.Unmarshal(line, &r)
}

// spread is a sample's median and quartiles, interpolated linearly
// between order statistics.
type spread struct {
	Median, Q1, Q3 float64
	Values         []float64
}

// spreadOf skips NaNs, and is nil when nothing is left.
func spreadOf(values []float64) *spread {
	values = slices.DeleteFunc(slices.Clone(values), math.IsNaN)
	if len(values) == 0 {
		return nil
	}
	s := slices.Sorted(slices.Values(values))
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[min(lo+1, len(s)-1)]-s[lo])
	}
	return &spread{q(0.5), q(0.25), q(0.75), values}
}

// row is one metric of one workload.
type row struct {
	metricDef
	Parent, Change  *spread
	HeadWins, Pairs int
	Verdict         string
}

// compareMetric applies the rule every performance claim here uses to
// the pairs (base[i], head[i]); NaN marks a run without the metric. A
// side wins a pair when its value is better; ties count for neither.
// The metric is "worse than bound" when the change's median is worse
// than the parent's by more than the bound, however the pairs fell;
// "better" or "worse" when one side wins at least 9 pairs in 10 and
// the medians differ by more than the parent's interquartile range;
// "unresolved" otherwise.
func compareMetric(def metricDef, base, head []float64) row {
	r := row{metricDef: def}
	baseWins := 0
	for i := range base {
		switch {
		case math.IsNaN(base[i]) || math.IsNaN(head[i]):
			continue
		case head[i] == base[i]:
		case (head[i] < base[i]) == (def.Better == "lower"):
			r.HeadWins++
		default:
			baseWins++
		}
		r.Pairs++
	}
	r.Parent, r.Change = spreadOf(base), spreadOf(head)
	if r.Parent == nil || r.Change == nil {
		r.Verdict = "on one side only"
		return r
	}
	gain := r.Change.Median - r.Parent.Median // the change's improvement
	if def.Better == "lower" {
		gain = -gain
	}
	need := int(math.Ceil(0.9 * float64(r.Pairs)))
	iqr := r.Parent.Q3 - r.Parent.Q1
	switch {
	case def.Bound > 0 && -gain > def.Bound*math.Abs(r.Parent.Median):
		r.Verdict = "worse than bound"
	case r.Pairs > 0 && r.HeadWins >= need && gain > iqr:
		r.Verdict = "better"
	case r.Pairs > 0 && baseWins >= need && -gain > iqr:
		r.Verdict = "worse"
	default:
		r.Verdict = "unresolved"
	}
	return r
}

// sideOps totals one side's runs of a workload.
type sideOps struct{ Runs, Incorrect, Attempted, Failed int }

// report is the comparison of one workload; Ops is [parent, change].
type report struct {
	Workload string
	Ops      [2]sideOps
	Metrics  []row
}

// summarize compares every metric either side reported, in the order
// of defs; the first definition of a name wins.
func summarize(workload string, defs []metricDef, lines [2][]runLine) report {
	rep := report{Workload: workload}
	seen := map[string]bool{}
	for i, side := range lines {
		for _, l := range side {
			rep.Ops[i].Runs++
			if !l.Correct {
				rep.Ops[i].Incorrect++
			}
			rep.Ops[i].Attempted += l.Attempted
			rep.Ops[i].Failed += l.Failed
			for name := range l.Metrics {
				seen[name] = true
			}
		}
	}
	values := func(side []runLine, name string) []float64 {
		v := make([]float64, len(side))
		for i, l := range side {
			v[i] = math.NaN()
			if m, ok := l.Metrics[name]; ok {
				v[i] = m.Value
			}
		}
		return v
	}
	for _, d := range defs {
		if seen[d.Name] {
			delete(seen, d.Name)
			rep.Metrics = append(rep.Metrics, compareMetric(d, values(lines[0], d.Name), values(lines[1], d.Name)))
		}
	}
	return rep
}

// markdown writes the table CHANGES entries use.
func (rep report) markdown(w io.Writer) {
	fmt.Fprintf(w, "\n#### %s\n\n", rep.Workload)
	fmt.Fprintln(w, "| metric | parent median [q1, q3] | change median [q1, q3] | head better | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range rep.Metrics {
		fmt.Fprintf(w, "| %s (%s, %s) | %s | %s | %d/%d | %s |\n",
			r.Name, r.Unit, r.Better, fmtSpread(r.Parent), fmtSpread(r.Change), r.HeadWins, r.Pairs, r.Verdict)
	}
	p, c := rep.Ops[0], rep.Ops[1]
	fmt.Fprintf(w, "\nfailed/attempted ops: parent %d/%d, change %d/%d; runs with \"correct\": false: parent %d/%d, change %d/%d\n",
		p.Failed, p.Attempted, c.Failed, c.Attempted, p.Incorrect, p.Runs, c.Incorrect, c.Runs)
}

func fmtSpread(s *spread) string {
	if s == nil {
		return "—"
	}
	return fmtNum(s.Median) + " [" + fmtNum(s.Q1) + ", " + fmtNum(s.Q3) + "]"
}

// fmtNum prints three significant digits, or every integer digit.
func fmtNum(v float64) string {
	if a := math.Abs(v); a >= 1 {
		return strconv.FormatFloat(v, 'f', max(0, 2-int(math.Log10(a))), 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}
