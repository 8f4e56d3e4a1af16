package slo

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaV1 identifies the SLO result schema. Raw latencies are not
// comparable across machines; the classic-vs-on-demand contrast within
// one file is the portable signal.
const SchemaV1 = "odf-slo/v1"

// Result is one harness invocation: a sweep of (fork mode, offered
// rate) runs against the same app over real TCP sockets.
type Result struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"` // YYYY-MM-DD of the run
	App        string `json:"app"`  // "kv" | "httpd"
	Protocol   string `json:"protocol"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Conns      int    `json:"conns"`

	Runs []RunResult `json:"runs"`
}

// RunResult is one steady-load run at one offered rate with periodic
// snapshots firing.
type RunResult struct {
	Mode      string  `json:"mode"` // core.ForkMode.String()
	LoadRatio float64 `json:"load_ratio"`
	// Trials is how many measured phases ran for this cell; the
	// recorded figures come from the trial with the lowest
	// fork-coincident p99 (external host stalls are strictly
	// additive, so the minimum is nearest the fork-attributable tail).
	Trials      int     `json:"trials,omitempty"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    uint64  `json:"requests"`
	DurationMS  float64 `json:"duration_ms"`

	SnapshotEveryMS float64 `json:"snapshot_every_ms"`
	Snapshots       uint64  `json:"snapshots"`
	ForkMeanUS      float64 `json:"fork_mean_us"`

	// Latency is the full sample population; ForkCoincident holds the
	// samples whose scheduled-send→receive window overlapped a snapshot
	// fork, Quiescent the rest.
	Latency        LatencySummary `json:"latency"`
	ForkCoincident LatencySummary `json:"fork_coincident"`
	Quiescent      LatencySummary `json:"quiescent"`

	// WorstUS is the exact worst-WorstN samples, latency-descending.
	WorstUS []WorstSample `json:"worst_us"`
}

// LatencySummary flattens one histogram for the JSON schema. All
// latencies are microseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// Summarize flattens h.
func Summarize(h *Hist) LatencySummary {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return LatencySummary{
		Count:  h.Count(),
		MeanUS: h.Mean() / 1e3,
		P50US:  us(h.Percentile(50)),
		P90US:  us(h.Percentile(90)),
		P99US:  us(h.Percentile(99)),
		P999US: us(h.Percentile(99.9)),
		MaxUS:  us(h.Max()),
	}
}

// Save writes r as indented JSON to path.
func (r *Result) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a Result from path and validates its schema tag.
func Load(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("slo: parse %s: %w", path, err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("slo: %s has schema %q, want %q", path, r.Schema, SchemaV1)
	}
	return &r, nil
}
