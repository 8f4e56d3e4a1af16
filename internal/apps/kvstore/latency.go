package kvstore

import "repro/internal/core"

// LatencyResult is the Table 4 + Table 5 output for one engine: the
// paper's memtier setup, where clients issue SET requests at a fixed
// arrival rate while the single-threaded server periodically snapshots
// via fork (driven by experiments.RunTab45 through serve.RunLoop).
type LatencyResult struct {
	Mode        core.ForkMode
	Percentiles map[float64]float64 // percentile -> latency ms
	ForkMean    float64             // ms, Table 5
	ForkStdDev  float64             // ms, Table 5
	Snapshots   int
	MeanRate    float64 // requests/s actually simulated
}

// LatencyPercentiles are the rows of Table 4.
var LatencyPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}
