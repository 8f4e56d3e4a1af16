GO ?= go

.PHONY: all build vet loc test race bench bench-json bench-gate bench-gate-baseline pressure trace chaos slo serverless obs-scrape ckpt

# Newest committed curated baseline (BENCH_<date>.json sorts by date).
# *_pre.json files are point-in-time "before" records kept for the
# history, never the gate's reference.
BENCH_BASELINE ?= $(lastword $(sort $(filter-out %_pre.json,$(wildcard BENCH_*.json))))

all: build test

build:
	$(GO) vet ./...
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Code size, the north star's two numbers: non-test Go lines per
# package (with the total inside and outside benchmark/), and the count
# of exported declarations of the odfork facade (go doc's top-level
# const/var/type/func lines, methods and constructors included).
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; done | \
	awk '{print} {all += $$1} $$2 !~ /\/benchmark$$/ {prog += $$1} \
		END {printf "%7d total\n%7d total outside benchmark/\n", all, prog}'
	@printf '%7d exported odfork declarations\n' "$$($(GO) doc -all ./odfork | grep -cE '^(func|type|var|const) ')"

# The second leg reruns the allocator and fork-engine packages at one,
# two and four procs: the shard count, the shard a call lands in and the
# parallel fork fan-out all follow GOMAXPROCS, and a test that assumes
# one value passes on the host that wrote it and fails elsewhere.
test:
	$(GO) test ./...
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -count=1 ./internal/mem/... ./internal/core/... || exit 1; done

# The concurrency-sensitive packages: the parallel fork engine, the
# sharded allocator, the lock-free flight recorder, the socket serving
# tier (concurrent clients + snapshotter forks + reclaim), everything
# between them, the public odfork facade, and the repository
# benchmark's smoke runs, which drive all of it at once (a parent's COW
# faults against a snapshot child's exit is how the Put/release charger
# race was found).
race:
	$(GO) test -race ./internal/core/... ./internal/mem/... ./internal/trace/... ./internal/apps/serve/... ./internal/slo/... ./internal/tenant/... ./internal/kernel/... ./odfork ./benchmark

# Fixed iteration count: several benchmarks do expensive unmeasured
# setup per iteration (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem -benchtime=20x .

# Emit the odf-bench/v1 JSON record (fork p50/p99 by mode and size,
# fault fast-path latency, COW faults/sec, allocs/op). Curated
# baselines are committed as BENCH_<date>.json; bench_out.json is
# transient output and gitignored. GOMAXPROCS is pinned to 1 so the
# record measures single-core hot-path cost: classic fork switches to
# its parallel engine above one proc, which makes the numbers a
# function of the machine's core count rather than of the code.
bench-json:
	GOMAXPROCS=1 $(GO) run ./cmd/odf-benchjson -out bench_out.json

# Drift-proof regression gate: an interleaved A/B split-half
# measurement of HEAD at small size. Rounds alternate between two
# cells; the gate fails only when the two halves of the SAME code
# disagree past the 5% threshold in every attempt — i.e. when the
# runner cannot resolve a regression of that size, or a change made
# the hot path's cost unstable. The newest committed baseline is
# compared advisorily (deltas printed, never failing), since committed
# numbers were measured on different hardware and drift with the host.
# GOMAXPROCS must match bench-json's pin — single-core hot-path cost.
bench-gate:
	GOMAXPROCS=1 $(GO) run ./cmd/odf-benchjson -short -ab -out bench_out.json \
		-compare $(BENCH_BASELINE) -threshold 0.05

# The old absolute gate against the committed baseline, for machines
# comparable to the one that measured it.
bench-gate-baseline:
	GOMAXPROCS=1 $(GO) run ./cmd/odf-benchjson -short -out bench_out.json \
		-compare $(BENCH_BASELINE) -threshold 0.05

# Memory-pressure gate: the reclaim stress tests under -race (kswapd
# eviction during concurrent forks, swap round-trips, the serverless
# 50%-footprint acceptance scenario), the pressure benchmark at a few
# iterations, and the occupancy sweep experiment at a small scale.
pressure:
	$(GO) test -race -run 'Swap|Kswapd|Reclaim|Vmstat|Pressure' ./internal/core ./internal/kernel ./internal/mem/reclaim ./odfork
	$(GO) test -run '^$$' -bench BenchmarkForkUnderPressure -benchtime 3x .
	$(GO) run ./cmd/odf-bench -max-gb 0.25 -reps 2 pressure

# Chaos gate: the fault-injection soak (cmd/odf-chaos) under -race
# with a pinned seed matrix — alloc, swap I/O, and fork failpoints at
# p=0.01 (the harness default). Seed 1 runs the full 10,000-op
# acceptance schedule; the other seeds replay shorter schedules for
# breadth. Fixed seeds make any failure replayable with the same line.
chaos:
	$(GO) run -race ./cmd/odf-chaos -seed 1 -ops 10000 -p 0.01
	$(GO) run -race ./cmd/odf-chaos -seed 2 -ops 2500 -p 0.01
	$(GO) run -race ./cmd/odf-chaos -seed 3 -ops 2500 -p 0.01
	$(GO) run -race ./cmd/odf-chaos -seed 4 -ops 2500 -p 0.01 -tenants 2

# Tail-latency SLO sweep over real TCP sockets: the kv app serves
# fixed isochronous load while periodic snapshots fork the serving
# process; p50/p99/p999/max are reported split into fork-coincident
# and quiescent samples. Writes the odf-slo/v1 JSON (transient,
# gitignored — curated records are committed as SLO_<date>.json) and
# validates it. The headline is the classic-vs-on-demand contrast in
# fork-coincident p99 at the SAME offered rate; -trials 5 rejects
# shared-runner stall windows (see internal/slo.HarnessConfig.Trials).
slo:
	$(GO) run ./cmd/odf-slo -short -trials 5 -out slo_out.json
	$(GO) run ./cmd/odf-slo -check slo_out.json

# Multi-tenant serverless soak: the odf-serverless daemon boots 8
# tenants whose quotas sum to 50% of the machine's frames, makes one a
# noisy neighbor, and drives skewed load over real TCP. Gates: the
# noisy tenant's forks queue and its frames are reclaimed first, the
# well-behaved tenants see zero ErrNoMem, and their clone fork p99
# stays within 2x a single-tenant baseline. Writes the
# odf-serverless/v1 JSON (transient, gitignored — curated records are
# committed as SERVERLESS_<date>.json) and re-validates it.
serverless:
	$(GO) run ./cmd/odf-serverless -mode soak -out serverless_out.json
	$(GO) run ./cmd/odf-serverless -check serverless_out.json

# Durable-checkpoint gate: the format and kernel-wiring unit tests
# under -race, a fuzz smoke over the open/verify/read path (any input
# is rejected or served, never a crash), the crash-consistency chaos
# matrix (writers killed at random failpoints; every surviving file
# either restores byte-identically against an in-memory shadow or is
# rejected by fsck — pinned seeds make failures replayable), the
# serverless checkpoint→restart→restore round trip over real TCP, and
# the CI artifacts: a sample snapshot plus its fsck report.
ckpt:
	$(GO) test -race ./internal/ckpt/ -run 'Ckpt|Checkpoint|Chain|Crash|Corrupt|Trunc|BitFlip|Fsck|Read|Incremental|RoundTrip|Abort|Writer'
	$(GO) test -race ./internal/kernel/ -run 'Checkpoint|Restore|Ckpt'
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz FuzzCheckpointOpen -fuzztime 10s
	$(GO) build -o odf-ckpt.bin ./cmd/odf-ckpt
	rm -rf ckpt_chaos && mkdir -p ckpt_chaos/s1 ckpt_chaos/s2 ckpt_chaos/s3
	./odf-ckpt.bin chaos -dir ckpt_chaos/s1 -seed 1 -n 30
	./odf-ckpt.bin chaos -dir ckpt_chaos/s2 -seed 7 -n 30
	./odf-ckpt.bin chaos -dir ckpt_chaos/s3 -seed 42 -n 30
	rm -rf ckpt_sv && $(GO) run ./cmd/odf-serverless -mode checkpoint -ckpt-dir ckpt_sv -tenants 4 -quota 128
	$(GO) run ./cmd/odf-serverless -mode restore -ckpt-dir ckpt_sv
	./odf-ckpt.bin write -out sample.ckpt -pages 256 -seed 1
	./odf-ckpt.bin verify sample.ckpt
	./odf-ckpt.bin fsck -dir . > ckpt_fsck.txt
	./odf-ckpt.bin fsck -dir ckpt_chaos/s1 -json >> ckpt_fsck.txt
	cat ckpt_fsck.txt

# Flight-recorder artifact: record a fork/fault/reclaim window, export
# it as Chrome trace-event JSON (load trace.json in ui.perfetto.dev),
# and validate the file. CI runs this as the trace gate.
trace:
	$(GO) run ./cmd/odf-bench -max-gb 0.25 -reps 2 -trace-out trace.json trace
	$(GO) run ./cmd/odf-tracecheck trace.json

# Mid-run observability scrape: boot the serverless soak with the
# observability endpoint armed, then — while tenant load is flowing —
# poll /metrics until the exposition parses with the in-tree parser
# and the per-tenant fork histograms have counted real forks. The
# validated scrape lands in obs_scrape.txt (CI uploads it). The soak
# is run long (-n) so the scrape window is generous; the daemon is
# killed once the scrape passes — its own gates run in the serverless
# job, not here.
obs-scrape:
	$(GO) build -o odf-serverless.bin ./cmd/odf-serverless
	$(GO) build -o odf-top.bin ./cmd/odf-top
	@set -e; \
	./odf-serverless.bin -mode soak -obs 127.0.0.1:9180 \
		-n 20000 -noisy-n 600 >/dev/null 2>&1 & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	./odf-top.bin -url http://127.0.0.1:9180 -check -wait 120s \
		-require-tenant-forks -scrape obs_scrape.txt
