#!/bin/sh
# bench.sh — run the repository benchmarks once, apply the gates below
# and write the results as a JSON file, which CI keeps as an artifact
# of the run (see DESIGN.md §4). Single-iteration numbers are too noisy
# to compare across revisions, so snapshots are not committed: compare
# revisions with alternating pairs (EXPERIMENTS.md) and on
# BENCHMARK.json's workloads. The run covers every benchmark in
# bench_test.go, including the multilevel planner
# (BenchmarkMultilevelPlan) and the service hot paths
# (BenchmarkServicePlanHot / BenchmarkServiceMultilevelHot), and fails
# if a service cache hit reports any allocations — the PR 2 0-alloc
# contract, extended to the multilevel endpoint. A second, fixed-20x
# pass gates the cold paths: BenchmarkMultilevelPlan must stay under
# 5ms and 1000 allocs/op, BenchmarkSimulatePattern under 30µs, and a
# whole 500-job fleet campaign (BenchmarkFleetSmall) under 25ms and
# 10000 allocs/op. The same pass holds the admission-gated hit path
# (BenchmarkServicePlanHot) under an absolute 2500ns/op: the PR 8
# overload gate must cost a cache hit nothing measurable (~900ns
# today), and the 0-alloc gate above already pins its allocations.
# The PR 9 ring-route gate holds BenchmarkRingRoute (the per-request
# consistent-hash owner lookup) at 0 allocs/op and under 1000ns/op,
# and a fixed-seed respatd-bench closed-loop run records the first
# serving-SLO snapshot inside the same BENCH_<date>.json under
# "respatd_bench" (failing the script if its SLO check fails).
# The PR 10 observability gates: BenchmarkServicePlanHot now runs with
# the tracer compiled in and sampling enabled, so its 0-alloc and
# 2500ns gates also pin the tracing overhead on the unsampled hot
# path; BenchmarkTraceRecord (a fully sampled trace: start, three
# spans, ring push) must stay under 10µs; BenchmarkPromScrape (the
# whole Prometheus exposition) under 2ms.
#
# Usage: scripts/bench.sh [outdir] [benchtime]
#   outdir    where to write BENCH_<date>.json (default: .)
#   benchtime go test -benchtime value (default: 1x)
#
# Output schema: {"date": ..., "go": ..., "benchmarks":
#   {"<name>": {"ns_per_op": N, "bytes_per_op": N, "allocs_per_op": N}}}
set -eu

outdir=${1:-.}
benchtime=${2:-1x}
mkdir -p "$outdir"
date=$(date -u +%Y-%m-%d)
out="$outdir/BENCH_${date}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchtime "$benchtime" -benchmem . | tee "$raw"

goversion=$(go version | sed 's/"/\\"/g')
awk -v date="$date" -v goversion="$goversion" '
BEGIN { printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": {\n", date, goversion }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
}
END { printf "\n  }\n}\n" }
' "$raw" > "$out"

# 0-alloc gate: a service plan-cache hit (single-level or multilevel)
# and the consistent-hash ring route must report 0 allocs/op in the
# snapshot just emitted.
if awk '/^BenchmarkService(Plan|Multilevel)Hot|^BenchmarkRingRoute/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i + 0 > 0) bad = 1
    } END { exit bad }' "$raw"; then
    :
else
    echo "bench.sh: service cache-hit or ring-route path allocates (see above); 0 allocs/op required" >&2
    exit 1
fi

# Ratio gates on the overhauled cold paths. These run at a fixed 20x
# benchtime regardless of the snapshot benchtime: single-iteration
# timings include goroutine spawn/handoff noise comparable to the
# budgets themselves (the source of the phantom SimulatePattern
# "regression" between the 2026-07 snapshots).
gateraw=$(mktemp)
trap 'rm -f "$raw" "$gateraw"' EXIT
go test -run '^$' -bench 'BenchmarkMultilevelPlan$|BenchmarkSimulatePattern$|BenchmarkFleetSmall$|BenchmarkServicePlanHot$|BenchmarkRingRoute$|BenchmarkTraceRecord$|BenchmarkPromScrape$' \
    -benchtime 20x -benchmem . | tee "$gateraw"
if awk '
    /^BenchmarkMultilevelPlan/ {
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op" && $i + 0 > 5000000) { print "gate: MultilevelPlan " $i " ns/op > 5ms"; bad = 1 }
            if ($(i+1) == "allocs/op" && $i + 0 > 1000) { print "gate: MultilevelPlan " $i " allocs/op > 1000"; bad = 1 }
        }
    }
    /^BenchmarkSimulatePattern/ {
        for (i = 2; i < NF; i++)
            if ($(i+1) == "ns/op" && $i + 0 > 30000) { print "gate: SimulatePattern " $i " ns/op > 30µs"; bad = 1 }
    }
    /^BenchmarkServicePlanHot/ {
        for (i = 2; i < NF; i++)
            if ($(i+1) == "ns/op" && $i + 0 > 2500) { print "gate: ServicePlanHot " $i " ns/op > 2500ns (admission gate must stay off the hit path)"; bad = 1 }
    }
    /^BenchmarkFleetSmall/ {
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op" && $i + 0 > 25000000) { print "gate: FleetSmall " $i " ns/op > 25ms"; bad = 1 }
            if ($(i+1) == "allocs/op" && $i + 0 > 10000) { print "gate: FleetSmall " $i " allocs/op > 10000"; bad = 1 }
        }
    }
    /^BenchmarkRingRoute/ {
        for (i = 2; i < NF; i++)
            if ($(i+1) == "ns/op" && $i + 0 > 1000) { print "gate: RingRoute " $i " ns/op > 1000ns (owner lookup must stay off the hot path)"; bad = 1 }
    }
    /^BenchmarkTraceRecord/ {
        for (i = 2; i < NF; i++)
            if ($(i+1) == "ns/op" && $i + 0 > 10000) { print "gate: TraceRecord " $i " ns/op > 10µs (sampled-trace overhead)"; bad = 1 }
    }
    /^BenchmarkPromScrape/ {
        for (i = 2; i < NF; i++)
            if ($(i+1) == "ns/op" && $i + 0 > 2000000) { print "gate: PromScrape " $i " ns/op > 2ms (exposition render)"; bad = 1 }
    }
    END { exit bad }' "$gateraw"; then
    :
else
    echo "bench.sh: cold-path budget exceeded (see gate lines above)" >&2
    exit 1
fi

# Serving-SLO snapshot: a hermetic fixed-seed respatd-bench closed loop
# (same workload CI gates via TestClosedLoopSLO). Its JSON report is
# merged into the snapshot under "respatd_bench"; a failed SLO check
# (non-zero exit) fails the script.
slo=$(mktemp)
trap 'rm -f "$raw" "$gateraw" "$slo"' EXIT
go run ./cmd/respatd-bench -inprocess -mode closed -clients 8 -requests 2000 \
    -configs 64 -seed 42 -slo-p99 5s -slo-error-rate 0 -slo-min-qps 1 > "$slo"
# Append: strip the snapshot's closing brace, add the report as one key.
sed '$d' "$out" > "$out.tmp"
{
    cat "$out.tmp"
    printf ',\n  "respatd_bench": '
    sed 's/^/  /;1s/^  //' "$slo"
    printf '}\n'
} > "$out"
rm -f "$out.tmp"

echo "wrote $out"
