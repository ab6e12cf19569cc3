#!/usr/bin/env bash
# PR benchmark suite: runs the selection microbenchmarks, the hash
# operator microbenchmarks (flat vs node-based tables, probe match-rate
# sweep), and the Q2d end-to-end harness (median-of-5 each), plus a
# thread-scaling curve for the morsel-parallel executor and the
# statistics-subsystem sweep (cost-based pick accuracy across disjunct
# skews, ANALYZE overhead, post-ANALYZE q-error), the paired
# row-vs-columnar kernel microbenchmarks, and the k-way tagged execution
# sweep (one BypassPartition±[k] pass vs the Eqv. 2 / Eqv. 3 σ± cascades
# across 3..5-way mixed-selectivity disjunctions, plus the cost-based
# auto-pick probe), and the serving-layer client sweep (1/4/8 clients
# over a repeated query class: shared Server with plan cache + admission
# vs one private Database per client), and the segment-storage sweep
# (zone-map skipping on a clustered range, compressed segment reads vs
# the flat path, Grace-join/external-sort spill at a budget of data/10),
# and the codegen tier sweep (compiled pipelines vs the interpreted
# kernels on filter/bypass/tagged/q2d shapes at batch 1 and 1024, the
# widened-region join/agg cells — fused hash-join probe, group-by
# accumulate, and filter→probe→accumulate pipelines vs the interpreted
# operators — plus compile latency and the break-even execution count),
# and writes BENCH_PR10.json. Prior PR reports (BENCH_PR1..9.json) are
# never overwritten: each PR writes its own file so the history stays
# comparable side by side.
#
# Usage: bench/run_benchmarks.sh [build-dir]
# Output: $BENCH_OUT (default <build-dir>/BENCH_PR10.json)
#
# The script fails loudly (nonzero exit) when the report file is missing
# or empty afterwards — a silent half-run must not pass for a benchmark
# artifact.
#
# Every report embeds environment metadata — host CPU count plus the
# compiler and flags captured in <build-dir>/build_info.json at configure
# time — because absolute numbers only compare within one environment.
#
# Seed baselines were measured on the same machine at the seed commit
# (634af06, row-at-a-time execution) with the identical protocol:
# bench_operators --benchmark_repetitions=5 medians and five bench_q2d
# --quick runs. The thread-scaling section reports medians of five
# bench_q2d --quick runs per thread count with speedups relative to the
# 1-thread run of the same build, alongside the host's CPU count —
# scaling is only meaningful when the host actually has spare cores.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT=${BENCH_OUT:-${BUILD_DIR}/BENCH_PR10.json}
OPS=${BUILD_DIR}/bench/bench_operators
HASH=${BUILD_DIR}/bench/bench_hash
COL=${BUILD_DIR}/bench/bench_columnar
TAGGED=${BUILD_DIR}/bench/bench_tagged
Q2D=${BUILD_DIR}/bench/bench_q2d
STATS=${BUILD_DIR}/bench/bench_stats
SERVING=${BUILD_DIR}/bench/bench_serving
STORAGE=${BUILD_DIR}/bench/bench_storage
CODEGEN=${BUILD_DIR}/bench/bench_codegen
BUILD_INFO=${BUILD_DIR}/build_info.json

[[ -x ${OPS} && -x ${HASH} && -x ${COL} && -x ${TAGGED} && -x ${Q2D} &&
   -x ${STATS} && -x ${SERVING} && -x ${STORAGE} && -x ${CODEGEN} ]] || {
  echo "bench binaries missing under ${BUILD_DIR}/bench — build first" >&2
  exit 1
}

echo "== bench_operators (median of 5 repetitions) =="
OPS_JSON=$(mktemp)
"${OPS}" --benchmark_filter='PlainSelection|BypassSelection' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_format=json 2>/dev/null >"${OPS_JSON}"

echo "== bench_hash (median of 5 repetitions) =="
HASH_JSON=$(mktemp)
"${HASH}" --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json 2>/dev/null >"${HASH_JSON}"

echo "== bench_columnar (median of 5 repetitions) =="
COL_JSON=$(mktemp)
"${COL}" --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json 2>/dev/null >"${COL_JSON}"

echo "== bench_tagged (median of 5 interleaved repetitions) =="
TAGGED_JSON=$(mktemp)
# Random interleaving: the tagged-vs-cascade deltas are a few percent at
# the default batch size, so repetitions of different strategies are
# shuffled against machine drift instead of run back-to-back.
"${TAGGED}" --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json 2>/dev/null >"${TAGGED_JSON}"

echo "== bench_tagged --assert-tagged (cost-based auto-pick probe) =="
if "${TAGGED}" --assert-tagged; then
  TAGGED_AUTOPICK=true
else
  TAGGED_AUTOPICK=false
fi

echo "== bench_q2d --quick (5 runs) =="
Q2D_TXT=$(mktemp)
for i in 1 2 3 4 5; do
  "${Q2D}" --quick 2>/dev/null | tail -4 >>"${Q2D_TXT}"
done

echo "== bench_q2d --quick thread scaling (1/2/4/8, 5 runs each) =="
SCALE_TXT=$(mktemp)
for t in 1 2 4 8; do
  for i in 1 2 3 4 5; do
    "${Q2D}" --quick --threads="${t}" 2>/dev/null | tail -4 |
      sed "s/^/threads=${t} /" >>"${SCALE_TXT}"
  done
done

echo "== bench_stats (skew sweep, median of 5 each) =="
STATS_JSON=$(mktemp)
"${STATS}" --json 2>/dev/null >"${STATS_JSON}"

echo "== bench_serving (1/4/8-client sweep, shared vs private) =="
SERVING_JSON=$(mktemp)
"${SERVING}" --json 2>/dev/null >"${SERVING_JSON}"

echo "== bench_serving --assert-serving (plan-cache + oracle probe) =="
if "${SERVING}" --assert-serving; then
  SERVING_ASSERT=true
else
  SERVING_ASSERT=false
fi

echo "== bench_storage (zone scan / segment IO / spill, median of 5) =="
STORAGE_JSON=$(mktemp)
"${STORAGE}" --json 2>/dev/null >"${STORAGE_JSON}"

echo "== bench_storage --assert-storage (budget-differential probe) =="
if "${STORAGE}" --assert-storage; then
  STORAGE_ASSERT=true
else
  STORAGE_ASSERT=false
fi

echo "== bench_codegen (compiled vs interpreted, median of 5) =="
CODEGEN_JSON=$(mktemp)
"${CODEGEN}" --json 2>/dev/null >"${CODEGEN_JSON}"

echo "== bench_codegen --assert-codegen (all six terminals + hygiene probe) =="
if "${CODEGEN}" --assert-codegen; then
  CODEGEN_ASSERT=true
else
  CODEGEN_ASSERT=false
fi

NPROC=$(nproc 2>/dev/null || echo 1)

python3 - "${OPS_JSON}" "${Q2D_TXT}" "${SCALE_TXT}" "${NPROC}" "${OUT}" \
  "${STATS_JSON}" "${HASH_JSON}" "${BUILD_INFO}" "${COL_JSON}" \
  "${TAGGED_JSON}" "${TAGGED_AUTOPICK}" "${SERVING_JSON}" \
  "${SERVING_ASSERT}" "${STORAGE_JSON}" "${STORAGE_ASSERT}" \
  "${CODEGEN_JSON}" "${CODEGEN_ASSERT}" <<'EOF'
import json
import statistics
import sys

(ops_json, q2d_txt, scale_txt, nproc, out_path, stats_json, hash_json,
 build_info, col_json, tagged_json, tagged_autopick, serving_json,
 serving_assert, storage_json, storage_assert, codegen_json,
 codegen_assert) = sys.argv[1:18]

# Medians measured at the seed commit (see header comment).
SEED = {
    "BM_PlainSelection": 2.794,
    "BM_BypassSelectionViaDisjunction": 8.751,
    "q2d": {"canonical-noshort": 40.0, "canonical-memo": 14.0,
            "canonical": 14.0, "unnested": 7.0},
}

env_meta = {"host_cpus": int(nproc)}
try:
    with open(build_info) as f:
        env_meta.update(json.load(f))
except (OSError, json.JSONDecodeError):
    # Pre-refresh build dir: metadata appears after the next cmake run.
    env_meta["compiler"] = "unknown (re-run cmake for build_info.json)"

report = {"benchmark": "BENCH_PR10", "protocol": "median-of-5",
          "batch_size": 1024, "host_cpus": int(nproc),
          "environment": env_meta,
          "operators": {}, "bypass_select_thread_scaling": {},
          "hash_tables": {}, "columnar_kernels": {},
          "tagged_kway": {}, "serving": {}, "storage": {},
          "codegen": {},
          "q2d_quick_sf0.01": {}, "q2d_thread_scaling": {},
          "stats_subsystem": {}}

# Hash microbenchmarks: flat structures vs in-binary replicas of the
# node-based PR 3 tables, same data and flags, so each pair's ratio is
# the honest structural speedup. Probe pairs sweep the match rate.
hash_medians = {}
with open(hash_json) as f:
    for b in json.load(f)["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        ms = b["real_time"] / 1e6
        items_per_sec = b.get("items_per_second")
        hash_medians[b["run_name"]] = {
            "median_ms": round(ms, 3),
            "rows_per_sec": round(items_per_sec) if items_per_sec else None,
        }

def hash_pair(flat, unordered):
    f, u = hash_medians.get(flat), hash_medians.get(unordered)
    entry = {"flat": f, "unordered": u}
    if f and u:
        entry["speedup_flat_vs_unordered"] = round(
            u["median_ms"] / f["median_ms"], 2)
    return entry

report["hash_tables"]["join_build"] = hash_pair(
    "BM_JoinBuildFlat", "BM_JoinBuildUnordered")
report["hash_tables"]["group_upsert"] = hash_pair(
    "BM_GroupUpsertFlat", "BM_GroupUpsertUnordered")
sweep = {}
for pct in (1, 5, 10, 25, 50, 75, 100):
    entry = hash_pair(f"BM_JoinProbeFlat/{pct}",
                      f"BM_JoinProbeUnordered/{pct}")
    batch = hash_medians.get(f"BM_JoinProbeBatchFlat/{pct}")
    if batch:
        entry["flat_batch"] = batch
        if entry.get("unordered"):
            entry["speedup_batch_vs_unordered"] = round(
                entry["unordered"]["median_ms"] / batch["median_ms"], 2)
    sweep[f"match_{pct}pct"] = entry
report["hash_tables"]["join_probe_match_rate_sweep"] = sweep

# Columnar kernel pairs: BM_Row* and BM_Columnar* process the identical
# 1024-row batch through the same entry points (Expr::PartitionBatch for
# the fused σ± split, AggregatorSet::AccumulateBatch for the aggregate
# folds); the only difference is whether the batch carries typed columns.
# Each pair's ratio is the kernel speedup at the default batch size.
col_medians = {}
with open(col_json) as f:
    for b in json.load(f)["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        ms = b["real_time"] / 1e6
        items_per_sec = b.get("items_per_second")
        col_medians[b["run_name"]] = {
            "median_ms": round(ms, 6),
            "rows_per_sec": round(items_per_sec) if items_per_sec else None,
        }

def columnar_pair(row_name, col_name):
    r, c = col_medians.get(row_name), col_medians.get(col_name)
    entry = {"row": r, "columnar": c}
    if r and c:
        entry["speedup_columnar_vs_row"] = round(
            r["median_ms"] / c["median_ms"], 2)
    return entry

report["columnar_kernels"]["bypass_partition_int64"] = columnar_pair(
    "BM_RowPartitionInt64", "BM_ColumnarPartitionInt64")
report["columnar_kernels"]["bypass_partition_double"] = columnar_pair(
    "BM_RowPartitionDouble", "BM_ColumnarPartitionDouble")
report["columnar_kernels"]["aggregate_sum_min"] = columnar_pair(
    "BM_RowAggregate", "BM_ColumnarAggregate")

# K-way tagged execution: every strategy runs the identical RST
# COUNT(*) query with k leading simple disjuncts (mixed selectivities)
# ahead of a scalar subquery disjunct — the tagged plan replaces the k
# chained σ± selections with one BypassPartition±[k] pass — across two
# executor batch sizes (the saved per-pass overhead scales with the
# number of batch hand-offs). The headline number per cell is the tagged
# median vs the BEST cascade (min over simple-first / by-rank /
# subquery-first), so the win cannot come from a strawman ordering;
# costbased_auto_pick records the --assert-tagged probe.
tagged_medians = {}
tagged_rows = {}
with open(tagged_json) as f:
    for b in json.load(f)["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        name, k, bs = b["run_name"].rsplit("/", 2)
        cell = (int(k), int(bs))
        tagged_medians.setdefault(cell, {})[name] = round(
            b["real_time"] / 1e6, 3)
        if "result_rows" in b:
            tagged_rows.setdefault(cell, {})[name] = int(
                b["result_rows"])

CASCADES = {"BM_CascadeSimpleFirst": "cascade_simple_first",
            "BM_CascadeByRank": "cascade_by_rank",
            "BM_CascadeSubqueryFirst": "cascade_subquery_first"}
tagged_report = {"costbased_auto_pick": tagged_autopick == "true"}
for (k, bs) in sorted(tagged_medians):
    medians = tagged_medians[(k, bs)]
    entry = {"simple_disjuncts": k, "total_disjuncts": k + 1,
             "batch_size": bs,
             "count_star": tagged_rows.get((k, bs), {}).get(
                 "BM_TaggedPartition")}
    tagged_ms = medians.get("BM_TaggedPartition")
    entry["tagged_median_ms"] = tagged_ms
    cascade_ms = {label: medians[name]
                  for name, label in CASCADES.items() if name in medians}
    entry.update({f"{label}_median_ms": ms
                  for label, ms in cascade_ms.items()})
    if tagged_ms and cascade_ms:
        best_label, best_ms = min(cascade_ms.items(), key=lambda kv: kv[1])
        entry["best_cascade"] = best_label
        entry["speedup_tagged_vs_best_cascade"] = round(
            best_ms / tagged_ms, 2)
    if "BM_CostBasedAuto" in medians:
        entry["cost_based_median_ms"] = medians["BM_CostBasedAuto"]
    counts = set(tagged_rows.get((k, bs), {}).values())
    entry["result_agrees"] = len(counts) <= 1
    tagged_report[f"disjuncts_{k + 1}_batch_{bs}"] = entry
report["tagged_kway"] = tagged_report

# The statistics sweep emits its JSON directly (pick accuracy per
# policy, per-skew timings, ANALYZE overhead, post-ANALYZE q-error).
with open(stats_json) as f:
    report["stats_subsystem"] = json.load(f)

# Serving sweep: clients_{1,4,8} each pairing the shared Server (plan
# cache + admission over one pool) against one private Database per
# client; speedup_shared_vs_private is the throughput ratio, and
# assert_serving records the oracle/hit-rate probe's verdict.
with open(serving_json) as f:
    report["serving"] = json.load(f)
report["serving"]["assert_serving"] = serving_assert == "true"

# Segment-storage sweep: zone-map skipping on a clustered range (on vs
# off, skip fraction + speedup), the compressed segment read path vs the
# flat zero-copy scan with the encoded footprint, and the spill
# differential (join + top-k sort at a budget of data/10 vs unlimited,
# results_identical + spilled bytes). assert_storage records the
# budget-differential probe's verdict.
with open(storage_json) as f:
    report["storage"] = json.load(f)
report["storage"]["assert_storage"] = storage_assert == "true"

# Codegen tier sweep: compiled pipelines (C++-emit + dlopen) vs the
# interpreted vectorized kernels, paired per query shape and batch size
# (the --json output carries the routing cells and the join_agg cells of
# the breaker terminals), plus compile latency and the break-even
# execution count of the headline filter pipeline; assert_codegen
# records the one probe's verdict over all six terminals, and
# assert_codegen_joinagg repeats it under the key BENCH_PR10 reports
# were checked against.
with open(codegen_json) as f:
    report["codegen"] = json.load(f)
report["codegen"]["assert_codegen"] = codegen_assert == "true"
report["codegen"]["assert_codegen_joinagg"] = codegen_assert == "true"

ops_scale = {}
with open(ops_json) as f:
    for b in json.load(f)["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        name = b["run_name"]
        ms = b["real_time"] / 1e6  # reported in ns
        if name.startswith("BM_BypassSelectionThreads/"):
            ops_scale[int(name.split("/")[1])] = ms
            continue
        if name not in SEED:
            continue
        entry = {"median_ms": round(ms, 3), "seed_median_ms": SEED[name],
                 "speedup_vs_seed": round(SEED[name] / ms, 2)}
        report["operators"][name] = entry

base = ops_scale.get(1)
report["bypass_select_thread_scaling"] = {
    f"threads_{t}": {"median_ms": round(ms, 3),
                     "speedup_vs_1thread":
                         round(base / ms, 2) if base else None}
    for t, ms in sorted(ops_scale.items())}

runs = {}
with open(q2d_txt) as f:
    for line in f:
        parts = line.split()
        if len(parts) == 2 and parts[1].endswith("ms"):
            runs.setdefault(parts[0], []).append(float(parts[1][:-2]))
for strategy, times in runs.items():
    ms = statistics.median(times)
    seed_ms = SEED["q2d"][strategy]
    report["q2d_quick_sf0.01"][strategy] = {
        "median_ms": ms, "seed_median_ms": seed_ms,
        "speedup_vs_seed": round(seed_ms / ms, 2)}

scale = {}
with open(scale_txt) as f:
    for line in f:
        parts = line.split()
        if len(parts) == 3 and parts[2].endswith("ms"):
            t = int(parts[0].split("=")[1])
            scale.setdefault(parts[1], {}).setdefault(t, []).append(
                float(parts[2][:-2]))
for strategy, by_threads in scale.items():
    medians = {t: statistics.median(times)
               for t, times in sorted(by_threads.items())}
    base = medians.get(1)
    report["q2d_thread_scaling"][strategy] = {
        f"threads_{t}": {"median_ms": ms,
                         "speedup_vs_1thread":
                             round(base / ms, 2) if base else None}
        for t, ms in medians.items()}

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(json.dumps(report, indent=2))
print(f"\nwrote {out_path}")
EOF

rm -f "${OPS_JSON}" "${Q2D_TXT}" "${SCALE_TXT}" "${STATS_JSON}" \
  "${HASH_JSON}" "${COL_JSON}" "${SERVING_JSON}" "${STORAGE_JSON}" \
  "${CODEGEN_JSON}"

# A benchmark run that does not leave a parseable report behind is a
# failure, not a quiet no-op.
[[ -s ${OUT} ]] || {
  echo "run_benchmarks: report ${OUT} was not written" >&2
  exit 1
}
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${OUT}" || {
  echo "run_benchmarks: report ${OUT} is not valid JSON" >&2
  exit 1
}
