// Codegen tier benchmark: compiled pipelines (C++-emit + dlopen,
// DESIGN.md §12) vs the interpreted vectorized kernels, paired on the
// identical query/plan/data so each ratio is the honest fusion win:
//
//   filter_1m      a 4-way disjunctive filter over a 1M-row table — the
//                  chain is the whole pipeline, so this is the headline
//                  fused-loop number and the break-even base: compile
//                  latency must amortize within <= 10 executions of the
//                  batch-1024 gain.
//   bypass_select  the bypass σ± split (cheap disjunct ahead of a scalar
//                  subquery disjunct) on the RST workload.
//   tagged_k3/k5   the k-way tagged partition with 3/5 leading simple
//                  disjuncts; the compiled loop folds all k predicates
//                  into one pass with first-TRUE-claims routing.
//   q2d            the paper's Query 2d on TPC-H (SF 0.01), end to end.
//
// The join_agg section measures the three breaker terminals (a chain
// ending in a fused pipeline breaker) on the same 1M-row table joined
// against its 1%-scale sibling:
//
//   join_probe     scan → fused hash-join probe (near-unique *3 keys,
//                  ~1% hit rate): the compiled loop owns hashing, the
//                  cached-hash compare, and prefetch-at-distance.
//   group_agg      scan → fused group-by accumulate (1000 groups,
//                  COUNT/SUM/MIN/MAX folding in-register into SoA).
//   join_agg       filter → probe → accumulate in one emitted pass; the
//                  ~5M joined rows are never materialized on the
//                  compiled path — the headline breaker number.
//
// Each cell runs batch_size 1 (row-at-a-time era) and 1024 (default
// vectorized); medians of --reps runs. The compile section reports the
// measured host-compiler latency, the artifact-cache-hit re-prepare
// latency, and break_even_executions = ceil(compile_ms / gain_ms).
//
// Also the CI probe for the codegen plumbing: invoked as
//   bench_codegen --assert-codegen
// it checks that (a) every chain terminal — filter survivors, σ±, k-way
// partition, join probe, group-by accumulate, probe+accumulate —
// installs (its label is in the physical plan) and actually runs
// (compiled_batches > 0, zero per-batch fallbacks, the fused-breaker
// counters count the breaker shapes), (b) compiled
// results are multiset-identical to the interpreted oracle, (c)
// re-preparing the same query hits the artifact cache instead of
// recompiling, (d) a textually distinct SQL string shares the cached
// artifact (artifact_shared_hits), and (e) the scratch directory holds
// no leaked sources/objects afterwards. Skips cleanly (exit 0, "n/a")
// when the tier is compiled out or the host toolchain probe fails.
// Exits nonzero on any failure.
//
// Flags: --rows=N           filter table cardinality (default 1000000)
//        --rst-rows=N       RST rows per SF          (default 50000)
//        --reps=N           runs per median          (default 5)
//        --quick            20000/5000 rows, 3 reps
//        --json             machine-readable report on stdout
//        --assert-codegen   smoke probe (see above)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codegen/codegen_engine.h"
#include "engine/database.h"
#include "workload/rst.h"
#include "workload/tpch.h"

namespace {

using namespace bypass;         // NOLINT(build/namespaces)
using namespace bypass::bench;  // NOLINT(build/namespaces)

// The 4-way disjunctive filter (no subquery, so the compiled chain spans
// scan → result) and the RST disjunctions used for bypass/tagged cells.
// Domains per workload/rst.h: a2 ∈ [0,1000), a3 ∈ [0,rows), a4 ∈
// [0,10000).
const char kFilterSql[] =
    "SELECT COUNT(*) FROM r WHERE a2 < 100 OR a4 > 8000 OR a3 < 5000 "
    "OR a2 >= 950";
const char kBypassSql[] =
    "SELECT COUNT(*) FROM r WHERE a2 < 100 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)";
const char kTagged3Sql[] =
    "SELECT COUNT(*) FROM r WHERE a2 < 100 OR a4 > 8000 OR a3 < 100 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)";
const char kTagged5Sql[] =
    "SELECT COUNT(*) FROM r WHERE a2 < 100 OR a4 > 8000 OR a3 < 100 "
    "OR a2 >= 950 OR a4 <= 10 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)";

// The breaker-terminal shapes (r: --rows, s: 1% of r). *3 is near-unique
// in [0, rows), so a3 = b3 probes mostly miss (~1% hit) — a pure probe
// benchmark. *1 links [0, 2·rows/1000] against s's [0, 2·|s|/1000], so
// a1 = b1 fans out to ~5M joined rows that the fused shape folds
// without materializing. *2 gives 1000 groups.
const char kJoinProbeSql[] =
    "SELECT COUNT(*) FROM r, s WHERE a3 = b3";
const char kGroupAggSql[] =
    "SELECT a2, COUNT(*), SUM(a4), MIN(a3), MAX(a3) FROM r GROUP BY a2";
const char kJoinAggSql[] =
    "SELECT a2, COUNT(*), SUM(a4) FROM r, s WHERE a1 = b1 GROUP BY a2";

struct Timed {
  double median_ms = 0.0;
  QueryResult last;
};

Timed RunPrepared(PreparedQuery* prepared, const QueryOptions& options,
                  int reps) {
  Timed out;
  std::vector<double> ms;
  for (int i = 0; i < reps + 1; ++i) {  // +1 warm-up, not measured
    const auto start = std::chrono::steady_clock::now();
    auto result = prepared->Execute(options);
    const auto stop = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "bench_codegen: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (i == 0) continue;
    ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    out.last = std::move(*result);
  }
  std::sort(ms.begin(), ms.end());
  out.median_ms = ms[ms.size() / 2];
  return out;
}

/// One paired cell: the same prepared query interpreted and compiled.
struct Cell {
  double interpreted_ms = 0.0;
  double compiled_ms = 0.0;
  double speedup = 0.0;
  int64_t compiled_batches = 0;
  int64_t fallback_batches = 0;
  int64_t join_batches = 0;
  int64_t agg_batches = 0;
  bool result_agrees = false;
};

Cell RunPair(Database* db, const std::string& sql, QueryOptions options,
             size_t batch_size, int reps) {
  options.batch_size = batch_size;
  options.collect_plans = false;
  QueryOptions compiled_opts = options;
  compiled_opts.enable_codegen = true;
  compiled_opts.codegen_synchronous = true;  // measure execution, not swap

  auto interp = db->Prepare(sql, options);
  auto compiled = db->Prepare(sql, compiled_opts);
  if (!interp.ok() || !compiled.ok()) {
    std::fprintf(stderr, "bench_codegen: prepare failed: %s\n",
                 (!interp.ok() ? interp : compiled)
                     .status()
                     .ToString()
                     .c_str());
    std::exit(1);
  }
  if (compiled->compiled_pipelines() == 0) {
    std::fprintf(stderr,
                 "bench_codegen: no compiled pipeline installed for: %s\n",
                 sql.c_str());
    std::exit(1);
  }
  Cell cell;
  const Timed ti = RunPrepared(&*interp, options, reps);
  const Timed tc = RunPrepared(&*compiled, compiled_opts, reps);
  cell.interpreted_ms = ti.median_ms;
  cell.compiled_ms = tc.median_ms;
  cell.speedup = tc.median_ms > 0 ? ti.median_ms / tc.median_ms : 0.0;
  cell.compiled_batches = tc.last.stats.compiled_batches;
  cell.fallback_batches = tc.last.stats.compiled_fallback_batches;
  cell.join_batches = tc.last.stats.compiled_join_batches;
  cell.agg_batches = tc.last.stats.compiled_agg_batches;
  cell.result_agrees = RowMultisetsEqual(ti.last.rows, tc.last.rows);
  return cell;
}

void PrintCellJson(const char* name, size_t batch, const Cell& c,
                   bool last) {
  std::printf(
      "    \"%s_batch_%zu\": {\"interpreted_ms\": %.3f, "
      "\"compiled_ms\": %.3f, \"speedup_compiled\": %.2f, "
      "\"compiled_batches\": %lld, \"fallback_batches\": %lld, "
      "\"join_batches\": %lld, \"agg_batches\": %lld, "
      "\"result_agrees\": %s}%s\n",
      name, batch, c.interpreted_ms, c.compiled_ms, c.speedup,
      static_cast<long long>(c.compiled_batches),
      static_cast<long long>(c.fallback_batches),
      static_cast<long long>(c.join_batches),
      static_cast<long long>(c.agg_batches),
      c.result_agrees ? "true" : "false", last ? "" : ",");
}

// ----------------------------------------------------- --assert-codegen

int Fail(const char* what, const char* shape) {
  std::fprintf(stderr, "assert-codegen: FAILED: %s (%s)\n", what, shape);
  return 1;
}

int AssertCodegen(int64_t rst_rows) {
  Database db;
  RstOptions ro;
  ro.rows_per_sf = rst_rows;
  Status st = LoadRst(&db, 1, 0.1, 0.1, ro);
  if (!st.ok()) {
    std::fprintf(stderr, "assert-codegen: load failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (!db.AnalyzeAll().ok()) return Fail("ANALYZE failed", "-");
  if (!CodegenEngine::BuiltWithCodegen() ||
      !db.codegen_engine()->Available()) {
    std::printf("assert-codegen: n/a (tier unavailable on this build)\n");
    return 0;
  }
  auto options = [] {
    QueryOptions opts = QueryOptions::With(ExecutionStrategy::kUnnested);
    opts.enable_codegen = true;
    opts.codegen_synchronous = true;
    return opts;
  };

  // One query per chain terminal. `label` is the terminal's part of the
  // CompiledPipeline operator label in the physical plan, so the probe
  // sees which terminal actually installed.
  struct Shape {
    const char* name;
    const char* sql;
    const char* label;
    bool tagged;
    bool want_join;
    bool want_agg;
  };
  const Shape shapes[] = {
      {"filter", kFilterSql, "+ survivors,", false, false, false},
      {"bypass", kBypassSql, "+ σ±,", false, false, false},
      {"tagged", kTagged3Sql, "+ k=3,", true, false, false},
      {"probe", "SELECT * FROM r, s WHERE a3 = b3", "+ probe,", false, true,
       false},
      {"accumulate", kGroupAggSql, "+ agg(", false, false, true},
      {"fused", kJoinAggSql, "+ probe+agg(", false, true, true},
  };
  for (const Shape& shape : shapes) {
    QueryOptions opts = options();
    opts.rewrite.use_tagged_partition = shape.tagged;
    auto prepared = db.Prepare(shape.sql, opts);
    if (!prepared.ok()) return Fail("prepare failed", shape.name);
    // (a) the terminal installs and actually runs natively.
    if (prepared->compiled_pipelines() == 0) {
      return Fail("no pipeline installed", shape.name);
    }
    auto compiled = prepared->Execute(opts);
    if (!compiled.ok()) return Fail("compiled execution failed", shape.name);
    if (compiled->physical_plan.find(shape.label) == std::string::npos) {
      return Fail("expected terminal not in the physical plan", shape.name);
    }
    const ExecStats& stats = compiled->stats;
    if (stats.compiled_batches <= 0) {
      return Fail("compiled code never ran", shape.name);
    }
    if (stats.compiled_fallback_batches != 0) {
      return Fail("unexpected per-batch fallback", shape.name);
    }
    if (shape.tagged && stats.tagged_batches <= 0) {
      return Fail("no tagged batches counted", shape.name);
    }
    if (shape.want_join && stats.compiled_join_batches <= 0) {
      return Fail("join probe was not fused", shape.name);
    }
    if (shape.want_agg && stats.compiled_agg_batches <= 0) {
      return Fail("group-by accumulate was not fused", shape.name);
    }
    // (b) multiset-identical to the interpreted oracle.
    QueryOptions interp = opts;
    interp.enable_codegen = false;
    auto oracle = db.Query(shape.sql, interp);
    if (!oracle.ok()) return Fail("interpreted oracle failed", shape.name);
    if (!RowMultisetsEqual(compiled->rows, oracle->rows)) {
      return Fail("compiled result diverges from the interpreter",
                  shape.name);
    }
  }

  // (c) re-preparing hits the artifact cache, no recompilation.
  const CodegenStats before = db.codegen_engine()->stats();
  auto again = db.Prepare(kFilterSql, options());
  if (!again.ok() || again->compiled_pipelines() == 0) {
    return Fail("re-prepare lost the compiled pipeline", "cache");
  }
  const CodegenStats cached = db.codegen_engine()->stats();
  if (cached.compiles != before.compiles) {
    return Fail("re-prepare recompiled instead of hitting the cache",
                "cache");
  }
  if (cached.cache_hits <= before.cache_hits) {
    return Fail("re-prepare did not count an artifact cache hit", "cache");
  }

  // (d) cross-plan sharing: a textually distinct spelling of the fused
  // query lowers to the same emitted source; the engine must serve the
  // cached artifact (no recompile) and count the share.
  const std::string variant =
      "SELECT  a2,  COUNT(*),  SUM(a4) FROM r, s WHERE (a1 = b1) "
      "GROUP BY a2";
  auto shared = db.Prepare(variant, options());
  if (!shared.ok() || shared->compiled_pipelines() == 0) {
    return Fail("variant spelling lost the compiled pipeline", "shared");
  }
  const CodegenStats after = db.codegen_engine()->stats();
  if (after.compiles != cached.compiles) {
    return Fail("variant spelling recompiled the artifact", "shared");
  }
  if (after.artifact_shared_hits <= cached.artifact_shared_hits) {
    return Fail("cross-plan artifact share was not counted", "shared");
  }
  if (after.compile_errors != 0) return Fail("compile errors", "-");

  // (e) temp hygiene: every emitted source/object is already unlinked.
  if (db.codegen_engine()->ScratchFileCount() != 0) {
    return Fail("scratch directory leaked emitted files", "scratch");
  }

  std::printf(
      "assert-codegen: OK (6 terminals native, %lld compiles, %lld cache "
      "hits, %lld shared, %.0f ms mean compile, scratch clean)\n",
      static_cast<long long>(after.compiles),
      static_cast<long long>(after.cache_hits),
      static_cast<long long>(after.artifact_shared_hits),
      after.compiles > 0
          ? 1e3 * after.compile_seconds_total /
                static_cast<double>(after.compiles)
          : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool quick = flags.Has("quick");
  const int reps = static_cast<int>(flags.GetInt("reps", quick ? 3 : 5));
  const int64_t filter_rows =
      flags.GetInt("rows", quick ? 20000 : 1000000);
  const int64_t rst_rows = flags.GetInt("rst-rows", quick ? 5000 : 50000);

  if (flags.Has("assert-codegen")) return AssertCodegen(rst_rows);

  const bool json = flags.Has("json");
  if (!CodegenEngine::BuiltWithCodegen()) {
    if (json) std::printf("{\"available\": false}\n");
    else std::printf("bench_codegen: n/a (built without codegen)\n");
    return 0;
  }

  // Fixture 1: the 1M-row filter table (chain == whole pipeline).
  Database filter_db;
  {
    RstOptions ro;
    ro.rows_per_sf = filter_rows;
    Status st = LoadRst(&filter_db, 1, 0.01, 0.01, ro);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_codegen: load failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    (void)filter_db.AnalyzeAll();
  }
  if (!filter_db.codegen_engine()->Available()) {
    if (json) std::printf("{\"available\": false}\n");
    else std::printf("bench_codegen: n/a (toolchain probe failed)\n");
    return 0;
  }

  // Fixture 2: the RST bypass/tagged workload.
  Database rst_db;
  {
    RstOptions ro;
    ro.rows_per_sf = rst_rows;
    Status st = LoadRst(&rst_db, 1, 0.1, 0.1, ro);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_codegen: load failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    (void)rst_db.AnalyzeAll();
  }

  // Fixture 3: TPC-H for Query 2d.
  Database tpch_db;
  {
    TpchOptions topt;
    topt.scale_factor = quick ? 0.002 : 0.01;
    Status st = LoadTpch(&tpch_db, topt);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_codegen: TPC-H load failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    (void)tpch_db.AnalyzeAll();
  }

  const QueryOptions plain;  // default strategy: canonical planner
  QueryOptions unnested = QueryOptions::With(ExecutionStrategy::kUnnested);
  QueryOptions tagged = unnested;
  tagged.rewrite.use_tagged_partition = true;

  struct Row {
    const char* name;
    Database* db;
    const char* sql;
    QueryOptions options;
  };
  const Row rows[] = {
      {"filter_1m", &filter_db, kFilterSql, plain},
      {"bypass_select", &rst_db, kBypassSql, unnested},
      {"tagged_k3", &rst_db, kTagged3Sql, tagged},
      {"tagged_k5", &rst_db, kTagged5Sql, tagged},
      {"q2d", &tpch_db, TpchQuery2d(), unnested},
  };
  // The breaker-terminal cells run on the filter fixture:
  // r at --rows against its 1%-scale sibling s.
  const Row ja_rows[] = {
      {"join_probe", &filter_db, kJoinProbeSql, plain},
      {"group_agg", &filter_db, kGroupAggSql, plain},
      {"join_agg", &filter_db, kJoinAggSql, plain},
  };
  constexpr size_t kBatches[] = {1, 1024};

  std::vector<std::pair<std::string, Cell>> cells;
  for (const Row& row : rows) {
    for (size_t batch : kBatches) {
      cells.emplace_back(
          std::string(row.name) + "/" + std::to_string(batch),
          RunPair(row.db, row.sql, row.options, batch, reps));
    }
  }
  std::vector<std::pair<std::string, Cell>> ja_cells;
  for (const Row& row : ja_rows) {
    for (size_t batch : kBatches) {
      ja_cells.emplace_back(
          std::string(row.name) + "/" + std::to_string(batch),
          RunPair(row.db, row.sql, row.options, batch, reps));
    }
  }

  // Compile economics: mean measured compiler latency, the cached
  // re-prepare cost, and the break-even execution count against the
  // headline batch-1024 filter gain.
  const CodegenStats cg = filter_db.codegen_engine()->stats();
  const double compile_ms =
      cg.compiles > 0 ? 1e3 * cg.compile_seconds_total /
                            static_cast<double>(cg.compiles)
                      : 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  {
    QueryOptions opts = plain;
    opts.enable_codegen = true;
    opts.codegen_synchronous = true;
    opts.batch_size = 1024;
    auto cached = filter_db.Prepare(kFilterSql, opts);
    if (!cached.ok() || cached->compiled_pipelines() == 0) {
      std::fprintf(stderr, "bench_codegen: cached re-prepare failed\n");
      return 1;
    }
  }
  const double cached_prepare_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const Cell* headline = nullptr;
  for (const auto& [name, cell] : cells) {
    if (name == "filter_1m/1024") headline = &cell;
  }
  const double gain_ms =
      headline != nullptr
          ? headline->interpreted_ms - headline->compiled_ms
          : 0.0;
  const int break_even =
      gain_ms > 0 ? static_cast<int>(std::ceil(compile_ms / gain_ms)) : -1;

  if (json) {
    std::printf("{\n  \"available\": true,\n  \"rows_filter\": %lld,\n"
                "  \"rows_rst\": %lld,\n  \"pipelines\": {\n",
                static_cast<long long>(filter_rows),
                static_cast<long long>(rst_rows));
    for (size_t i = 0; i < cells.size(); ++i) {
      const auto slash = cells[i].first.find('/');
      PrintCellJson(cells[i].first.substr(0, slash).c_str(),
                    static_cast<size_t>(std::stoul(
                        cells[i].first.substr(slash + 1))),
                    cells[i].second, i + 1 == cells.size());
    }
    std::printf("  },\n  \"join_agg\": {\n");
    for (size_t i = 0; i < ja_cells.size(); ++i) {
      const auto slash = ja_cells[i].first.find('/');
      PrintCellJson(ja_cells[i].first.substr(0, slash).c_str(),
                    static_cast<size_t>(std::stoul(
                        ja_cells[i].first.substr(slash + 1))),
                    ja_cells[i].second, i + 1 == ja_cells.size());
    }
    std::printf(
        "  },\n  \"compile\": {\"compile_ms\": %.1f, "
        "\"cached_prepare_ms\": %.2f, \"compiles\": %lld, "
        "\"cache_hits\": %lld, \"gain_per_exec_ms\": %.3f, "
        "\"break_even_executions\": %d}\n}\n",
        compile_ms, cached_prepare_ms,
        static_cast<long long>(cg.compiles),
        static_cast<long long>(cg.cache_hits), gain_ms, break_even);
    return 0;
  }

  PrintBanner("codegen", "compiled pipelines vs interpreted kernels",
              "median of " + std::to_string(reps) + ", batch 1 and 1024");
  ResultTable table({"interpreted ms", "compiled ms", "speedup"});
  char buf[3][64];
  for (const auto* group : {&cells, &ja_cells}) {
    for (const auto& [name, cell] : *group) {
      std::snprintf(buf[0], sizeof(buf[0]), "%.3f", cell.interpreted_ms);
      std::snprintf(buf[1], sizeof(buf[1]), "%.3f", cell.compiled_ms);
      std::snprintf(buf[2], sizeof(buf[2]), "%.2fx%s", cell.speedup,
                    cell.result_agrees ? "" : " (MISMATCH)");
      table.AddRow(name, {buf[0], buf[1], buf[2]});
    }
  }
  table.Print();
  std::printf(
      "compile: %.1f ms mean (%lld compiles), cached re-prepare %.2f ms, "
      "break-even %d executions of filter_1m@1024 (gain %.3f ms/exec)\n",
      compile_ms, static_cast<long long>(cg.compiles), cached_prepare_ms,
      break_even, gain_ms);
  return 0;
}
