// compiled_repeat: prepare once with the codegen tier on, execute many.
// One query per compiled shape (filter, bypass σ±, k-way tagged
// partition, group-by accumulate, join probe, fused join→group-by) over a
// 1M-row r and a 10k-row s, so compiled pipelines do most of the work;
// compiling them (synchronously, during set-up) lands in setup_s.
#include <memory>

#include "bench.h"
#include "codegen/codegen_engine.h"
#include "workload/rst.h"

namespace perfbench {
namespace {

using bypass::Database;
using bypass::ExecutionStrategy;
using bypass::QueryOptions;

constexpr double kSfR = 100;  // 1M rows of r
constexpr double kSfS = 1;    // 10k rows of s
constexpr double kSfT = 0.01;
constexpr int kSetupReps = 3;
// Serial execution, as in olap_unnest: parallel runs varied with the
// host's steal time far more than the compiled pipelines' own cost.
constexpr int kNumThreads = 1;
// Six classes of equal weight, 250-480 samples per 16 s window (with the
// shared host's speed): p90 keeps 25-48 samples beyond it.
constexpr double kTailPct = 90;

struct Shape {
  const char* name;
  const char* sql;
  bool tagged;  ///< rewrite the leading simple disjuncts into a k-way
                ///< tagged partition
};

// Domains per workload/rst.h: a2 in [0,1000), a3 in [0,rows), a4 in
// [0,10000); a1 = b1 fans out to ~5M joined rows the fused shape folds.
const Shape kShapes[] = {
    {"filter",
     "SELECT COUNT(*) FROM r WHERE a2 < 100 OR a4 > 8000 OR a3 < 5000 OR "
     "a2 >= 950",
     false},
    {"bypass",
     "SELECT COUNT(*) FROM r WHERE a2 < 100 OR a1 = (SELECT COUNT(*) FROM "
     "s WHERE a2 = b2)",
     false},
    {"tagged_k5",
     "SELECT COUNT(*) FROM r WHERE a2 < 100 OR a4 > 8000 OR a3 < 100 OR "
     "a2 >= 950 OR a4 <= 10 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
     true},
    {"group_by",
     "SELECT a2, COUNT(*), SUM(a4), MIN(a3), MAX(a3) FROM r GROUP BY a2",
     false},
    {"join_probe", "SELECT COUNT(*) FROM r, s WHERE a3 = b3", false},
    {"join_group_by",
     "SELECT a2, COUNT(*), SUM(a4) FROM r, s WHERE a1 = b1 GROUP BY a2",
     false},
};

QueryOptions BenchOptions(const Shape& shape) {
  QueryOptions o = QueryOptions::With(ExecutionStrategy::kUnnested);
  o.rewrite.use_tagged_partition = shape.tagged;
  o.enable_codegen = true;
  o.codegen_synchronous = true;
  o.num_threads = kNumThreads;
  o.collect_plans = false;
  return o;
}

}  // namespace

Report RunCompiledRepeat(const Args& args) {
  Report report;
  SpanLog log(args.trace);
  if (!bypass::CodegenEngine::BuiltWithCodegen()) {
    Die("compiled_repeat needs a build with the codegen tier");
  }
  std::unique_ptr<Database> db;
  std::vector<bypass::PreparedQuery> prepared;
  std::vector<QueryClass> classes;
  std::vector<double> load_s;
  std::vector<double> analyze_ms;
  std::vector<double> compile_ms;
  int pipelines = 0;
  auto teardown = [&] {
    classes.clear();
    prepared.clear();
    db.reset();
  };
  const double setup_s = TimedSetups(kSetupReps, teardown, [&] {
    ScopedSpan span(&log, "bench.setup");
    db = std::make_unique<Database>();
    {
      ScopedSpan load(&log, "workload.LoadRst");
      const Clock::time_point start = Clock::now();
      bypass::RstOptions rst;
      rst.seed = args.seed;
      Expect(bypass::LoadRst(db.get(), kSfR, kSfS, kSfT, rst), "LoadRst");
      load_s.push_back(Us(start, Clock::now()) / 1e6);
    }
    AnalyzeEach(db.get(), &log, &analyze_ms);
    MaterializeRowShims(db.get());
    if (!db->codegen_engine()->Available()) {
      Die("the codegen tier cannot compile on this host");
    }
    pipelines = 0;
    prepared.reserve(std::size(kShapes));
    for (const Shape& shape : kShapes) {
      ScopedSpan prep(&log, "engine.Database::Prepare");
      prepared.push_back(
          Expect(db->Prepare(shape.sql, BenchOptions(shape)), shape.name));
      pipelines += prepared.back().compiled_pipelines();
    }
    const bypass::CodegenStats cg = db->codegen_engine()->stats();
    if (cg.compiles > 0) {
      compile_ms.push_back(cg.compile_seconds_total * 1e3 /
                           static_cast<double>(cg.compiles));
    }
    // Warm-up: two executions per shape; the second must agree.
    for (size_t i = 0; i < prepared.size(); ++i) {
      classes.push_back(WarmClass(
          kShapes[i].name, false,
          [handle = &prepared[i], options = BenchOptions(kShapes[i])] {
            return handle->Execute(options);
          },
          &log, "engine.PreparedQuery::Execute"));
    }
  });
  if (pipelines == 0) Die("no shape compiled a pipeline");

  // Correctness gate at workload scale: canonical-memo, interpreted.
  for (size_t i = 0; i < classes.size(); ++i) {
    GateClass(classes[i], db.get(), kShapes[i].sql, true, {}, &report);
  }
  SelfCheckDigest(Expect(classes[3].run(), "group_by").rows,  // 1000 rows
                  false);

  const Window w = MeasureRounds(&classes, args, &log,
                                 "engine.PreparedQuery::Execute", kTailPct,
                                 &report);
  if (!args.trace) report.metrics["setup_s"] = setup_s;
  report.info["r_rows"] = std::to_string(static_cast<int64_t>(kSfR * 10000));
  report.info["s_rows"] = std::to_string(static_cast<int64_t>(kSfS * 10000));
  report.info["num_threads"] = std::to_string(kNumThreads);
  report.info["sessions"] = "0";
  report.info["clients"] = "1";
  report.info["compiled_pipelines"] = std::to_string(pipelines);
  report.info["setup_reps"] = std::to_string(kSetupReps);
  if (!args.trace) return report;

  // ---- per-layer metrics (traced run only)
  AddExecMetrics(w, "compiled", &report);
  report.metrics["workload.load_s"] = Median(load_s);
  report.metrics["stats.analyze_ms"] = Median(analyze_ms);
  report.metrics["codegen.compile_ms"] = Median(compile_ms);
  report.metrics["codegen.pipelines"] = pipelines;
  const bypass::ExecStats& st = w.stats;
  const double batches = static_cast<double>(st.compiled_batches +
                                             st.compiled_fallback_batches);
  if (batches > 0) {
    report.metrics["codegen.compiled_batch_ratio"] =
        static_cast<double>(st.compiled_batches) / batches;
  }
  const double rounds = static_cast<double>(w.rounds);
  report.metrics["codegen.fused_join_batches"] =
      static_cast<double>(st.compiled_join_batches) / rounds;
  report.metrics["codegen.fused_agg_batches"] =
      static_cast<double>(st.compiled_agg_batches) / rounds;
  report.metrics["codegen.artifact_cache_hits"] =
      static_cast<double>(db->codegen_engine()->stats().cache_hits);

  log.set_enabled(true);
  std::map<std::string, std::vector<double>> planning;
  double max_qerror = 1.0;
  int64_t result_rows = 0;
  for (size_t i = 0; i < std::size(kShapes); ++i) {
    max_qerror = std::max(
        max_qerror, PlanningPass(db.get(), kShapes[i].sql,
                                 BenchOptions(kShapes[i]), &log, &planning,
                                 &report));
    result_rows += classes[i].expected.rows;
  }
  log.set_enabled(false);
  AddPlanningMetrics(planning, &report);
  report.metrics["planner.max_qerror"] = max_qerror;
  report.metrics["exec.result_rows"] = static_cast<double>(result_rows);
  WriteSpans({&log}, args.out_dir + "/spans_compiled_repeat_seed" +
                         std::to_string(args.seed) + ".json");
  return report;
}

}  // namespace perfbench
