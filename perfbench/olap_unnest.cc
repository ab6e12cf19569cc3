// olap_unnest: the paper's query family (Fig. 7, E1-E5 and the quantified
// and tagged follow-ups) through one client Session per database on a
// Server with the plan cache on. Planning is warm and cached, so the
// execution layer (join, group-by, bypass partition, union) does nearly
// all of the work.
#include <memory>
#include <thread>

#include "bench.h"
#include "engine/session.h"
#include "workload/rst.h"
#include "workload/tpch.h"

namespace perfbench {
namespace {

using bypass::Database;
using bypass::QueryOptions;

constexpr double kRstRows = 20000;   // rows per RST table
constexpr double kTpchSf = 0.1;      // TPC-H scale for q2d
// Q4's default (Eqv. 5) plan is quadratic and slower than canonical-memo
// at every size; 600 rows makes its default-plan time comparable to q2d's
// (85 ms against 91 ms, serially on a 4-vCPU Xeon) so the planner defect
// stays in the mix.
constexpr double kQ4Rows = 600;
// Check scale for the classes whose canonical-memo oracle takes seconds
// at workload scale (nested loops over 20k rows / SF 0.1).
constexpr double kCheckRstRows = 4000;
constexpr double kCheckTpchSf = 0.02;
constexpr int kSetupReps = 5;
// Serial execution: on a host whose vCPUs are shared with other guests,
// morsel-parallel queries (num_threads = nproc) wait at every pipeline
// barrier for the slowest worker, and their latency moved by up to 2x
// from run to run with the host's steal time; serial runs moved by ~5%.
constexpr int kNumThreads = 1;
// Nine classes of equal weight, 350-670 samples in a 16 s window (with
// the shared host's speed): p95 lies inside the two slowest classes with
// 17-33 samples beyond it; higher percentiles varied too much from run
// to run on a shared 4-core host.
constexpr double kTailPct = 95;

enum class Db { kMain, kQ4 };

struct ClassDef {
  const char* name;
  std::string sql;
  Db db;
  bool ordered;
  bool oracle_at_scale;  ///< canonical-memo is cheap at workload scale
};

std::vector<ClassDef> ClassDefs() {
  return {
      {"q1_eqv2",
       "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
       "FROM s WHERE a2 = b2) OR a4 > 1500",
       Db::kMain, false, true},
      // Q2 of Fig. 7(c) with the disjunct b4 > 9990 instead of > 1500: at
      // 20k rows the paper's literal makes every count exceed every a1,
      // so the result would be empty and the check vacuous.
      {"q2corr_eqv4",
       "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s "
       "WHERE a2 = b2 OR b4 > 9990)",
       Db::kMain, false, false},
      {"q3_tree",
       "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
       "FROM s WHERE a2 = b2) OR a3 = (SELECT COUNT(DISTINCT *) FROM t "
       "WHERE a4 = c2)",
       Db::kMain, false, false},
      {"exists_or",
       "SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE "
       "a2 = b2 AND b4 > 8000) OR a4 > 1500",
       Db::kMain, false, true},
      {"in_or",
       "SELECT DISTINCT * FROM r WHERE a1 IN (SELECT b1 FROM s WHERE "
       "a2 = b2) OR a4 > 9000",
       Db::kMain, false, false},
      {"not_in_or",
       "SELECT DISTINCT * FROM r WHERE a1 NOT IN (SELECT b1 FROM s WHERE "
       "a2 = b2) OR a4 > 9000",
       Db::kMain, false, false},
      {"tagged_k5",
       "SELECT COUNT(*), SUM(a3) FROM r WHERE a2 < 100 OR a4 > 8000 OR "
       "a3 < 100 OR a2 >= 950 OR a4 <= 10 OR a1 = (SELECT COUNT(*) FROM s "
       "WHERE a2 = b2)",
       Db::kMain, false, true},
      {"q2d", bypass::TpchQuery2d(), Db::kMain, true, false},
      {"q4_linear",
       "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
       "FROM s WHERE a2 = b2 OR b3 = (SELECT COUNT(DISTINCT *) FROM t "
       "WHERE b4 = c2))",
       Db::kQ4, false, true},
  };
}

/// The two served databases of one set-up: RST plus TPC-H, and Q4's
/// smaller RST.
struct World {
  Served main;
  Served q4;
  void Clear() {
    main.Clear();
    q4.Clear();
  }
  Served& served(Db which) { return which == Db::kMain ? main : q4; }
  Database* db(Db which) { return served(which).db.get(); }
};

/// Generates and analyzes the data of one world (`check` = the reduced
/// oracle scale).
void LoadWorld(World* w, uint64_t seed, bool check, SpanLog* log,
               std::vector<double>* load_s, std::vector<double>* analyze_ms) {
  w->main.db = std::make_unique<Database>();
  w->q4.db = std::make_unique<Database>();
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(log, "workload.LoadRst");
    bypass::RstOptions rst;
    rst.seed = seed;
    rst.rows_per_sf = static_cast<int64_t>(check ? kCheckRstRows : kRstRows);
    Expect(bypass::LoadRst(w->main.db.get(), 1, 1, 1, rst), "LoadRst");
    rst.rows_per_sf = static_cast<int64_t>(kQ4Rows);
    Expect(bypass::LoadRst(w->q4.db.get(), 1, 1, 1, rst), "LoadRst q4");
  }
  {
    ScopedSpan span(log, "workload.LoadTpch");
    bypass::TpchOptions tpch;
    tpch.seed = seed;
    tpch.scale_factor = check ? kCheckTpchSf : kTpchSf;
    Expect(bypass::LoadTpch(w->main.db.get(), tpch), "LoadTpch");
  }
  load_s->push_back(Us(start, Clock::now()) / 1e6);
  for (Database* db : {w->main.db.get(), w->q4.db.get()}) {
    AnalyzeEach(db, log, analyze_ms);
    MaterializeRowShims(db);
  }
}

QueryOptions BenchOptions() {
  QueryOptions o;  // default strategy: unnested bypass plans
  o.num_threads = kNumThreads;
  o.collect_plans = false;
  return o;
}

/// The counters AddServerMetrics reads, summed over two servers.
bypass::ServerStats Combined(bypass::ServerStats a,
                             const bypass::ServerStats& b) {
  a.queries_started += b.queries_started;
  a.admission_waits += b.admission_waits;
  a.plan_cache.hits += b.plan_cache.hits;
  a.plan_cache.misses += b.plan_cache.misses;
  a.plan_cache.capacity_evictions += b.plan_cache.capacity_evictions;
  a.plan_cache.stale_evictions += b.plan_cache.stale_evictions;
  return a;
}

}  // namespace

Report RunOlapUnnest(const Args& args) {
  Report report;
  SpanLog log(args.trace);
  const std::vector<ClassDef> defs = ClassDefs();
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());

  World world;
  std::vector<QueryClass> classes;
  std::vector<double> load_s;
  std::vector<double> analyze_ms;
  auto teardown = [&] {
    classes.clear();
    world.Clear();
  };
  const double setup_s = TimedSetups(kSetupReps, teardown, [&] {
    ScopedSpan span(&log, "bench.setup");
    LoadWorld(&world, args.seed, /*check=*/false, &log, &load_s,
              &analyze_ms);
    bypass::ServerOptions server;
    server.num_workers = nproc;
    server.plan_cache_entries = 64;
    world.main.Serve(server, 1);
    world.q4.Serve(server, 1);
    // Warm-up: fills the plan cache and finishes lazy work (first-touch
    // scans).
    for (const ClassDef& def : defs) {
      classes.push_back(WarmClass(
          def.name, def.ordered,
          [session = world.served(def.db).sessions[0].get(), sql = def.sql] {
            return session->Query(sql, BenchOptions());
          },
          &log, "engine.Session::Query"));
    }
  });

  // Correctness gate: canonical-memo (nested-loop semantics) agrees with
  // the benchmark's plans, at workload scale where that is affordable and
  // on a reduced-scale copy of the same generators otherwise.
  {
    World check;
    std::vector<double> ignored;
    LoadWorld(&check, args.seed, /*check=*/true, nullptr, &ignored,
              &ignored);
    for (size_t i = 0; i < defs.size(); ++i) {
      const ClassDef& def = defs[i];
      Database* db =
          def.oracle_at_scale ? world.db(def.db) : check.db(def.db);
      GateClass(classes[i], db, def.sql, def.oracle_at_scale, BenchOptions(),
                &report);
    }
    SelfCheckDigest(
        Expect(world.main.db->Query(defs[0].sql, BenchOptions()), "q1").rows,
        false);
  }

  const bypass::ServerStats main_before = world.main.server->stats();
  const bypass::ServerStats q4_before = world.q4.server->stats();
  const Window w = MeasureRounds(&classes, args, &log,
                                 "engine.Session::Query", kTailPct, &report);
  if (!args.trace) report.metrics["setup_s"] = setup_s;
  report.info["rst_rows_per_table"] = std::to_string(kRstRows);
  report.info["q4_rst_rows_per_table"] = std::to_string(kQ4Rows);
  report.info["tpch_sf"] = std::to_string(kTpchSf);
  report.info["check_rst_rows"] = std::to_string(kCheckRstRows);
  report.info["check_tpch_sf"] = std::to_string(kCheckTpchSf);
  report.info["num_threads"] = std::to_string(kNumThreads);
  report.info["server_workers"] = std::to_string(nproc);
  report.info["sessions"] = "2";
  report.info["clients"] = "1";
  report.info["setup_reps"] = std::to_string(kSetupReps);
  if (!args.trace) return report;

  // ---- per-layer metrics (traced run only)
  AddExecMetrics(w, "olap", &report);
  const bypass::ServerStats after =
      Combined(world.main.server->stats(), world.q4.server->stats());
  const bypass::ServerStats before = Combined(main_before, q4_before);
  AddServerMetrics(before, after, &report);
  report.metrics["workload.load_s"] = Median(load_s);
  report.metrics["stats.analyze_ms"] = Median(analyze_ms);

  log.set_enabled(true);
  std::map<std::string, std::vector<double>> planning;
  double max_qerror = 1.0;
  double regret = 1.0;
  int64_t result_rows = 0;
  for (size_t i = 0; i < defs.size(); ++i) {
    const ClassDef& def = defs[i];
    Database* db = world.db(def.db);
    max_qerror = std::max(max_qerror,
                          PlanningPass(db, def.sql, BenchOptions(), &log,
                                       &planning, &report));
    QueryOptions memo_options = OracleOptions();
    memo_options.num_threads = kNumThreads;  // same footing as the window
    const bypass::QueryResult memo =
        Expect(db->Query(def.sql, memo_options), def.name);
    const double t_default = Median(w.exec_ms.at(def.name));
    regret = std::max(regret, t_default / std::min(t_default,
                                                   Us(memo.execution_time) /
                                                       1e3));
    result_rows += classes[i].expected.rows;
  }
  log.set_enabled(false);
  AddPlanningMetrics(planning, &report);
  report.metrics["planner.max_qerror"] = max_qerror;
  report.metrics["planner.unnest_regret"] = regret;
  report.metrics["exec.result_rows"] = static_cast<double>(result_rows);
  WriteSpans({&log}, args.out_dir + "/spans_olap_unnest_seed" +
                         std::to_string(args.seed) + ".json");
  return report;
}

}  // namespace perfbench
