// out_of_core: TPC-H with the sales tables read through the compressed
// segment store (scan_from_segments) under per-query memory budgets that
// are a fixed share of the loaded column bytes, so segment decode, zone
// maps, Grace hash-join and external-sort spill and budget charging do
// most of the work.
//
// Scale: SF 0.02 with 8192-row segments rather than SF 0.1 with the
// default 64k: the budget-to-data ratio and the segment count per table
// stay those of SF 0.1, while a round of the seven classes takes ~0.3 s
// serially on a 4-vCPU Xeon instead of ~3 s, so a 16 s window holds
// enough samples for a tail.
#include <memory>
#include <thread>

#include "bench.h"
#include "engine/session.h"
#include "workload/tpch.h"

namespace perfbench {
namespace {

using bypass::Database;
using bypass::QueryOptions;

constexpr double kTpchSf = 0.02;
constexpr size_t kSegmentRows = 8192;
// Check scale for the classes whose canonical-memo oracle is quadratic
// in orders x lineitem (about 15 s each at SF 0.02).
constexpr double kCheckTpchSf = 0.002;
constexpr int kSetupReps = 5;
// Serial execution, as in olap_unnest: parallel runs varied with the
// host's steal time far more than the storage layer's own cost.
constexpr int kNumThreads = 1;
// Seven classes, 200-430 samples per 16 s window (with the shared host's
// speed): p90 keeps 20-43 beyond it.
constexpr double kTailPct = 90;
// The budget every class is meant to run under: loaded column bytes / 20.
constexpr double kBaseBudgetDivisor = 20;

struct ClassDef {
  const char* name;
  std::string sql;
  bool ordered;
  bool oracle_at_scale;
  /// Budget = loaded column bytes / divisor. Classes that fail at the
  /// base divisor (no spill path: group-by, result collection; or a
  /// Grace partition that cannot shrink) run at the largest divisor
  /// under which they complete, since the window must not fail; the
  /// traced run counts the base-budget failures in
  /// storage.budget_failures.
  double budget_divisor;
};

std::vector<ClassDef> ClassDefs(int64_t num_orders) {
  // A clustered l_orderkey range of ~1.3% of the orders: zone maps skip
  // every segment but one or two.
  const int64_t lo = num_orders / 2;
  const int64_t hi = lo + num_orders / 75;
  return {
      {"q2d", bypass::TpchQuery2d(), true, true, 5},
      {"zone_range",
       "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_orderkey >= " +
           std::to_string(lo) + " AND l_orderkey < " + std::to_string(hi),
       false, true, kBaseBudgetDivisor},
      {"join_agg",
       "SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM orders, "
       "lineitem WHERE o_orderkey = l_orderkey AND o_orderdate >= 19950101 "
       "AND o_orderdate < 19960101 GROUP BY o_orderpriority",
       false, true, 2},
      {"suppkey_group_by",
       "SELECT l_suppkey, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY "
       "l_suppkey",
       false, true, kBaseBudgetDivisor},
      {"in_or_distinct",
       "SELECT DISTINCT o_custkey FROM orders WHERE o_orderkey IN (SELECT "
       "l_orderkey FROM lineitem WHERE l_quantity > 49) OR o_totalprice > "
       "450000",
       false, false, 5},
      {"eqv2_avg",
       "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_totalprice > "
       "(SELECT AVG(l_extendedprice) FROM lineitem WHERE l_orderkey = "
       "o_orderkey) OR o_orderpriority = '1-URGENT'",
       false, false, 2},
      {"order_by_limit",
       "SELECT o_orderkey, o_custkey, o_totalprice FROM orders ORDER BY "
       "o_totalprice DESC, o_orderkey LIMIT 20",
       true, true, kBaseBudgetDivisor},
  };
}

struct World : Served {
  int64_t column_bytes = 0;
  int64_t num_orders = 0;
};

void LoadWorld(World* w, uint64_t seed, double sf, SpanLog* log,
               std::vector<double>* load_s, std::vector<double>* analyze_ms) {
  w->db = std::make_unique<Database>();
  {
    ScopedSpan span(log, "workload.LoadTpch");
    const Clock::time_point start = Clock::now();
    bypass::TpchOptions tpch;
    tpch.seed = seed;
    tpch.scale_factor = sf;
    tpch.include_sales = true;
    Expect(bypass::LoadTpch(w->db.get(), tpch), "LoadTpch");
    load_s->push_back(Us(start, Clock::now()) / 1e6);
  }
  w->column_bytes = 0;
  for (const std::string& table : w->db->catalog()->TableNames()) {
    Expect(w->db->catalog()->GetTable(table), table)
        ->set_segment_rows(kSegmentRows);
    w->column_bytes += LoadedColumnBytes(w->db.get(), table);
  }
  AnalyzeEach(w->db.get(), log, analyze_ms);
  w->num_orders =
      Expect(w->db->catalog()->GetTable("orders"), "orders")->num_rows();
}

QueryOptions BenchOptions(const World& w, double divisor) {
  QueryOptions o;  // default strategy: unnested bypass plans
  o.num_threads = kNumThreads;
  o.collect_plans = false;
  o.scan_from_segments = true;
  o.memory_budget_bytes =
      static_cast<size_t>(static_cast<double>(w.column_bytes) / divisor);
  return o;
}

}  // namespace

Report RunOutOfCore(const Args& args) {
  Report report;
  SpanLog log(args.trace);
  World world;
  std::vector<ClassDef> defs;
  std::vector<QueryClass> classes;
  std::vector<double> load_s;
  std::vector<double> analyze_ms;
  auto teardown = [&] {
    classes.clear();
    world.Clear();
  };
  const double setup_s = TimedSetups(kSetupReps, teardown, [&] {
    ScopedSpan span(&log, "bench.setup");
    LoadWorld(&world, args.seed, kTpchSf, &log, &load_s, &analyze_ms);
    defs = ClassDefs(world.num_orders);
    bypass::ServerOptions server;
    server.num_workers = static_cast<int>(std::thread::hardware_concurrency());
    server.plan_cache_entries = 64;
    world.Serve(server, 1);
    // Warm-up: the first segment-store scan of each table builds its
    // segments and zone maps; the plan cache fills.
    for (const ClassDef& def : defs) {
      classes.push_back(WarmClass(
          def.name, def.ordered,
          [session = world.sessions[0].get(), sql = def.sql,
           options = BenchOptions(world, def.budget_divisor)] {
            return session->Query(sql, options);
          },
          &log, "engine.Session::Query"));
    }
  });

  const bypass::ServerStats before = world.server->stats();
  const Window w = MeasureRounds(&classes, args, &log,
                                 "engine.Session::Query", kTailPct, &report);
  const bypass::ServerStats after = world.server->stats();
  // Correctness gate: canonical-memo on flat, unbudgeted scans, at
  // workload scale or on a reduced-scale copy for the quadratic classes.
  // It runs after the window: its flat scans build the tables' row
  // shims, which the segment-store path never needs.
  {
    World check;
    std::vector<double> ignored;
    LoadWorld(&check, args.seed, kCheckTpchSf, nullptr, &ignored, &ignored);
    const std::vector<ClassDef> check_defs = ClassDefs(check.num_orders);
    for (size_t i = 0; i < defs.size(); ++i) {
      const ClassDef& def = defs[i];
      if (def.oracle_at_scale) {
        GateClass(classes[i], world.db.get(), def.sql, true, {}, &report);
      } else {
        // Budgets stay the same share of the (smaller) loaded bytes.
        const ClassDef& cdef = check_defs[i];
        GateClass(classes[i], check.db.get(), cdef.sql, false,
                  BenchOptions(check, cdef.budget_divisor), &report);
      }
      report.info[std::string("budget_divisor.") + def.name] =
          std::to_string(def.budget_divisor);
    }
    SelfCheckDigest(Expect(world.db->Query(defs.back().sql, OracleOptions()),
                           "self-check")
                        .rows,
                    true);
  }

  if (!args.trace) report.metrics["setup_s"] = setup_s;
  report.info["tpch_sf"] = std::to_string(kTpchSf);
  report.info["check_tpch_sf"] = std::to_string(kCheckTpchSf);
  report.info["segment_rows"] = std::to_string(kSegmentRows);
  report.info["loaded_column_bytes"] = std::to_string(world.column_bytes);
  report.info["num_threads"] = std::to_string(kNumThreads);
  report.info["sessions"] = "1";
  report.info["clients"] = "1";
  report.info["setup_reps"] = std::to_string(kSetupReps);
  if (!args.trace) return report;

  // ---- per-layer metrics (traced run only)
  AddExecMetrics(w, "ooc", &report);
  AddServerMetrics(before, after, &report);
  report.metrics["workload.load_s"] = Median(load_s);
  report.metrics["stats.analyze_ms"] = Median(analyze_ms);
  const bypass::ExecStats& st = w.stats;
  const double rounds = static_cast<double>(w.rounds);
  if (st.segments_scanned > 0) {
    report.metrics["storage.zone_skip_ratio"] =
        static_cast<double>(st.segments_skipped) /
        static_cast<double>(st.segments_scanned);
  }
  report.metrics["storage.spilled_bytes"] =
      static_cast<double>(st.spilled_bytes) / rounds;
  report.metrics["storage.spill_files"] =
      static_cast<double>(st.spill_files) / rounds;
  // The layers this workload exists to measure must be at work.
  if (st.spill_files == 0) Die("no class spilled in the window");
  if (st.segments_skipped == 0) Die("zone maps skipped no segment");

  log.set_enabled(true);
  std::map<std::string, std::vector<double>> planning;
  double max_qerror = 1.0;
  int64_t result_rows = 0;
  int budget_failures = 0;
  for (size_t i = 0; i < defs.size(); ++i) {
    const ClassDef& def = defs[i];
    const QueryOptions options = BenchOptions(world, def.budget_divisor);
    max_qerror = std::max(max_qerror,
                          PlanningPass(world.db.get(), def.sql, options, &log,
                                       &planning, &report));
    // Segment-store penalty: the same query over flat in-memory columns.
    QueryOptions flat = options;
    flat.scan_from_segments = false;
    std::vector<double> flat_ms;
    for (int rep = 0; rep < 3; ++rep) {
      flat_ms.push_back(
          Us(Expect(world.db->Query(def.sql, flat), def.name).execution_time) /
          1e3);
    }
    report.metrics[std::string("storage.segment_penalty.") + def.name] =
        Median(w.exec_ms.at(def.name)) / Median(flat_ms);
    if (!world.db->Query(def.sql, BenchOptions(world, kBaseBudgetDivisor))
             .ok()) {
      ++budget_failures;
    }
    // Which classes spill, and through which path.
    const bypass::ExecStats one =
        Expect(world.db->Query(def.sql, options), def.name).stats;
    report.info[std::string("spill.") + def.name] =
        "{\"files\": " + std::to_string(one.spill_files) +
        ", \"bytes\": " + std::to_string(one.spilled_bytes) +
        ", \"join_partitions\": " +
        std::to_string(one.join_spill_partitions) +
        ", \"sort_runs\": " + std::to_string(one.sort_spill_runs) +
        ", \"segments_skipped\": " + std::to_string(one.segments_skipped) +
        "}";
    result_rows += classes[i].expected.rows;
  }
  log.set_enabled(false);
  AddPlanningMetrics(planning, &report);
  report.metrics["planner.max_qerror"] = max_qerror;
  report.metrics["exec.result_rows"] = static_cast<double>(result_rows);
  report.metrics["storage.budget_failures"] = budget_failures;
  WriteSpans({&log}, args.out_dir + "/spans_out_of_core_seed" +
                         std::to_string(args.seed) + ".json");
  return report;
}

}  // namespace perfbench
