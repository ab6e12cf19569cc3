// Column-pruning differential: every plan lowered with the required-
// columns pass must return multiset-identical results to the same
// logical plan lowered with the pass skipped (Planner::LowerUnpruned),
// across batch sizes, thread counts, memory budgets that force Grace
// spilling, and segment scans with zone maps. The tests drive the
// planner and executor directly, so the unpruned reference needs no
// engine option. Edge cases pin the pass's mandatory rules:
// duplicate-sensitive consumers keep every column, correlated outer
// references stay readable, shared bypass nodes keep the union of their
// ports' demands, and an all-pruned join emits zero-width rows.
//
// Suites: ColumnPruning* (label `pruning`) and ColumnPruningParallel*
// (label `parallel-pruning`, so the TSan `-L parallel` sweep runs it).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/executor.h"
#include "exec/subplan_impl.h"
#include "exec/worker_pool.h"
#include "frontend/translator.h"
#include "planner/planner.h"
#include "planner/required_columns.h"
#include "query_corpus.h"
#include "rewrite/unnest.h"
#include "sql/parser.h"
#include "storage/spill.h"
#include "test_util.h"
#include "workload/tpch.h"

namespace bypass {
namespace {

using testing_util::FixedBypassQueries;
using testing_util::LoadSmallRst;
using testing_util::QueryGenerator;

struct RunConfig {
  size_t batch_size = 1024;
  int threads = 1;
  int64_t budget_bytes = 0;  ///< 0 = unbudgeted; else budget + spilling
  bool segments = false;     ///< scan through segments, zone maps on
};

/// Parses, translates and (optionally) unnests `sql` against `catalog`.
LogicalOpPtr LogicalPlanFor(const Catalog* catalog, const std::string& sql,
                            bool unnest) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString() << "\nsql: " << sql;
  if (!stmt.ok()) return nullptr;
  Translator translator(catalog);
  auto logical = translator.Translate(**stmt);
  EXPECT_TRUE(logical.ok()) << logical.status().ToString();
  if (!logical.ok()) return nullptr;
  if (!unnest) return *logical;
  UnnestingRewriter rewriter(RewriteOptions{});
  auto rewritten = rewriter.Rewrite(*logical);
  EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  return rewritten.ok() ? *rewritten : nullptr;
}

/// Executes a lowered plan the way PreparedQuery::ExecuteWith does:
/// per-worker stats for parallel runs, one spill manager per budgeted
/// execution, subplans configured alike.
Result<std::vector<Row>> RunPhysical(PhysicalPlan* plan,
                                     const RunConfig& cfg,
                                     WorkerPool* pool, ExecStats* stats) {
  ExecContext ctx;
  ctx.set_stats(stats);
  ctx.set_batch_size(cfg.batch_size);
  ctx.set_morsel_size(64);
  SharedMemoryBudget memory;
  std::shared_ptr<SpillManager> spill;
  if (cfg.budget_bytes > 0) {
    memory = std::make_shared<MemoryBudget>();
    memory->limit = cfg.budget_bytes;
    spill = std::make_shared<SpillManager>();
  }
  ctx.set_memory(memory);
  ctx.set_spill(spill);
  ctx.set_zone_maps_enabled(true);
  ctx.set_scan_from_segments(cfg.segments);
  int slots = 1;
  SharedWorkerStats worker_stats;
  if (cfg.threads > 1) {
    pool->EnsureWorkers(cfg.threads);
    slots = pool->num_workers();
    TaskGroupOptions sched;
    sched.max_workers = cfg.threads;
    sched.max_worker_id = slots;
    ctx.set_pool(pool);
    ctx.set_task_group_options(sched);
    worker_stats = std::make_shared<std::vector<ExecStatsSlot>>(
        static_cast<size_t>(slots));
    ctx.set_worker_stats(worker_stats);
  }
  ctx.set_num_worker_slots(slots);
  for (ExecSubplan* subplan : plan->subplans) {
    subplan->ClearCache();
    subplan->Configure(std::nullopt, stats, ctx.batch_size(), worker_stats,
                       slots, /*enable_columnar=*/true, memory, spill,
                       /*enable_zone_maps=*/true, cfg.segments);
  }
  BYPASS_RETURN_IF_ERROR(RunPlan(plan, &ctx));
  if (worker_stats != nullptr) {
    for (const ExecStatsSlot& slot : *worker_stats) stats->Add(slot.stats);
  }
  return plan->sink->rows();
}

class ColumnPruningHarness {
 public:
  explicit ColumnPruningHarness(Database* db) : db_(db) {}

  /// Lowers `logical` pruned and unpruned, runs both under every config,
  /// and asserts multiset-equal rows. Returns the pruned plan's text.
  std::string ExpectEquivalent(const LogicalOpPtr& logical,
                               const std::vector<RunConfig>& configs,
                               const std::string& what,
                               ExecStats* pruned_stats = nullptr) {
    if (logical == nullptr) return "";
    Planner planner(db_->catalog(), PlannerOptions{});
    auto pruned = planner.Lower(logical);
    auto unpruned = planner.LowerUnpruned(logical);
    EXPECT_TRUE(pruned.ok()) << pruned.status().ToString() << "\n" << what;
    EXPECT_TRUE(unpruned.ok())
        << unpruned.status().ToString() << "\n" << what;
    if (!pruned.ok() || !unpruned.ok()) return "";
    for (const RunConfig& cfg : configs) {
      ExecStats ps;
      ExecStats us;
      auto got = RunPhysical(&*pruned, cfg, &pool_, &ps);
      auto want = RunPhysical(&*unpruned, cfg, &pool_, &us);
      const std::string where =
          what + "\nbatch=" + std::to_string(cfg.batch_size) +
          " threads=" + std::to_string(cfg.threads) +
          " budget=" + std::to_string(cfg.budget_bytes) +
          " segments=" + std::to_string(cfg.segments);
      EXPECT_TRUE(got.ok()) << where << "\n" << got.status().ToString();
      EXPECT_TRUE(want.ok()) << where << "\n" << want.status().ToString();
      if (!got.ok() || !want.ok()) continue;
      EXPECT_TRUE(RowMultisetsEqual(*got, *want))
          << "pruning changed the result\n"
          << where << "\npruned rows: " << got->size()
          << "\nunpruned rows: " << want->size() << "\npruned plan:\n"
          << pruned->ToString();
      if (pruned_stats != nullptr) pruned_stats->Add(ps);
    }
    return pruned->ToString();
  }

  std::string ExpectEquivalent(const std::string& sql, bool unnest,
                               const std::vector<RunConfig>& configs,
                               ExecStats* pruned_stats = nullptr) {
    return ExpectEquivalent(
        LogicalPlanFor(db_->catalog(), sql, unnest), configs,
        "sql: " + sql + "\nunnest: " + std::to_string(unnest),
        pruned_stats);
  }

 private:
  Database* db_;
  WorkerPool pool_{1};
};

std::vector<RunConfig> Sweep(std::initializer_list<int> threads) {
  std::vector<RunConfig> out;
  for (int t : threads) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      RunConfig cfg;
      cfg.batch_size = batch;
      cfg.threads = t;
      out.push_back(cfg);
    }
  }
  return out;
}

/// The corpus queries all select DISTINCT * (every column demanded);
/// narrowing the select list and aggregating on top is what lets the
/// pass prune below the bypass unions, so each query also runs in those
/// two shapes.
std::vector<std::string> WithNarrowVariants(
    const std::vector<std::string>& queries) {
  const std::string prefix = "SELECT DISTINCT * FROM r WHERE ";
  std::vector<std::string> out;
  for (const std::string& q : queries) {
    out.push_back(q);
    if (q.rfind(prefix, 0) == 0) {
      const std::string where = q.substr(prefix.size());
      out.push_back("SELECT a2 FROM r WHERE " + where);
      out.push_back("SELECT COUNT(*), SUM(a4) FROM r WHERE " + where);
    }
  }
  return out;
}

std::vector<std::string> CorpusQueries() {
  std::vector<std::string> queries = FixedBypassQueries();
  QueryGenerator gen(/*seed=*/2026);
  for (int i = 0; i < 12; ++i) queries.push_back(gen.Generate());
  for (int i = 0; i < 4; ++i) {
    queries.push_back(gen.GenerateWithSelectClause());
  }
  // Joins in the outer block: the pass narrows these directly.
  queries.push_back(
      "SELECT a2, c3 FROM r, t WHERE a1 = c1 AND (a3 > 2 OR "
      "a4 = (SELECT MAX(b4) FROM s WHERE b1 = c2))");
  queries.push_back(
      "SELECT a1, b2 FROM r, s WHERE a3 < b3 AND (a2 = 1 OR b4 <> 2)");
  queries.push_back(
      "SELECT a2, SUM(b3) FROM r, s WHERE a1 = b1 AND a4 >= b4 "
      "GROUP BY a2");
  return WithNarrowVariants(queries);
}

void RunCorpus(Database* db, std::initializer_list<int> threads) {
  ColumnPruningHarness harness(db);
  const std::vector<RunConfig> configs = Sweep(threads);
  for (const std::string& sql : CorpusQueries()) {
    harness.ExpectEquivalent(sql, /*unnest=*/false, configs);
    harness.ExpectEquivalent(sql, /*unnest=*/true, configs);
  }
}

std::vector<std::string> TpchQueries() {
  return {
      TpchQuery2d(),
      TpchQuery2(),
      "SELECT n_name, COUNT(*), MIN(s_acctbal) FROM supplier, nation "
      "WHERE s_nationkey = n_nationkey GROUP BY n_name",
      "SELECT p_partkey, ps_availqty FROM part, partsupp "
      "WHERE p_partkey = ps_partkey AND (p_size < 5 OR "
      "ps_availqty < (SELECT MAX(ps_availqty) FROM partsupp "
      "WHERE ps_supplycost < 100))",
  };
}

void RunTpch(std::initializer_list<int> threads) {
  Database db;
  TpchOptions options;
  options.scale_factor = 0.005;
  ASSERT_TRUE(LoadTpch(&db, options).ok());
  ColumnPruningHarness harness(&db);
  const std::vector<RunConfig> configs = Sweep(threads);
  for (const std::string& sql : TpchQueries()) {
    harness.ExpectEquivalent(sql, /*unnest=*/true, configs);
  }
  // Canonical Q2d re-runs its subplan per outer row; one config suffices.
  harness.ExpectEquivalent(TpchQuery2d(), /*unnest=*/false, {RunConfig{}});
}

TEST(ColumnPruning, CorpusSerial) {
  Database db;
  LoadSmallRst(&db, /*seed=*/11, 30, 25, 20, /*null_fraction=*/0.15);
  RunCorpus(&db, {1});
}

TEST(ColumnPruningParallel, CorpusFourThreads) {
  Database db;
  LoadSmallRst(&db, /*seed=*/12, 300, 250, 200, /*null_fraction=*/0.15);
  RunCorpus(&db, {4});
}

TEST(ColumnPruning, TpchSerial) { RunTpch({1}); }

TEST(ColumnPruningParallel, TpchFourThreads) { RunTpch({4}); }

// --- Mandatory rules ------------------------------------------------------

class ColumnPruningEdge : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadSmallRst(&db_, /*seed=*/5, 40, 35, 30, /*null_fraction=*/0.1);
  }

  /// Asserts the pruned plan equals the unpruned one across the serial
  /// sweep and returns the pruned plan text.
  std::string Check(const std::string& sql, bool unnest = true) {
    ColumnPruningHarness harness(&db_);
    return harness.ExpectEquivalent(sql, unnest, Sweep({1}));
  }

  Database db_;
};

TEST_F(ColumnPruningEdge, DistinctOverJoinKeepsEveryColumn) {
  // Only a2 leaves the derived table, but DISTINCT compares whole rows:
  // dropping any joined column would merge distinct pairs.
  const std::string plan = Check(
      "SELECT a2 FROM (SELECT DISTINCT * FROM r, s WHERE a1 = b1) d");
  EXPECT_NE(plan.find("HashJoin [cols 8/8]"), std::string::npos) << plan;
}

TEST_F(ColumnPruningEdge, CountDistinctStarKeepsEveryColumn) {
  const std::string plan =
      Check("SELECT COUNT(DISTINCT *) FROM r, s WHERE a1 = b1");
  EXPECT_NE(plan.find("HashJoin [cols 8/8]"), std::string::npos) << plan;
  // Plain COUNT(*) reads nothing: the same join keeps zero columns.
  const std::string counted = Check("SELECT COUNT(*) FROM r, s WHERE a1 = b1");
  EXPECT_NE(counted.find("HashJoin [cols 0/8]"), std::string::npos)
      << counted;
}

TEST_F(ColumnPruningEdge, CorrelatedOuterRefKeepsItsColumn) {
  // Canonical evaluation: the filter above the join runs the block per
  // row, and the block reads a4 from that row — nothing else does.
  const std::string sql =
      "SELECT a1 FROM r, t WHERE a1 = c1 AND "
      "(c2 > 3 OR a2 = (SELECT COUNT(*) FROM s WHERE b4 = a4))";
  const std::string plan = Check(sql, /*unnest=*/false);
  // The join keeps a1, a2, a4 (outer ref) and c2.
  EXPECT_NE(plan.find("HashJoin [cols 4/8]"), std::string::npos) << plan;
  Check(sql, /*unnest=*/true);
}

TEST_F(ColumnPruningEdge, SharedBypassNodeKeepsUnionOfPortDemands) {
  // σ± over r ⋈ s; the positive port's consumer reads a3, the negative
  // port's reads b2. The shared join keeps both plus the predicate
  // column, and the union re-unites two one-column streams.
  const Catalog* catalog = db_.catalog();
  LogicalOpPtr r = LogicalPlanFor(catalog, "SELECT * FROM r", false);
  LogicalOpPtr s = LogicalPlanFor(catalog, "SELECT * FROM s", false);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(s, nullptr);
  auto join = std::make_shared<JoinOp>(
      LogicalInput{r}, LogicalInput{s},
      MakeComparison(CompareOp::kEq, MakeColumnRef("r", "a1"),
                     MakeColumnRef("s", "b1")));
  auto split = std::make_shared<BypassPartitionOp>(
      LogicalInput{join},
      std::vector<ExprPtr>{
          MakeComparison(CompareOp::kGt, MakeColumnRef("r", "a4"),
                         MakeLiteral(Value::Int64(3)))});
  auto pos = std::make_shared<ProjectOp>(
      LogicalInput{split, StreamPort::kOut},
      std::vector<NamedExpr>{{MakeColumnRef("r", "a3"), "x", ""}});
  auto neg = std::make_shared<ProjectOp>(
      LogicalInput{split, StreamPort::kNegative},
      std::vector<NamedExpr>{{MakeColumnRef("s", "b2"), "x", ""}});
  auto root = std::make_shared<UnionOp>(LogicalInput{pos},
                                        LogicalInput{neg});

  const ColumnLayouts layouts = ComputeColumnLayouts(*root, true);
  const Schema kept = join->schema().Select(layouts.of(join.get()));
  EXPECT_EQ(kept.ToString(), "r.a3:INT64, r.a4:INT64, s.b2:INT64");

  ColumnPruningHarness harness(&db_);
  const std::string plan =
      harness.ExpectEquivalent(root, Sweep({1}), "shared bypass node");
  EXPECT_NE(plan.find("HashJoin [cols 3/8]"), std::string::npos) << plan;
}

TEST_F(ColumnPruningEdge, AllPrunedCrossProductEmitsZeroWidthRows) {
  const std::string plan = Check("SELECT COUNT(*) FROM r, s");
  EXPECT_NE(plan.find("CrossProduct [cols 0/8]"), std::string::npos)
      << plan;
  auto result = db_.Query("SELECT COUNT(*) FROM r, s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int64_value(), 40 * 35);
}

TEST(ColumnPruningParallel, GraceSpilledJoinUnderBudget) {
  Database db;
  LoadSmallRst(&db, /*seed=*/9, 3000, 3000, 10);
  ColumnPruningHarness harness(&db);
  std::vector<RunConfig> configs;
  for (int threads : {1, 4}) {
    RunConfig cfg;
    cfg.threads = threads;
    cfg.budget_bytes = 96 << 10;
    configs.push_back(cfg);
  }
  ExecStats stats;
  const std::string plan = harness.ExpectEquivalent(
      "SELECT a2, COUNT(*), SUM(b3) FROM r, s WHERE a1 = b1 AND a3 = b2 "
      "GROUP BY a2",
      /*unnest=*/true, configs, &stats);
  EXPECT_GT(stats.join_spill_partitions, 0) << plan;
  EXPECT_NE(plan.find("HashJoin [cols 2/8]"), std::string::npos) << plan;
}

TEST(ColumnPruningParallel, SegmentScansWithZoneMaps) {
  Database db;
  Schema schema;
  schema.AddColumn({"k", DataType::kInt64, ""});
  schema.AddColumn({"v", DataType::kInt64, ""});
  schema.AddColumn({"w", DataType::kDouble, ""});
  schema.AddColumn({"note", DataType::kString, ""});
  auto table = db.CreateTable("seg", std::move(schema));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Rng rng(77);
  std::vector<Row> data;
  for (int i = 0; i < 4000; ++i) {
    data.push_back({Value::Int64(i),
                    rng.Bernoulli(0.1) ? Value::Null()
                                       : Value::Int64(rng.UniformInt(0, 9)),
                    Value::Double(rng.UniformDouble()),
                    Value::String("note_" + std::to_string(i % 13))});
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(data)).ok());
  (*table)->set_segment_rows(256);
  LoadSmallRst(&db, /*seed=*/3, 50, 40, 30);

  ColumnPruningHarness harness(&db);
  std::vector<RunConfig> configs;
  for (int threads : {1, 4}) {
    for (size_t batch : {size_t{7}, size_t{1024}}) {
      RunConfig cfg;
      cfg.threads = threads;
      cfg.batch_size = batch;
      cfg.segments = true;
      configs.push_back(cfg);
    }
  }
  ExecStats stats;
  const std::string plan = harness.ExpectEquivalent(
      "SELECT v, COUNT(*), MIN(w), SUM(k) FROM seg WHERE k >= 3000 "
      "GROUP BY v",
      /*unnest=*/true, configs, &stats);
  EXPECT_NE(plan.find("Scan(seg) [decode 3/4]"), std::string::npos)
      << plan;
  EXPECT_GT(stats.segments_skipped, 0);
  harness.ExpectEquivalent(
      "SELECT note FROM seg, r WHERE v = a1 AND (k < 500 OR "
      "w > (SELECT MAX(w) FROM seg WHERE v = a2))",
      /*unnest=*/true, configs);
  harness.ExpectEquivalent("SELECT DISTINCT * FROM seg WHERE k < 700",
                           /*unnest=*/true, configs);
}

}  // namespace
}  // namespace bypass
