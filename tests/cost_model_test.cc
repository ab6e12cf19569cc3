// Cost model tests: relative orderings the optimizer relies on, plus the
// cost-based unnesting decision (paper Sec. 1).
#include "planner/cost_model.h"

#include <gtest/gtest.h>

#include "engine/database.h"
#include "frontend/translator.h"
#include "rewrite/unnest.h"
#include "sql/parser.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::LoadSmallRst;

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RstOptions opts;
    opts.rows_per_sf = 1000;
    ASSERT_TRUE(LoadRst(&db_, 1, 1, 1, opts).ok());
  }

  LogicalOpPtr Translate(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    Translator translator(db_.catalog());
    auto plan = translator.Translate(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  LogicalOpPtr Unnest(LogicalOpPtr plan) {
    UnnestingRewriter rewriter(RewriteOptions{});
    auto result = rewriter.Rewrite(std::move(plan));
    EXPECT_TRUE(result.ok());
    return *result;
  }

  double Cost(const std::string& sql, bool unnest) {
    LogicalOpPtr plan = Translate(sql);
    if (unnest) plan = Unnest(plan);
    return EstimatePlan(*plan, db_.catalog()).cost;
  }

  Database db_;
};

TEST_F(CostModelTest, BaseTableRowsComeFromTheCatalog) {
  LogicalOpPtr plan = Translate("SELECT * FROM r");
  const PlanEstimate est = EstimatePlan(*plan, db_.catalog());
  EXPECT_DOUBLE_EQ(est.rows, 1000);
}

TEST_F(CostModelTest, SelectionReducesCardinality) {
  LogicalOpPtr plan = Translate("SELECT * FROM r WHERE a1 = 5");
  const PlanEstimate est = EstimatePlan(*plan, db_.catalog());
  EXPECT_LT(est.rows, 1000);
  EXPECT_GT(est.cost, 1000);
}

TEST_F(CostModelTest, HashJoinCheaperThanCrossProduct) {
  const double equi = Cost("SELECT * FROM r, s WHERE a1 = b1", false);
  const double cross = Cost("SELECT * FROM r, s", false);
  EXPECT_LT(equi, cross);
}

TEST_F(CostModelTest, CorrelatedBlockChargedPerOuterRow) {
  const double correlated = Cost(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      false);
  const double uncorrelated = Cost(
      "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s)",
      false);
  // n·m vs n + m: at 1000×1000 about three orders of magnitude apart.
  EXPECT_GT(correlated, uncorrelated * 50);
}

TEST_F(CostModelTest, UnnestingWinsForEqv1AndEqv4Shapes) {
  const char* queries[] = {
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)",
  };
  for (const char* sql : queries) {
    EXPECT_LT(Cost(sql, true), Cost(sql, false)) << sql;
  }
}

TEST_F(CostModelTest, Eqv5PairStreamCanLoseToCanonical) {
  // Flat disjunctive correlation with a DISTINCT aggregate: both plans
  // are Θ(n·m) — the model must NOT report a large unnesting win.
  const char* sql =
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
      "            WHERE a2 = b2 OR b4 > 1500)";
  EXPECT_GT(Cost(sql, true) * 3, Cost(sql, false)) << sql;
}

TEST_F(CostModelTest, BypassJoinEdgesCarryTheirOwnStreamEstimates) {
  LogicalOpPtr r = Translate("SELECT * FROM r");
  LogicalOpPtr s = Translate("SELECT * FROM s");
  const PlanEstimate left = EstimatePlan(*r, db_.catalog());
  const PlanEstimate right = EstimatePlan(*s, db_.catalog());
  auto join = std::make_shared<BypassJoinOp>(
      LogicalInput{r}, LogicalInput{s},
      MakeComparison(CompareOp::kEq, MakeColumnRef("r", "a2"),
                     MakeColumnRef("s", "b2")));
  const PlanEstimate pos =
      EstimateInput(LogicalInput{join, StreamPort::kOut}, db_.catalog());
  const PlanEstimate neg = EstimateInput(
      LogicalInput{join, StreamPort::kNegative}, db_.catalog());
  // One nested-loop pass over all pairs produces both streams; its cost
  // rides on the positive edge only.
  const double pairs = left.rows * right.rows;
  EXPECT_DOUBLE_EQ(pos.cost, left.cost + right.cost + pairs);
  EXPECT_DOUBLE_EQ(neg.cost, 0);
  EXPECT_NEAR(pos.rows + neg.rows, pairs, 1e-9 * pairs);
  EXPECT_GT(pos.rows, 1);
  EXPECT_LT(pos.rows, neg.rows);  // an equality keeps few pairs
  EXPECT_DOUBLE_EQ(EstimatePlan(*join, db_.catalog()).rows, pos.rows);
  EXPECT_TRUE(pos.port_rows.empty());
  EXPECT_TRUE(neg.port_rows.empty());
}

TEST_F(CostModelTest, CostBasedOptionKeepsCheaperPlan) {
  LoadSmallRst(&db_, 900, 30, 30, 10);
  const char* sql =
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3";
  QueryOptions options;
  options.cost_based = true;
  auto result = db_.Query(sql, options);
  ASSERT_TRUE(result.ok());
  // Eqv. 2 is a clear win; the cost-based gate must keep the rewrite.
  EXPECT_FALSE(result->applied_rules.empty());
  EXPECT_NE(result->applied_rules[0], "cost-based: kept canonical");

  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db_.Query(sql, canonical);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(RowMultisetsEqual(base->rows, result->rows));
}

TEST_F(CostModelTest, CostBasedResultsAlwaysCorrect) {
  // Whatever the gate decides, results must match the canonical plan.
  LoadSmallRst(&db_, 901, 25, 30, 10);
  const char* queries[] = {
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
      "            WHERE a2 = b2 OR b4 > 3)",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3)",
  };
  for (const char* sql : queries) {
    QueryOptions options;
    options.cost_based = true;
    auto gated = db_.Query(sql, options);
    QueryOptions canonical;
    canonical.unnest = false;
    auto base = db_.Query(sql, canonical);
    ASSERT_TRUE(gated.ok());
    ASSERT_TRUE(base.ok());
    EXPECT_TRUE(RowMultisetsEqual(base->rows, gated->rows)) << sql;
  }
}

TEST_F(CostModelTest, StatsDrivenSelectivityTracksThresholds) {
  // r.a4 is uniform in [0, 10000): the estimated cardinality of
  // "a4 > t" must decrease as t grows (min/max interpolation), which the
  // default heuristics (constant 1/3) cannot do.
  auto rows_for = [&](int64_t t) {
    LogicalOpPtr plan = Translate(
        "SELECT * FROM r WHERE a4 > " + std::to_string(t));
    return EstimatePlan(*plan, db_.catalog()).rows;
  };
  const double lo = rows_for(1000);
  const double mid = rows_for(5000);
  const double hi = rows_for(9000);
  EXPECT_GT(lo, mid);
  EXPECT_GT(mid, hi);
  // Roughly calibrated: "a4 > 5000" keeps about half of the 1000 rows.
  EXPECT_GT(mid, 300);
  EXPECT_LT(mid, 700);
}

TEST_F(CostModelTest, StatsDrivenEqualityUsesNdv) {
  // r.a2 has ~1000 distinct values over 1000 rows → equality keeps ≈1 row;
  // r.a1's domain is tiny → equality keeps far more.
  LogicalOpPtr narrow = Translate("SELECT * FROM r WHERE a3 = 5");
  LogicalOpPtr wide = Translate("SELECT * FROM r WHERE a1 = 1");
  EXPECT_LT(EstimatePlan(*narrow, db_.catalog()).rows,
            EstimatePlan(*wide, db_.catalog()).rows);
}

TEST_F(CostModelTest, OperatorStatsReportEmittedRows) {
  LoadSmallRst(&db_, 902, 30, 30, 10);
  auto result = db_.Query(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->operator_stats.find("operator rows"),
            std::string::npos);
  EXPECT_NE(result->operator_stats.find("BypassFilter"),
            std::string::npos);
  EXPECT_NE(result->operator_stats.find("[-]"), std::string::npos);
}

}  // namespace
}  // namespace bypass
