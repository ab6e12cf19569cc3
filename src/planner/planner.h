// Physical planning: binds name-based expressions to row slots and lowers
// the logical DAG onto executable operators — hash-based implementations
// for equality predicates, nested loops otherwise. Nested blocks are
// lowered into re-executable correlated subplans.
#ifndef BYPASSDB_PLANNER_PLANNER_H_
#define BYPASSDB_PLANNER_PLANNER_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/logical_op.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/executor.h"
#include "exec/subplan_impl.h"
#include "planner/required_columns.h"

namespace bypass {

struct PlannerOptions {
  /// Memoize correlated subquery results by correlation values (the
  /// "canonical-memo" comparator strategy). Uncorrelated (type A) blocks
  /// are always materialized once regardless.
  bool memoize_subqueries = false;
};

class Planner {
 public:
  Planner(const Catalog* catalog, PlannerOptions options)
      : catalog_(catalog), options_(options) {}

  /// Lowers a logical plan into an executable physical plan (with a
  /// CollectorSink at the root). The required-columns pass runs first
  /// (planner/required_columns.h): joins keep only the columns their
  /// consumers read and segment scans decode only those, for this plan
  /// and every nested subplan.
  Result<PhysicalPlan> Lower(const LogicalOpPtr& root);

  /// The same lowering with the required-columns pass skipped: every
  /// operator carries its full logical schema. The reference side of the
  /// column-pruning differential tests.
  Result<PhysicalPlan> LowerUnpruned(const LogicalOpPtr& root);

 private:
  struct LoweringCtx {
    PhysicalPlan* plan;
    const Schema* outer_schema;  // enclosing block's schema, or nullptr
    bool prune;
    /// The pass's per-node physical layouts for this plan, and the
    /// resulting physical schema of each lowered node — what consumers
    /// bind their expressions against, by name. Full layouts point at
    /// the logical schema; narrowed ones live in `narrowed`.
    const ColumnLayouts* layouts;
    std::unordered_map<const LogicalOp*, const Schema*>* schemas;
    std::deque<Schema>* narrowed;
    /// Filter-over-scan pairs found while lowering this plan; the
    /// post-wiring pass installs the predicate as the scan's zone filter
    /// when the scan ended up with that filter as its only consumer.
    std::vector<std::pair<TableScanOp*, ExprPtr>>* zone_candidates;
  };

  Result<PhysicalPlan> LowerPlan(const LogicalOpPtr& root,
                                 const Schema* outer_schema, bool prune);

  Result<PhysOp*> LowerNode(
      const LogicalOpPtr& node, LoweringCtx* ctx,
      std::unordered_map<const LogicalOp*, PhysOp*>* memo);

  /// Returns a bound deep copy of `expr`: column refs get slots (against
  /// `input`, or the enclosing schema for correlated refs) and nested
  /// blocks become executable subplans.
  Result<ExprPtr> BindExpr(const ExprPtr& expr, const Schema& input,
                           LoweringCtx* ctx);
  Status BindExprInPlace(Expr* expr, const Schema& input,
                         LoweringCtx* ctx);

  /// Registers `op` in the plan and returns the raw pointer.
  template <typename T>
  T* Register(LoweringCtx* ctx, std::unique_ptr<T> op) {
    T* raw = op.get();
    ctx->plan->ops.push_back(std::move(op));
    return raw;
  }

  const Catalog* catalog_;
  PlannerOptions options_;
};

}  // namespace bypass

#endif  // BYPASSDB_PLANNER_PLANNER_H_
