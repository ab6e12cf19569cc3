#include "planner/planner.h"

#include <algorithm>

#include "algebra/plan_util.h"
#include "common/check.h"
#include "planner/cost_model.h"
#include "exec/bypass_partition.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/outer_join.h"
#include "exec/project.h"
#include "exec/semi_join.h"
#include "exec/sort.h"
#include "exec/union_op.h"

namespace bypass {

namespace {

/// The physical slot of logical position `pos` in an ascending layout,
/// or -1 when the layout does not carry it.
int SlotOf(const std::vector<int>& layout, int pos) {
  const auto it = std::lower_bound(layout.begin(), layout.end(), pos);
  return it != layout.end() && *it == pos
             ? static_cast<int>(it - layout.begin())
             : -1;
}

/// Keep lists of a join whose output layout is `out` (positions of its
/// logical schema, the concatenation of the inputs') over inputs with
/// layouts `left` and `right`; `left_width` is the left input's logical
/// width. Fails when an output position is missing from its input — the
/// pass guarantees it never is.
Result<JoinKeep> MakeJoinKeep(const std::vector<int>& out,
                              const std::vector<int>& left,
                              const std::vector<int>& right,
                              int left_width) {
  std::vector<int> keep_left;
  std::vector<int> keep_right;
  for (int p : out) {
    const int slot = p < left_width ? SlotOf(left, p)
                                    : SlotOf(right, p - left_width);
    if (slot < 0) {
      return Status::Internal("join output column missing from its input");
    }
    (p < left_width ? keep_left : keep_right).push_back(slot);
  }
  return JoinKeep(std::move(keep_left), std::move(keep_right),
                  static_cast<int>(left.size()),
                  static_cast<int>(right.size()));
}

/// Operators whose output schema and layout are their first input's.
bool PassesInputSchema(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kBypassPartition:
    case LogicalOpKind::kDistinct:
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kSemiJoin:
    case LogicalOpKind::kAntiJoin:
    case LogicalOpKind::kUnion:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<PhysicalPlan> Planner::Lower(const LogicalOpPtr& root) {
  return LowerPlan(root, /*outer_schema=*/nullptr, /*prune=*/true);
}

Result<PhysicalPlan> Planner::LowerUnpruned(const LogicalOpPtr& root) {
  return LowerPlan(root, /*outer_schema=*/nullptr, /*prune=*/false);
}

Result<PhysicalPlan> Planner::LowerPlan(const LogicalOpPtr& root,
                                        const Schema* outer_schema,
                                        bool prune) {
  PhysicalPlan plan;
  const ColumnLayouts layouts = ComputeColumnLayouts(*root, prune);
  std::unordered_map<const LogicalOp*, const Schema*> schemas;
  std::deque<Schema> narrowed;
  std::vector<std::pair<TableScanOp*, ExprPtr>> zone_candidates;
  LoweringCtx ctx{&plan,     outer_schema, prune,           &layouts,
                  &schemas, &narrowed,    &zone_candidates};
  std::unordered_map<const LogicalOp*, PhysOp*> memo;
  BYPASS_ASSIGN_OR_RETURN(PhysOp * top, LowerNode(root, &ctx, &memo));
  auto sink = std::make_unique<CollectorSink>();
  plan.sink = sink.get();
  top->AddConsumer(kPortOut, sink.get(), 0);
  plan.ops.push_back(std::move(sink));
  // Zone-map pruning is only sound when every consumer of the scan sees
  // just the predicate's TRUE rows; with all wiring done, that is exactly
  // the scans whose sole consumer is the candidate filter. (A bypass
  // filter never qualifies — its negative port needs the failing rows.)
  for (auto& [scan, pred] : zone_candidates) {
    if (scan->num_consumers(kPortOut) == 1) {
      scan->set_zone_filter(std::move(pred));
    }
  }
  plan.output_schema = root->schema();
  // Annotate each physical operator with its logical node's estimated
  // cardinality so the runtime can report per-operator q-errors.
  const auto estimates = EstimateAllNodes(*root, catalog_);
  for (const auto& [logical, phys] : memo) {
    const auto it = estimates.find(logical);
    if (it == estimates.end()) continue;
    const PlanEstimate& est = it->second;
    // Port 0 reads `rows`, clamped to >= 1 like every operator's output.
    phys->set_estimated_rows(kPortOut, est.rows);
    const int ports = std::min(phys->num_out_ports(),
                               static_cast<int>(est.port_rows.size()));
    for (int p = 1; p < ports; ++p) {
      phys->set_estimated_rows(p, est.port_rows[static_cast<size_t>(p)]);
    }
  }
  return plan;
}

Status Planner::BindExprInPlace(Expr* expr, const Schema& input,
                                LoweringCtx* ctx) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      auto* ref = static_cast<ColumnRefExpr*>(expr);
      if (ref->is_outer()) {
        if (ctx->outer_schema == nullptr) {
          return Status::BindError(
              "correlated reference without an enclosing block: " +
              ref->ToString());
        }
        BYPASS_ASSIGN_OR_RETURN(
            int slot,
            ctx->outer_schema->FindColumn(ref->qualifier(), ref->name()));
        ref->set_slot(slot);
      } else {
        BYPASS_ASSIGN_OR_RETURN(
            int slot, input.FindColumn(ref->qualifier(), ref->name()));
        ref->set_slot(slot);
      }
      return Status::OK();
    }
    case ExprKind::kSubquery: {
      auto* sq = static_cast<SubqueryExpr*>(expr);
      if (sq->probe() != nullptr) {
        BYPASS_RETURN_IF_ERROR(
            BindExprInPlace(sq->probe().get(), input, ctx));
      }
      if (sq->plan() == nullptr) {
        return Status::Internal("subquery without a logical plan");
      }
      // The block's free attributes index into *this* operator's input
      // row — that row becomes the subplan's outer row at runtime.
      std::vector<int> free_slots;
      for (const ColumnRefExpr* ref : CollectPlanOuterRefs(*sq->plan())) {
        BYPASS_ASSIGN_OR_RETURN(
            int slot, input.FindColumn(ref->qualifier(), ref->name()));
        free_slots.push_back(slot);
      }
      std::sort(free_slots.begin(), free_slots.end());
      free_slots.erase(
          std::unique(free_slots.begin(), free_slots.end()),
          free_slots.end());
      BYPASS_ASSIGN_OR_RETURN(PhysicalPlan inner_plan,
                              LowerPlan(sq->plan(), &input, ctx->prune));
      auto subplan = std::make_shared<ExecSubplan>(
          std::move(inner_plan), std::move(free_slots),
          options_.memoize_subqueries);
      ctx->plan->subplans.push_back(subplan.get());
      sq->set_subplan(std::move(subplan));
      return Status::OK();
    }
    default: {
      for (const ExprPtr& c : expr->children()) {
        BYPASS_RETURN_IF_ERROR(BindExprInPlace(c.get(), input, ctx));
      }
      return Status::OK();
    }
  }
}

Result<ExprPtr> Planner::BindExpr(const ExprPtr& expr, const Schema& input,
                                  LoweringCtx* ctx) {
  ExprPtr bound = expr->Clone();
  BYPASS_RETURN_IF_ERROR(BindExprInPlace(bound.get(), input, ctx));
  return bound;
}

Result<PhysOp*> Planner::LowerNode(
    const LogicalOpPtr& node, LoweringCtx* ctx,
    std::unordered_map<const LogicalOp*, PhysOp*>* memo) {
  const auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;

  // Lower children right-to-left so build sides run before probe sides.
  const auto& inputs = node->inputs();
  std::vector<PhysOp*> children(inputs.size(), nullptr);
  for (size_t i = inputs.size(); i-- > 0;) {
    BYPASS_ASSIGN_OR_RETURN(children[i],
                            LowerNode(inputs[i].op, ctx, memo));
  }
  auto wire = [&](PhysOp* op, int in_port, size_t child_index) {
    children[child_index]->AddConsumer(
        static_cast<int>(inputs[child_index].port), op, in_port);
  };
  // Inputs' physical schemas: what this node's expressions bind against.
  auto phys = [&](size_t i) -> const Schema& {
    return *ctx->schemas->at(inputs[i].op.get());
  };
  const std::vector<int>& layout = ctx->layouts->of(node.get());
  // Wires a row-concatenating join and hands it the keep lists that
  // narrow its output rows to `layout`.
  auto finish_concat_join = [&](ConcatJoinOp* op) -> Status {
    BYPASS_ASSIGN_OR_RETURN(
        JoinKeep keep,
        MakeJoinKeep(layout, ctx->layouts->of(inputs[0].op.get()),
                     ctx->layouts->of(inputs[1].op.get()),
                     inputs[0].op->schema().num_columns()));
    op->set_keep(std::move(keep));
    wire(op, BinaryPhysOp::kLeft, 0);
    wire(op, BinaryPhysOp::kRight, 1);
    return Status::OK();
  };

  PhysOp* result = nullptr;
  switch (node->kind()) {
    case LogicalOpKind::kGet: {
      const auto& get = static_cast<const GetOp&>(*node);
      BYPASS_ASSIGN_OR_RETURN(Table * table,
                              catalog_->GetTable(get.table_name()));
      if (table->schema().num_columns() != get.schema().num_columns()) {
        return Status::Internal("table schema changed under the plan: " +
                                get.table_name());
      }
      auto scan = std::make_unique<TableScanOp>(table);
      scan->set_decode_columns(ctx->layouts->read_by_consumers(node.get()));
      TableScanOp* raw = scan.get();
      ctx->plan->ops.push_back(std::move(scan));
      ctx->plan->sources.push_back(raw);
      result = raw;
      break;
    }
    case LogicalOpKind::kSelect: {
      const auto& sel = static_cast<const SelectOp&>(*node);
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr pred,
          BindExpr(sel.predicate(), phys(0), ctx));
      // A filter directly over a scan is bound against the table schema,
      // making it a zone-map pruning candidate (installed by the
      // post-wiring pass if the scan gets no other consumer).
      if (auto* scan = dynamic_cast<TableScanOp*>(children[0])) {
        ctx->zone_candidates->emplace_back(scan, pred);
      }
      result = Register(ctx,
                        std::make_unique<FilterOp>(std::move(pred)));
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kProject: {
      const auto& proj = static_cast<const ProjectOp&>(*node);
      std::vector<ExprPtr> exprs;
      for (int i : layout) {
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr e,
            BindExpr(proj.items()[static_cast<size_t>(i)].expr, phys(0),
                     ctx));
        exprs.push_back(std::move(e));
      }
      // Identity projections (every input column, in order) forward
      // batches untouched at execution time.
      bool identity =
          exprs.size() == static_cast<size_t>(phys(0).num_columns());
      for (size_t i = 0; identity && i < exprs.size(); ++i) {
        const auto* ref = exprs[i]->kind() == ExprKind::kColumnRef
                              ? static_cast<const ColumnRefExpr*>(
                                    exprs[i].get())
                              : nullptr;
        identity = ref != nullptr && !ref->is_outer() &&
                   ref->slot() == static_cast<int>(i);
      }
      result = Register(
          ctx, std::make_unique<ProjectPhysOp>(std::move(exprs),
                                               identity));
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kMap: {
      const auto& map = static_cast<const MapOp&>(*node);
      const int base = node->schema().num_columns() -
                       static_cast<int>(map.items().size());
      std::vector<ExprPtr> exprs;
      for (int i : layout) {
        if (i < base) continue;
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr e,
            BindExpr(map.items()[static_cast<size_t>(i - base)].expr,
                     phys(0), ctx));
        exprs.push_back(std::move(e));
      }
      result =
          Register(ctx, std::make_unique<MapPhysOp>(std::move(exprs)));
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kDistinct: {
      result = Register(ctx, std::make_unique<DistinctPhysOp>());
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kNumbering: {
      result = Register(ctx, std::make_unique<NumberingPhysOp>());
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kSort: {
      const auto& sort = static_cast<const SortOp&>(*node);
      std::vector<PhysSortKey> keys;
      for (const SortKey& k : sort.keys()) {
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr e, BindExpr(k.expr, phys(0), ctx));
        keys.push_back(PhysSortKey{std::move(e), k.descending});
      }
      result =
          Register(ctx, std::make_unique<SortPhysOp>(std::move(keys)));
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kJoin: {
      // Joins build their output rows from the kept columns only (the
      // required-columns pass's layout); a residual or nested-loop
      // predicate binds against — and is evaluated on — that row, which
      // the pass made carry the predicate's columns.
      const auto& join = static_cast<const JoinOp&>(*node);
      const Schema& left = phys(0);
      const Schema& right = phys(1);
      const Schema out = node->schema().Select(layout);
      ConcatJoinOp* op = nullptr;
      if (join.predicate() == nullptr) {
        op = Register(ctx, std::make_unique<NLJoinOp>(nullptr));
      } else {
        EquiSplit split = SplitEquiPred(join.predicate(), left, right);
        if (!split.left_slots.empty()) {
          ExprPtr residual;
          if (!split.residual_conjuncts.empty()) {
            BYPASS_ASSIGN_OR_RETURN(
                residual,
                BindExpr(MakeAnd(split.residual_conjuncts), out, ctx));
          }
          op = Register(ctx, std::make_unique<HashJoinOp>(
                                 std::move(split.left_slots),
                                 std::move(split.right_slots),
                                 std::move(residual)));
        } else {
          BYPASS_ASSIGN_OR_RETURN(ExprPtr pred,
                                  BindExpr(join.predicate(), out, ctx));
          op = Register(ctx, std::make_unique<NLJoinOp>(std::move(pred)));
        }
      }
      BYPASS_RETURN_IF_ERROR(finish_concat_join(op));
      result = op;
      break;
    }
    case LogicalOpKind::kBypassJoin: {
      const auto& join = static_cast<const BypassJoinOp&>(*node);
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr pred,
          BindExpr(join.predicate(), node->schema().Select(layout), ctx));
      auto* op = Register(ctx,
                          std::make_unique<BypassNLJoinOp>(std::move(pred)));
      BYPASS_RETURN_IF_ERROR(finish_concat_join(op));
      result = op;
      break;
    }
    case LogicalOpKind::kLeftOuterJoin: {
      const auto& join = static_cast<const LeftOuterJoinOp&>(*node);
      const Schema& left = phys(0);
      const Schema& right = phys(1);
      // The padding row has the right input's physical arity; defaults
      // for columns the right input does not carry are unread.
      Row unmatched(static_cast<size_t>(right.num_columns()),
                    Value::Null());
      for (const auto& [name, value] : join.unmatched_defaults()) {
        const Result<int> slot = right.FindColumn("", name);
        if (slot.ok()) {
          unmatched[static_cast<size_t>(*slot)] = value;
        } else if (!inputs[1].op->schema().HasColumn("", name)) {
          return slot.status();
        }
      }
      EquiSplit split = SplitEquiPred(join.predicate(), left, right);
      ConcatJoinOp* op = nullptr;
      if (!split.left_slots.empty() &&
          split.residual_conjuncts.empty()) {
        op = Register(ctx, std::make_unique<HashLeftOuterJoinOp>(
                               std::move(split.left_slots),
                               std::move(split.right_slots),
                               std::move(unmatched)));
      } else {
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr pred,
            BindExpr(join.predicate(), node->schema().Select(layout), ctx));
        op = Register(ctx, std::make_unique<NLLeftOuterJoinOp>(
                               std::move(pred), std::move(unmatched)));
      }
      BYPASS_RETURN_IF_ERROR(finish_concat_join(op));
      result = op;
      break;
    }
    case LogicalOpKind::kSemiJoin:
    case LogicalOpKind::kAntiJoin: {
      const bool anti = node->kind() == LogicalOpKind::kAntiJoin;
      const ExprPtr& raw_pred =
          anti ? static_cast<const AntiJoinOp&>(*node).predicate()
               : static_cast<const SemiJoinOp&>(*node).predicate();
      const Schema& left = phys(0);
      const Schema& right = phys(1);
      EquiSplit split = SplitEquiPred(raw_pred, left, right);
      if (!split.left_slots.empty() &&
          split.residual_conjuncts.empty()) {
        result = Register(ctx, std::make_unique<HashExistenceJoinOp>(
                                   anti, std::move(split.left_slots),
                                   std::move(split.right_slots)));
      } else {
        const Schema concat = Schema::Concat(left, right);
        BYPASS_ASSIGN_OR_RETURN(ExprPtr pred,
                                BindExpr(raw_pred, concat, ctx));
        result = Register(ctx, std::make_unique<NLExistenceJoinOp>(
                                   anti, std::move(pred)));
      }
      wire(result, BinaryPhysOp::kLeft, 0);
      wire(result, BinaryPhysOp::kRight, 1);
      break;
    }
    case LogicalOpKind::kGroupBy: {
      const auto& gb = static_cast<const GroupByOp&>(*node);
      const Schema& input = phys(0);
      std::vector<int> key_slots;
      for (const GroupKey& k : gb.keys()) {
        BYPASS_ASSIGN_OR_RETURN(int slot,
                                input.FindColumn(k.qualifier, k.name));
        key_slots.push_back(slot);
      }
      std::vector<AggregateSpec> aggs;
      for (const AggregateSpec& a : gb.aggregates()) {
        AggregateSpec bound = a.Clone();
        if (bound.arg != nullptr) {
          BYPASS_ASSIGN_OR_RETURN(bound.arg,
                                  BindExpr(bound.arg, input, ctx));
        }
        aggs.push_back(std::move(bound));
      }
      result = Register(ctx, std::make_unique<HashGroupByOp>(
                                 std::move(key_slots), std::move(aggs),
                                 gb.scalar()));
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kBinaryGroupBy: {
      const auto& gb = static_cast<const BinaryGroupByOp&>(*node);
      const Schema& left = phys(0);
      const Schema& right = phys(1);
      BYPASS_ASSIGN_OR_RETURN(
          int left_slot,
          left.FindColumn(gb.left_key().qualifier, gb.left_key().name));
      BYPASS_ASSIGN_OR_RETURN(
          int right_slot,
          right.FindColumn(gb.right_key().qualifier,
                           gb.right_key().name));
      std::vector<AggregateSpec> aggs;
      for (const AggregateSpec& a : gb.aggregates()) {
        AggregateSpec bound = a.Clone();
        if (bound.arg != nullptr) {
          BYPASS_ASSIGN_OR_RETURN(bound.arg,
                                  BindExpr(bound.arg, right, ctx));
        }
        aggs.push_back(std::move(bound));
      }
      if (gb.compare_op() == CompareOp::kEq) {
        result = Register(ctx, std::make_unique<BinaryGroupByHashOp>(
                                   left_slot, right_slot,
                                   std::move(aggs)));
      } else {
        result = Register(ctx, std::make_unique<BinaryGroupByNLOp>(
                                   left_slot, gb.compare_op(), right_slot,
                                   std::move(aggs)));
      }
      wire(result, BinaryPhysOp::kLeft, 0);
      wire(result, BinaryPhysOp::kRight, 1);
      break;
    }
    case LogicalOpKind::kLimit: {
      const auto& limit = static_cast<const LimitOp&>(*node);
      result = Register(ctx,
                        std::make_unique<LimitPhysOp>(limit.count()));
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kBypassPartition: {
      const auto& part = static_cast<const BypassPartitionOp&>(*node);
      std::vector<ExprPtr> preds;
      preds.reserve(part.predicates().size());
      for (const ExprPtr& p : part.predicates()) {
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr bound, BindExpr(p, phys(0), ctx));
        preds.push_back(std::move(bound));
      }
      result = Register(
          ctx, std::make_unique<BypassPartitionKOp>(std::move(preds)));
      wire(result, 0, 0);
      break;
    }
    case LogicalOpKind::kUnion: {
      // The pass reconciles union inputs to one layout; rows of every
      // input must line up slot for slot.
      for (const LogicalInput& in : inputs) {
        if (ctx->layouts->of(in.op.get()) != layout) {
          return Status::Internal("union inputs disagree on their layout");
        }
      }
      result = Register(ctx, std::make_unique<UnionAllOp>(
                                 static_cast<int>(inputs.size())));
      for (size_t i = 0; i < inputs.size(); ++i) {
        wire(result, static_cast<int>(i), i);
      }
      break;
    }
  }
  BYPASS_CHECK(result != nullptr);
  memo->emplace(node.get(), result);
  // The node's physical schema: its logical one when the layout is full,
  // the input's when it passes that through unchanged, else a narrowed
  // copy.
  const Schema* schema = &node->schema();
  if (layout.size() != static_cast<size_t>(schema->num_columns())) {
    if (PassesInputSchema(node->kind())) {
      schema = ctx->schemas->at(inputs[0].op.get());
    } else {
      schema = &ctx->narrowed->emplace_back(schema->Select(layout));
    }
  }
  ctx->schemas->emplace(node.get(), schema);
  return result;
}

}  // namespace bypass
