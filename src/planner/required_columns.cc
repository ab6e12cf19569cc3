#include "planner/required_columns.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "algebra/plan_util.h"
#include "expr/expr_util.h"

namespace bypass {

EquiSplit SplitEquiPred(const ExprPtr& pred, const Schema& left,
                        const Schema& right) {
  EquiSplit split;
  for (const ExprPtr& c : SplitConjuncts(pred)) {
    bool handled = false;
    if (c->kind() == ExprKind::kComparison) {
      const auto* cmp = static_cast<const ComparisonExpr*>(c.get());
      if (cmp->op() == CompareOp::kEq &&
          cmp->left()->kind() == ExprKind::kColumnRef &&
          cmp->right()->kind() == ExprKind::kColumnRef) {
        const auto* a =
            static_cast<const ColumnRefExpr*>(cmp->left().get());
        const auto* b =
            static_cast<const ColumnRefExpr*>(cmp->right().get());
        if (!a->is_outer() && !b->is_outer()) {
          auto la = left.FindColumn(a->qualifier(), a->name());
          auto rb = right.FindColumn(b->qualifier(), b->name());
          if (la.ok() && rb.ok()) {
            split.left_slots.push_back(*la);
            split.right_slots.push_back(*rb);
            handled = true;
          } else {
            auto lb = left.FindColumn(b->qualifier(), b->name());
            auto ra = right.FindColumn(a->qualifier(), a->name());
            if (lb.ok() && ra.ok()) {
              split.left_slots.push_back(*lb);
              split.right_slots.push_back(*ra);
              handled = true;
            }
          }
        }
      }
    }
    if (!handled) split.residual_conjuncts.push_back(c);
  }
  return split;
}

namespace {

/// One flag per column of a node's logical schema.
using Mask = std::vector<char>;

/// Marks the column (qualifier, name) of `input`. An unresolvable name
/// demands the whole input, so binding later reports exactly the error
/// it would report without pruning.
void MarkColumn(const std::string& qualifier, const std::string& name,
                const Schema& input, Mask* need) {
  const Result<int> slot = input.FindColumn(qualifier, name);
  if (slot.ok()) {
    (*need)[static_cast<size_t>(*slot)] = 1;
  } else {
    std::fill(need->begin(), need->end(), 1);
  }
}

/// Marks the columns of `input` that evaluating `expr` against it reads:
/// its uncorrelated column references plus, for each embedded subquery,
/// the block's outer references — the subplan reads its correlation
/// values from the evaluating operator's input row.
void MarkExprColumns(const Expr& expr, const Schema& input, Mask* need) {
  if (expr.kind() == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(expr);
    if (!ref.is_outer()) {
      MarkColumn(ref.qualifier(), ref.name(), input, need);
    }
  } else if (expr.kind() == ExprKind::kSubquery) {
    const auto& sq = static_cast<const SubqueryExpr&>(expr);
    if (sq.plan() != nullptr) {
      for (const ColumnRefExpr* ref : CollectPlanOuterRefs(*sq.plan())) {
        MarkColumn(ref->qualifier(), ref->name(), input, need);
      }
    }
  }
  for (const ExprPtr& c : expr.children()) {
    MarkExprColumns(*c, input, need);
  }
}

/// Aggregates over an input: arguments are read, and DISTINCT * reads
/// the whole row (it is duplicate-sensitive on every column).
void MarkAggregates(const std::vector<AggregateSpec>& aggs,
                    const Schema& input, Mask* need) {
  for (const AggregateSpec& a : aggs) {
    if (a.arg != nullptr) {
      MarkExprColumns(*a.arg, input, need);
    } else if (a.distinct) {
      std::fill(need->begin(), need->end(), 1);
    }
  }
}

/// dst[j] |= src[offset + j] over dst's range.
void OrShifted(Mask* dst, const Mask& src, size_t offset) {
  for (size_t j = 0; j < dst->size() && offset + j < src.size(); ++j) {
    if (src[offset + j]) (*dst)[j] = 1;
  }
}

std::vector<int> Positions(const Mask& m) {
  std::vector<int> out;
  for (size_t i = 0; i < m.size(); ++i) {
    if (m[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> AllPositions(int width) {
  std::vector<int> out(static_cast<size_t>(width));
  std::iota(out.begin(), out.end(), 0);
  return out;
}

/// The pass's view of one plan node. The node's own reads (predicates,
/// keys, aggregate arguments, Π/χ items) are resolved once up front;
/// the demand rounds then only combine masks.
struct Node {
  const LogicalOp* op = nullptr;
  std::vector<size_t> inputs;  // indices into the pass's node vector
  size_t width = 0;
  /// Per input: columns this node reads from it whatever is demanded.
  std::vector<Mask> reads;
  /// Π/χ: per item, the input columns it reads, and whether it stays
  /// even when unread (it embeds a subquery — a failing block must
  /// error exactly as without pruning).
  std::vector<Mask> item_reads;
  std::vector<char> item_pinned;
  /// Joins: output columns a predicate evaluated on the joined row reads
  /// (residual conjuncts of a hash join, the whole predicate of a
  /// nested-loop one); the output keeps them.
  Mask eval;
  Mask need;   // this round's demand on the output
  Mask widen;  // union reconciliation demand, kept across rounds

  bool ItemKept(size_t i) const {
    return need[i + width - item_reads.size()] != 0 || item_pinned[i];
  }
};

/// Resolves a node's own reads into `n` (see Node).
void ResolveReads(Node* n) {
  const LogicalOp& node = *n->op;
  const auto& inputs = node.inputs();
  for (const LogicalInput& in : inputs) {
    n->reads.emplace_back(
        static_cast<size_t>(in.op->schema().num_columns()), 0);
  }
  auto schema = [&](size_t i) -> const Schema& {
    return inputs[i].op->schema();
  };
  auto items = [&](const std::vector<NamedExpr>& list) {
    for (const NamedExpr& item : list) {
      Mask m(n->reads[0].size(), 0);
      MarkExprColumns(*item.expr, schema(0), &m);
      n->item_reads.push_back(std::move(m));
      n->item_pinned.push_back(ContainsSubquery(item.expr) ? 1 : 0);
    }
  };
  // Join predicates resolve against the concatenated inputs, then split.
  auto join_pred = [&](const ExprPtr& pred, bool evaluated_on_output,
                       const std::vector<ExprPtr>& residual) {
    if (pred == nullptr) return;
    const Schema concat = Schema::Concat(schema(0), schema(1));
    Mask all(static_cast<size_t>(concat.num_columns()), 0);
    MarkExprColumns(*pred, concat, &all);
    OrShifted(&n->reads[0], all, 0);
    OrShifted(&n->reads[1], all, n->reads[0].size());
    n->eval.assign(all.size(), 0);
    if (evaluated_on_output) {
      n->eval = std::move(all);
    } else {
      for (const ExprPtr& c : residual) {
        MarkExprColumns(*c, concat, &n->eval);
      }
    }
  };
  switch (node.kind()) {
    case LogicalOpKind::kGet:
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kNumbering:
    case LogicalOpKind::kUnion:
      break;
    case LogicalOpKind::kSelect:
      MarkExprColumns(*static_cast<const SelectOp&>(node).predicate(),
                      schema(0), &n->reads[0]);
      break;
    case LogicalOpKind::kBypassPartition:
      for (const ExprPtr& p :
           static_cast<const BypassPartitionOp&>(node).predicates()) {
        MarkExprColumns(*p, schema(0), &n->reads[0]);
      }
      break;
    case LogicalOpKind::kDistinct:
      // Duplicate elimination compares whole rows.
      n->reads[0].assign(n->reads[0].size(), 1);
      break;
    case LogicalOpKind::kSort:
      for (const SortKey& k : static_cast<const SortOp&>(node).keys()) {
        MarkExprColumns(*k.expr, schema(0), &n->reads[0]);
      }
      break;
    case LogicalOpKind::kProject:
      items(static_cast<const ProjectOp&>(node).items());
      break;
    case LogicalOpKind::kMap:
      items(static_cast<const MapOp&>(node).items());
      break;
    case LogicalOpKind::kJoin: {
      const ExprPtr& pred = static_cast<const JoinOp&>(node).predicate();
      if (pred == nullptr) break;
      EquiSplit split = SplitEquiPred(pred, schema(0), schema(1));
      join_pred(pred, split.left_slots.empty(), split.residual_conjuncts);
      break;
    }
    case LogicalOpKind::kLeftOuterJoin: {
      const ExprPtr& pred =
          static_cast<const LeftOuterJoinOp&>(node).predicate();
      EquiSplit split = SplitEquiPred(pred, schema(0), schema(1));
      join_pred(pred,
                split.left_slots.empty() ||
                    !split.residual_conjuncts.empty(),
                {});
      break;
    }
    case LogicalOpKind::kBypassJoin:
      join_pred(static_cast<const BypassJoinOp&>(node).predicate(), true,
                {});
      break;
    case LogicalOpKind::kSemiJoin:
      join_pred(static_cast<const SemiJoinOp&>(node).predicate(), false,
                {});
      break;
    case LogicalOpKind::kAntiJoin:
      join_pred(static_cast<const AntiJoinOp&>(node).predicate(), false,
                {});
      break;
    case LogicalOpKind::kGroupBy: {
      const auto& gb = static_cast<const GroupByOp&>(node);
      for (const GroupKey& k : gb.keys()) {
        MarkColumn(k.qualifier, k.name, schema(0), &n->reads[0]);
      }
      MarkAggregates(gb.aggregates(), schema(0), &n->reads[0]);
      break;
    }
    case LogicalOpKind::kBinaryGroupBy: {
      const auto& gb = static_cast<const BinaryGroupByOp&>(node);
      MarkColumn(gb.left_key().qualifier, gb.left_key().name, schema(0),
                 &n->reads[0]);
      MarkColumn(gb.right_key().qualifier, gb.right_key().name, schema(1),
                 &n->reads[1]);
      MarkAggregates(gb.aggregates(), schema(1), &n->reads[1]);
      break;
    }
  }
}

class Pass {
 public:
  Pass(const LogicalOp& root, bool prune) : prune_(prune) {
    const std::vector<const LogicalOp*> order = TopologicalNodes(root);
    const size_t n = order.size();
    out_.index.reserve(n);
    for (size_t i = 0; i < n; ++i) out_.index.emplace(order[i], i);
    nodes_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      Node& node = nodes_[i];
      node.op = order[i];
      node.width = static_cast<size_t>(order[i]->schema().num_columns());
      for (const LogicalInput& in : order[i]->inputs()) {
        node.inputs.push_back(out_.index.at(in.op.get()));
      }
      ResolveReads(&node);
    }
    out_.layouts.resize(n);
    out_.reads.resize(n);
  }

  ColumnLayouts Run() {
    if (prune_) {
      do {
        Demand();
        Layout();
      } while (Reconcile());
    } else {
      // Everything demanded: every layout comes out full width.
      for (Node& n : nodes_) n.need.assign(n.width, 1);
      Layout();
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].op->kind() == LogicalOpKind::kGet) {
        out_.reads[i] = Positions(nodes_[i].need);
      }
    }
    return std::move(out_);
  }

 private:
  /// Top-down: every node's demand is final before its inputs are
  /// visited (reverse children-first order), then split onto them.
  void Demand() {
    for (Node& n : nodes_) n.need.assign(n.width, 0);
    Node& root = nodes_.back();
    root.need.assign(root.width, 1);
    for (size_t i = nodes_.size(); i-- > 0;) {
      Node& n = nodes_[i];
      for (size_t c = 0; c < n.widen.size(); ++c) n.need[c] |= n.widen[c];
      DemandFrom(n);
    }
  }

  void DemandFrom(const Node& n) {
    auto in = [&](size_t i) -> Mask& { return nodes_[n.inputs[i]].need; };
    // What the node itself reads from each input...
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      OrShifted(&in(i), n.reads[i], 0);
    }
    // Then the part of the demand that passes through to an input (Π
    // passes none: its kept items' reads are added below).
    switch (n.op->kind()) {
      case LogicalOpKind::kGet:
      case LogicalOpKind::kGroupBy:
      case LogicalOpKind::kDistinct:
      case LogicalOpKind::kProject:
        break;
      case LogicalOpKind::kSelect:
      case LogicalOpKind::kBypassPartition:
      case LogicalOpKind::kLimit:
      case LogicalOpKind::kNumbering:
      case LogicalOpKind::kSort:
      case LogicalOpKind::kMap:
      case LogicalOpKind::kSemiJoin:
      case LogicalOpKind::kAntiJoin:
      case LogicalOpKind::kBinaryGroupBy:
        OrShifted(&in(0), n.need, 0);
        break;
      case LogicalOpKind::kJoin:
      case LogicalOpKind::kBypassJoin:
      case LogicalOpKind::kLeftOuterJoin:
        OrShifted(&in(0), n.need, 0);
        OrShifted(&in(1), n.need, in(0).size());
        break;
      case LogicalOpKind::kUnion:
        for (size_t i = 0; i < n.inputs.size(); ++i) {
          OrShifted(&in(i), n.need, 0);
        }
        break;
    }
    for (size_t i = 0; i < n.item_reads.size(); ++i) {
      if (n.ItemKept(i)) OrShifted(&in(0), n.item_reads[i], 0);
    }
  }

  /// Bottom-up: a node's layout from its inputs' layouts and its demand.
  void Layout() {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      out_.layouts[i] = LayoutOf(nodes_[i]);
    }
  }

  std::vector<int> LayoutOf(const Node& n) {
    auto input_layout = [&](size_t i) -> const std::vector<int>& {
      return out_.layouts[n.inputs[i]];
    };
    const int width = static_cast<int>(n.width);
    switch (n.op->kind()) {
      case LogicalOpKind::kGet:
      case LogicalOpKind::kGroupBy:
        return AllPositions(width);
      case LogicalOpKind::kSelect:
      case LogicalOpKind::kBypassPartition:
      case LogicalOpKind::kDistinct:
      case LogicalOpKind::kLimit:
      case LogicalOpKind::kSort:
      case LogicalOpKind::kSemiJoin:
      case LogicalOpKind::kAntiJoin:
      case LogicalOpKind::kUnion:
        return input_layout(0);
      case LogicalOpKind::kNumbering:
      case LogicalOpKind::kBinaryGroupBy: {
        // The input's layout plus every appended column.
        std::vector<int> out = input_layout(0);
        for (int p = static_cast<int>(nodes_[n.inputs[0]].width);
             p < width; ++p) {
          out.push_back(p);
        }
        return out;
      }
      case LogicalOpKind::kProject:
      case LogicalOpKind::kMap: {
        std::vector<int> out;
        if (n.op->kind() == LogicalOpKind::kMap) out = input_layout(0);
        const size_t base = n.width - n.item_reads.size();
        for (size_t i = 0; i < n.item_reads.size(); ++i) {
          if (n.ItemKept(i)) out.push_back(static_cast<int>(base + i));
        }
        return out;
      }
      case LogicalOpKind::kJoin:
      case LogicalOpKind::kBypassJoin:
      case LogicalOpKind::kLeftOuterJoin: {
        Mask keep = n.need;
        for (size_t i = 0; i < n.eval.size(); ++i) keep[i] |= n.eval[i];
        return Positions(keep);
      }
    }
    return AllPositions(width);
  }

  /// Widens every union whose inputs disagree on their layouts to the
  /// union of those layouts. Returns true when anything changed (the
  /// demand/layout rounds then repeat; demands only grow, so this
  /// reaches a fixpoint where all inputs of each union agree).
  bool Reconcile() {
    bool changed = false;
    for (Node& n : nodes_) {
      if (n.op->kind() != LogicalOpKind::kUnion) continue;
      Mask all(n.width, 0);
      for (size_t in : n.inputs) {
        for (int p : out_.layouts[in]) all[static_cast<size_t>(p)] = 1;
      }
      const std::vector<int> target = Positions(all);
      bool agree = true;
      for (size_t in : n.inputs) {
        agree = agree && out_.layouts[in] == target;
      }
      if (agree) continue;
      n.widen.resize(n.width, 0);
      for (size_t i = 0; i < n.width; ++i) {
        if (all[i] && !n.widen[i]) {
          n.widen[i] = 1;
          changed = true;
        }
      }
    }
    return changed;
  }

  const bool prune_;
  std::vector<Node> nodes_;  // children first; the root is last
  ColumnLayouts out_;
};

}  // namespace

ColumnLayouts ComputeColumnLayouts(const LogicalOp& root, bool prune) {
  return Pass(root, prune).Run();
}

}  // namespace bypass
