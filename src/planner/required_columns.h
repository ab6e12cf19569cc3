// Required-columns pass (column pruning). Walks a logical bypass DAG
// top-down and derives, for every node, which columns of its output some
// consumer actually reads; a shared bypass node gets the union over all
// of its consumers and ports. From those demands it fixes each node's
// physical layout — the subset of its logical schema its rows carry:
//
//   * scans stay full width (zero-copy), but record which columns their
//     consumers read so segment scans decode only those;
//   * joins keep only demanded columns (plus the columns of a predicate
//     evaluated on the joined row), so their row-building copies shrink;
//   * Π/χ items nobody reads are dropped unless they embed a subquery;
//   * every other operator passes its input layout through.
//
// Duplicate-sensitive consumers (Distinct, COUNT(DISTINCT *), binary Γ
// over DISTINCT *) demand every input column, and a correlated
// subquery's outer references are demanded from the input of the
// operator that evaluates it. Union inputs must agree positionally; a
// mismatch widens the union's demand to the union of its inputs'
// layouts until every input produces the same one (DESIGN.md §13).
#ifndef BYPASSDB_PLANNER_REQUIRED_COLUMNS_H_
#define BYPASSDB_PLANNER_REQUIRED_COLUMNS_H_

#include <unordered_map>
#include <vector>

#include "algebra/logical_op.h"

namespace bypass {

/// Equi-join decomposition: conjuncts of the form left_col = right_col
/// become hash keys; everything else is a residual predicate evaluated on
/// the joined row. Shared by the pass (which keeps residual columns in a
/// join's output) and the lowering (which picks hash vs nested loops).
struct EquiSplit {
  std::vector<int> left_slots;
  std::vector<int> right_slots;
  std::vector<ExprPtr> residual_conjuncts;  // unbound
};
EquiSplit SplitEquiPred(const ExprPtr& pred, const Schema& left,
                        const Schema& right);

struct ColumnLayouts {
  /// Dense node numbering (children first) indexing the vectors below.
  std::unordered_map<const LogicalOp*, size_t> index;
  /// Per node: ascending positions of node->schema() that its physical
  /// output rows carry, in that order.
  std::vector<std::vector<int>> layouts;
  /// Per Get node: ascending positions its consumers read — the columns
  /// a segment scan must decode (the rest stay NULL). Empty otherwise.
  std::vector<std::vector<int>> reads;

  const std::vector<int>& of(const LogicalOp* node) const {
    return layouts[index.at(node)];
  }
  const std::vector<int>& read_by_consumers(const LogicalOp* node) const {
    return reads[index.at(node)];
  }
};

/// Runs the pass over the plan rooted at `root` (every root column is
/// demanded). With `prune` false every layout is the full logical
/// schema — the unpruned reference lowering.
ColumnLayouts ComputeColumnLayouts(const LogicalOp& root, bool prune);

}  // namespace bypass

#endif  // BYPASSDB_PLANNER_REQUIRED_COLUMNS_H_
