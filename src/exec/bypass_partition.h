// K-way tagged bypass partition σ±[p1..pk]: one operator splits its
// input into k+1 streams. At k = 1 it is the paper's bypass selection
// σ±_p (TRUE → port 0, FALSE/UNKNOWN → port 1) and keeps that name in
// its label. Output port i < k carries the tuples whose *first* TRUE disjunct is
// p_{i+1} — i.e. the tag set {¬p1, ..., ¬p_i, p_{i+1}} of tagged
// execution (Kim & Madden, arXiv 2404.09109) — and port k carries the
// remainder, on which every disjunct was FALSE or UNKNOWN (the 3VL null
// stream stays merged into the complement, exactly like σ±'s negative
// port). Semantically equivalent to a cascade of k binary bypass
// selections over the same rank-ordered disjuncts, minus the k-1
// intermediate operator hand-offs: when all disjuncts lower to typed
// kernels the whole split is one fused ColumnarPartitionKWay call.
//
// The split is a pure partition of the worker's own selection vector
// (scratch is per worker), so concurrent morsel workers need no
// synchronization; the streams re-merge deterministically in the
// downstream union via the Emit/EmitFinish worker-order contract.
#ifndef BYPASSDB_EXEC_BYPASS_PARTITION_H_
#define BYPASSDB_EXEC_BYPASS_PARTITION_H_

#include <string>
#include <vector>

#include "exec/phys_op.h"
#include "expr/column_kernels.h"
#include "expr/expr.h"

namespace bypass {

class BypassPartitionKOp : public UnaryPhysOp {
 public:
  /// `predicates` are the rank-ordered disjuncts p1..pk (k >= 1); the
  /// operator exposes k+1 output ports, port k being the remainder.
  explicit BypassPartitionKOp(std::vector<ExprPtr> predicates);

  Status Prepare(ExecContext* ctx) override;
  Status Consume(int in_port, RowBatch batch) override;
  std::string Label() const override;

  /// The rank-ordered disjuncts; the codegen lowering pass reads them.
  const std::vector<ExprPtr>& predicates() const { return predicates_; }

 private:
  struct alignas(64) Scratch {
    std::vector<std::vector<uint32_t>> streams;  // k+1 output selections
    std::vector<RowBatch> views;                 // ports 1..k (by port)
    std::vector<std::vector<uint32_t>*> outs;    // kernel out-pointer view
    std::vector<PartitionLevel> levels;          // per-batch lowered preds
    KWayScratch kway;                            // fused-path double buffer
    std::vector<uint32_t> rest;                  // fallback undecided sel
  };

  /// Level-wise fallback when some disjunct has no typed kernel: each
  /// level runs Expr::PartitionBatch over a view of the rows still
  /// undecided, preserving per-row short-circuit semantics (a disjunct is
  /// never evaluated for a row an earlier disjunct already claimed).
  Status PartitionGeneric(const RowBatch& batch, Scratch* scratch);

  std::vector<ExprPtr> predicates_;
  std::vector<Scratch> scratch_;  // per-worker per-batch scratch
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_BYPASS_PARTITION_H_
