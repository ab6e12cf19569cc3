// Selection σ_p: evaluates the predicate once per batch and narrows the
// selection vector to the rows where it is TRUE; the rows themselves
// never move. Scratch vectors are per worker, so concurrent morsel
// workers need no synchronization. The bypass selection σ±_p, which
// routes the false-or-unknown rows to a second port instead of dropping
// them, is the k = 1 case of BypassPartitionKOp (exec/bypass_partition.h).
#ifndef BYPASSDB_EXEC_FILTER_H_
#define BYPASSDB_EXEC_FILTER_H_

#include <string>
#include <vector>

#include "exec/phys_op.h"
#include "expr/expr.h"

namespace bypass {

class FilterOp : public UnaryPhysOp {
 public:
  explicit FilterOp(ExprPtr predicate)
      : predicate_(std::move(predicate)) {}

  Status Prepare(ExecContext* ctx) override;
  Status Consume(int in_port, RowBatch batch) override;
  std::string Label() const override {
    return "Filter " + predicate_->ToString();
  }
  /// The lowering passes (zone maps, codegen) inspect the predicate.
  const Expr& predicate() const { return *predicate_; }

 private:
  struct alignas(64) Scratch {
    std::vector<uint32_t> sel_true;
  };

  ExprPtr predicate_;
  std::vector<Scratch> scratch_;  // per-worker per-batch scratch
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_FILTER_H_
