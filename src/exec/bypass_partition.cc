#include "exec/bypass_partition.h"

#include "common/check.h"

namespace bypass {

namespace {

/// Lowers one disjunct to a typed partition level against this batch.
/// False when the predicate shape (comparison / LIKE over literals,
/// bound columns and correlated outer refs) or the operand types leave
/// no kernel to run — the caller then takes the generic per-level path.
bool BuildPartitionLevel(const Expr& pred, const RowBatch& batch,
                         const Row* outer_row, PartitionLevel* out) {
  if (pred.kind() == ExprKind::kComparison) {
    const auto& cmp = static_cast<const ComparisonExpr&>(pred);
    out->kind = PartitionLevel::Kind::kCompare;
    out->op = cmp.op();
    if (!ResolveColumnOperand(*cmp.left(), batch, outer_row, &out->l) ||
        !ResolveColumnOperand(*cmp.right(), batch, outer_row, &out->r)) {
      return false;
    }
  } else if (pred.kind() == ExprKind::kLike) {
    const auto& like = static_cast<const LikeExpr&>(pred);
    out->kind = PartitionLevel::Kind::kLike;
    if (!ResolveColumnOperand(*like.input(), batch, outer_row, &out->l)) {
      return false;
    }
    out->pattern = like.pattern();
    out->negated = like.negated();
  } else {
    return false;
  }
  return PartitionLevelApplies(*out);
}

}  // namespace

BypassPartitionKOp::BypassPartitionKOp(std::vector<ExprPtr> predicates)
    : UnaryPhysOp(static_cast<int>(predicates.size()) + 1),
      predicates_(std::move(predicates)) {
  BYPASS_CHECK_MSG(!predicates_.empty(),
                   "k-way bypass partition needs at least one disjunct");
}

Status BypassPartitionKOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->num_worker_slots()));
  const size_t k = predicates_.size();
  for (Scratch& s : scratch_) {
    s.streams.resize(k + 1);
    s.views.resize(k + 1);
    s.outs.resize(k + 1);
    for (size_t i = 0; i <= k; ++i) s.outs[i] = &s.streams[i];
  }
  return Status::OK();
}

Status BypassPartitionKOp::Consume(int, RowBatch batch) {
  const size_t k = predicates_.size();
  Scratch& scratch = scratch_[static_cast<size_t>(CurrentWorkerId())];
  for (std::vector<uint32_t>& s : scratch.streams) s.clear();

  // Fused path: every disjunct lowers to a typed level → one kernel call
  // produces all k+1 selections. Any non-kernel disjunct (subquery
  // residue, unresolved operand, non-string LIKE) drops the whole batch
  // to the level-wise generic path, which keeps identical semantics.
  bool fused = batch.columns() != nullptr;
  if (fused) {
    scratch.levels.clear();
    for (const ExprPtr& p : predicates_) {
      PartitionLevel level;
      if (!BuildPartitionLevel(*p, batch, ctx_->outer_row(), &level)) {
        fused = false;
        break;
      }
      scratch.levels.push_back(level);
    }
  }
  if (fused) {
    ColumnarPartitionKWay(scratch.levels.data(), k, batch,
                          scratch.outs.data(), &scratch.kway);
  } else {
    BYPASS_RETURN_IF_ERROR(PartitionGeneric(batch, &scratch));
  }

  ctx_->stats()->AddTaggedBatch(
      k + 1, [&](size_t i) { return scratch.streams[i].size(); });
  // Ports 1..k become views over the shared storage, built while the
  // batch still carries its dense flag; port 0 then narrows the batch
  // itself, recycling the old selection as scratch. Empty streams build
  // no view: when one port claims everything, that saves k RowBatch
  // round-trips per batch (most of the small-batch overhead at
  // batch_size=1).
  for (size_t i = 1; i <= k; ++i) {
    scratch.views[i] =
        scratch.streams[i].empty()
            ? RowBatch()
            : batch.ShareWithSelection(std::move(scratch.streams[i]));
  }
  batch.SwapSelection(&scratch.streams[0]);
  BYPASS_RETURN_IF_ERROR(Emit(kPortOut, std::move(batch)));
  for (size_t i = 1; i <= k; ++i) {
    BYPASS_RETURN_IF_ERROR(
        Emit(static_cast<int>(i), std::move(scratch.views[i])));
  }
  return Status::OK();
}

Status BypassPartitionKOp::PartitionGeneric(const RowBatch& batch,
                                            Scratch* scratch) {
  const size_t k = predicates_.size();
  const Row* outer = ctx_->outer_row();
  RowBatch sub;
  const RowBatch* cur = &batch;
  for (size_t i = 0; i < k; ++i) {
    std::vector<uint32_t>* rest;
    if (i + 1 == k) {
      rest = &scratch->streams[k];
    } else {
      scratch->rest.clear();
      rest = &scratch->rest;
    }
    BYPASS_RETURN_IF_ERROR(predicates_[i]->PartitionBatch(
        *cur, outer, &scratch->streams[i], rest, rest));
    if (i + 1 < k) {
      if (scratch->rest.empty()) {
        // Every remaining row claimed: later disjuncts see no rows (and
        // the remainder stream stays empty), matching short-circuit.
        return Status::OK();
      }
      sub = batch.ShareWithSelection(std::move(scratch->rest));
      cur = &sub;
    }
  }
  return Status::OK();
}

std::string BypassPartitionKOp::Label() const {
  if (predicates_.size() == 1) {
    return "BypassFilter± " + predicates_[0]->ToString();
  }
  std::string label =
      "BypassPartition±[k=" + std::to_string(predicates_.size()) + "]";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    label += i == 0 ? " " : " | ";
    label += predicates_[i]->ToString();
  }
  return label;
}

}  // namespace bypass
