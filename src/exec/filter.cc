#include "exec/filter.h"

namespace bypass {

Status FilterOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->num_worker_slots()));
  return Status::OK();
}

Status FilterOp::Consume(int, RowBatch batch) {
  Scratch& scratch = scratch_[static_cast<size_t>(CurrentWorkerId())];
  scratch.sel_true.clear();
  scratch.sel_true.reserve(batch.size());
  BYPASS_RETURN_IF_ERROR(predicate_->PartitionBatch(
      batch, ctx_->outer_row(), &scratch.sel_true, nullptr, nullptr));
  if (scratch.sel_true.size() == batch.size()) {
    // Nothing dropped: the selection is unchanged, so keep the batch
    // (and its dense flag) as-is instead of swapping in an equal vector.
    return Emit(kPortOut, std::move(batch));
  }
  batch.SwapSelection(&scratch.sel_true);
  return Emit(kPortOut, std::move(batch));
}

}  // namespace bypass
