#include "codegen/compiled_pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/worker_pool.h"
#include "expr/agg.h"
#include "types/column_vector.h"
#include "types/row.h"

namespace bypass {

namespace {

/// Index of the registered column carrying (slot, type), -1 when absent.
/// The lowering registered every terminal key/argument column, so -1 only
/// happens on a malformed chain — the caller then falls back per batch.
int FindSlotIndex(const std::vector<CgSlotUse>& slots, int slot,
                  DataType type) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].slot == slot && slots[i].type == type) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool NullAt(const CgCol& col, uint32_t storage_idx) {
  return col.nulls != nullptr &&
         ((col.nulls[storage_idx >> 6] >> (storage_idx & 63)) & 1ull) != 0;
}

}  // namespace

CompiledPipelineOp::CompiledPipelineOp(CompiledFnSlotPtr slot,
                                       LoweredChain chain, PhysOp* head,
                                       HashJoinOp* join,
                                       HashGroupByOp* group)
    : UnaryPhysOp(chain.num_out_ports),
      slot_(std::move(slot)),
      chain_(std::move(chain)),
      head_(head),
      join_(join),
      group_(group) {
  const ChainTerminal& t = chain_.terminal;
  if (join_ != nullptr) {
    jk_col_ = FindSlotIndex(chain_.slots, t.probe_slot, DataType::kInt64);
  }
  if (group_ != nullptr) {
    gk_col_ = FindSlotIndex(chain_.slots, t.group_slot, DataType::kInt64);
    agg_cols_.reserve(t.aggs.size());
    for (const CgAggFold& a : t.aggs) {
      agg_cols_.push_back(
          a.star ? -1 : FindSlotIndex(chain_.slots, a.slot, a.type));
    }
  }
}

Status CompiledPipelineOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->num_worker_slots()));
  // Routing terminals write one cursor per port; breakers write the two
  // columns of the pair cursor.
  const size_t cursors = IsBreakerTerminal(chain_.terminal.kind)
                             ? 2
                             : static_cast<size_t>(chain_.num_out_ports);
  for (Scratch& s : scratch_) {
    s.cursors.resize(cursors);
    s.views.resize(cursors);
    s.outs.resize(cursors);
    s.counts.resize(cursors);
    s.cols.resize(chain_.slots.size());
    // Aggregate partials never survive an execution: the group-by's maps
    // were Reset, so stale SoA entries would merge into the wrong groups.
    s.soa.clear();
  }
  // Per-execution signal that this plan's artifact was served from the
  // codegen cache rather than compiled fresh.
  if (slot_ != nullptr && slot_->ready() != nullptr && slot_->from_cache()) {
    ctx->stats()->codegen_cache_hits += 1;
  }
  return Status::OK();
}

bool CompiledPipelineOp::FillBatch(const RowBatch& batch, Scratch* s,
                                   CgBatch* cg) {
  const ColumnStore* store = batch.columns();
  if (store == nullptr) return false;
  for (size_t i = 0; i < chain_.slots.size(); ++i) {
    const CgSlotUse& use = chain_.slots[i];
    if (use.slot < 0 ||
        static_cast<size_t>(use.slot) >= store->columns.size()) {
      return false;
    }
    const ColumnVector& col = store->columns[static_cast<size_t>(use.slot)];
    // The emitted code was monomorphized on the declared type; a demoted
    // (mixed-mode) or re-typed column invalidates its raw pointers.
    if (!col.typed() || col.type() != use.type) return false;
    CgCol& out = s->cols[i];
    out = CgCol{};
    switch (use.type) {
      case DataType::kInt64:
        out.data = col.i64_data();
        break;
      case DataType::kDouble:
        out.data = col.f64_data();
        break;
      case DataType::kBool:
        out.data = col.bool_data();
        break;
      case DataType::kString:
        out.offsets = col.string_offsets();
        out.chars = col.string_chars();
        break;
      default:
        return false;
    }
    out.nulls = col.has_nulls() ? col.null_words() : nullptr;
  }
  cg->cols = s->cols.data();
  cg->sel = batch.selection().data();
  cg->n = batch.size();
  return true;
}

bool CompiledPipelineOp::PrepareViews(Scratch* s, size_t n, CgJoinView* jv,
                                      CgGroupView* gv) {
  if (join_ != nullptr) {
    if (jk_col_ < 0) return false;
    JoinHashTable::JoinInt64View v;
    // Unpublished (still building, failed budget charge, Grace mode) or
    // generic-keyed tables keep the batch on the interpreted path.
    if (!join_->codegen_view(&v) || !v.valid) return false;
    if (s->jhash.size() < n) {
      s->jhash.resize(n);
      s->jkey.resize(n);
      s->jvalid.resize(n);
    }
    jv->slots = v.slots;
    jv->mask = v.mask;
    jv->keys = v.keys;
    jv->offsets = v.offsets;
    jv->payload = v.payload;
    jv->hash_scratch = s->jhash.data();
    jv->key_scratch = s->jkey.data();
    jv->valid_scratch = s->jvalid.data();
  }
  if (group_ != nullptr) {
    if (gk_col_ < 0) return false;
    const FlatRowMap<std::unique_ptr<AggregatorSet>>::Int64SlotView v =
        group_->worker_groups(static_cast<size_t>(CurrentWorkerId()))
            ->ExportInt64View();
    // A map downgraded to generic keys (an interpreted fallback batch saw
    // a non-int64 key) can no longer be probed by the emitted loop.
    if (!v.valid) return false;
    gv->slots = v.slots;
    gv->mask = v.mask;
    gv->keys = v.keys;
    gv->num_entries = v.num_entries;
    EnsureSoA(s, v.num_entries);
    const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
    s->acc_ptrs.resize(aggs.size() * 5);
    for (size_t j = 0; j < aggs.size(); ++j) {
      AggSoA& a = s->soa[j];
      s->acc_ptrs[j * 5 + 0] = a.count.data();
      s->acc_ptrs[j * 5 + 1] = a.isum.data();
      s->acc_ptrs[j * 5 + 2] = a.dsum.data();
      s->acc_ptrs[j * 5 + 3] = aggs[j].type == DataType::kDouble
                                   ? static_cast<void*>(a.dbest.data())
                                   : static_cast<void*>(a.ibest.data());
      s->acc_ptrs[j * 5 + 4] = a.has.data();
    }
  }
  return true;
}

void CompiledPipelineOp::EnsureSoA(Scratch* s, size_t entries) {
  const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
  if (s->soa.size() != aggs.size()) {
    s->soa.assign(aggs.size(), AggSoA{});
  }
  if (aggs.empty()) return;
  const size_t cur = s->soa[0].count.size();
  if (cur >= entries) return;
  // Grow geometrically: phase-B inserts extend one entry at a time and a
  // per-insert exact resize would be quadratic.
  size_t cap = cur == 0 ? 16 : cur;
  while (cap < entries) cap *= 2;
  for (AggSoA& a : s->soa) {
    a.count.resize(cap, 0);
    a.isum.resize(cap, 0);
    a.dsum.resize(cap, 0.0);
    a.ibest.resize(cap, 0);
    a.dbest.resize(cap, 0.0);
    a.has.resize(cap, 0);
  }
}

void CompiledPipelineOp::FoldInto(Scratch* s, size_t j, uint32_t idx,
                                  const CgCol& col, uint32_t rr,
                                  uint32_t mult) {
  const CgAggFold& a = chain_.terminal.aggs[j];
  AggSoA& soa = s->soa[j];
  if (a.star) {
    // COUNT(*): one per join match.
    soa.count[idx] += static_cast<int64_t>(mult);
    return;
  }
  if (NullAt(col, rr)) return;
  switch (a.func) {
    case AggFunc::kCount:
      soa.count[idx] += static_cast<int64_t>(mult);
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      // Repeated adds, not multiplication: the double component must see
      // the same sequence of roundings as the emitted loop and the
      // interpreter's per-output-row folds.
      if (a.type == DataType::kInt64) {
        const int64_t v = static_cast<const int64_t*>(col.data)[rr];
        for (uint32_t t = 0; t < mult; ++t) {
          soa.count[idx] += 1;
          soa.isum[idx] += v;
          soa.dsum[idx] += static_cast<double>(v);
        }
      } else {
        const double v = static_cast<const double*>(col.data)[rr];
        for (uint32_t t = 0; t < mult; ++t) {
          soa.count[idx] += 1;
          soa.dsum[idx] += v;
        }
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      // Idempotent under multiplicity; adopt-then-raw-compare matches
      // OrderCompare (a NaN never replaces an adopted extreme).
      if (a.type == DataType::kInt64) {
        const int64_t v = static_cast<const int64_t*>(col.data)[rr];
        if (soa.has[idx] == 0) {
          soa.ibest[idx] = v;
          soa.has[idx] = 1;
        } else if (a.func == AggFunc::kMin ? v < soa.ibest[idx]
                                           : v > soa.ibest[idx]) {
          soa.ibest[idx] = v;
        }
      } else {
        const double v = static_cast<const double*>(col.data)[rr];
        if (soa.has[idx] == 0) {
          soa.dbest[idx] = v;
          soa.has[idx] = 1;
        } else if (a.func == AggFunc::kMin ? v < soa.dbest[idx]
                                           : v > soa.dbest[idx]) {
          soa.dbest[idx] = v;
        }
      }
      break;
  }
}

void CompiledPipelineOp::SizeCursors(Scratch* s, size_t n) {
  for (size_t p = 0; p < s->cursors.size(); ++p) {
    if (s->cursors[p].size() < n) s->cursors[p].resize(n);
    s->outs[p] = s->cursors[p].data();
  }
}

Status CompiledPipelineOp::Route(RowBatch batch, Scratch& s) {
  // The interpreter's emission discipline (BypassPartitionKOp): ports
  // 1..k become views while the batch still carries its dense flag, then
  // port 0 narrows the batch itself, recycling the old selection as the
  // next batch's cursor. A filter-survivors terminal has port 0 only.
  const size_t ports = static_cast<size_t>(chain_.num_out_ports);
  ctx_->stats()->AddTaggedBatch(ports,
                                [&s](size_t i) { return s.counts[i]; });
  for (size_t i = 1; i < ports; ++i) {
    s.views[i] = s.counts[i] == 0
                     ? RowBatch()
                     : batch.ShareWithSelection(std::vector<uint32_t>(
                           s.cursors[i].begin(),
                           s.cursors[i].begin() +
                               static_cast<ptrdiff_t>(s.counts[i])));
  }
  s.cursors[0].resize(s.counts[0]);
  batch.SwapSelection(&s.cursors[0]);
  BYPASS_RETURN_IF_ERROR(Emit(kPortOut, std::move(batch)));
  for (size_t i = 1; i < ports; ++i) {
    BYPASS_RETURN_IF_ERROR(Emit(static_cast<int>(i), std::move(s.views[i])));
  }
  return Status::OK();
}

Status CompiledPipelineOp::EmitProbePairs(const RowBatch& batch,
                                          Scratch& s, CgRunFn run,
                                          const CgBatch& cg,
                                          const CgJoinView& jv) {
  // Resume protocol: the emitted loop stops at a row boundary when the
  // next row's matches would overflow the pair cursor; drain what it
  // wrote and re-enter at counts[1]. Zero progress means a single row
  // outgrew the cursor — double and retry (pass 1 only re-runs in the
  // start_row == 0 retry, where it is idempotent).
  const std::vector<Row>& build = join_->build_rows();
  uint64_t start = 0;
  for (;;) {
    run(&cg, &jv, nullptr, nullptr, s.outs.data(), s.cursors[0].size(),
        start, s.counts.data());
    if (s.counts[0] > 0) {
      std::vector<Row> rows;
      rows.reserve(s.counts[0]);
      for (uint64_t k = 0; k < s.counts[0]; ++k) {
        rows.push_back(join_->keep().Concat(
            batch.storage_row(cg.sel[s.cursors[0][k]]),
            build[s.cursors[1][k]]));
      }
      BYPASS_RETURN_IF_ERROR(
          Emit(kPortOut, RowBatch::FromRows(std::move(rows))));
    }
    if (s.counts[1] >= cg.n) return Status::OK();
    if (s.counts[1] == start) {
      SizeCursors(&s, s.cursors[0].size() * 2);
      continue;
    }
    start = s.counts[1];
  }
}

void CompiledPipelineOp::FoldMisses(Scratch& s, const CgBatch& cg,
                                    uint64_t misses) {
  // Phase B: rows whose group missed the per-worker snapshot. Insert the
  // group (dense entry index addresses the SoA) and fold with the row's
  // match multiplicity — pairs arrive in row order, and a key can only
  // miss once per batch, so per-group fold order equals the
  // interpreter's row order.
  if (misses == 0) return;
  HashGroupByOp::GroupMap* gm =
      group_->worker_groups(static_cast<size_t>(CurrentWorkerId()));
  const std::vector<AggregateSpec>* specs = group_->aggregates();
  const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
  const CgCol& kc = s.cols[static_cast<size_t>(gk_col_)];
  for (uint64_t k = 0; k < misses; ++k) {
    const uint32_t rr = cg.sel[s.cursors[0][k]];
    const uint32_t mult = s.cursors[1][k];
    const bool knull = NullAt(kc, rr);
    const int64_t kv = knull ? 0 : static_cast<const int64_t*>(kc.data)[rr];
    const uint32_t idx = gm->FindOrEmplaceInt64Idx(kv, knull, [&] {
      return std::make_unique<AggregatorSet>(specs);
    });
    if (!aggs.empty() && static_cast<size_t>(idx) >= s.soa[0].count.size()) {
      EnsureSoA(&s, static_cast<size_t>(idx) + 1);
    }
    for (size_t j = 0; j < aggs.size(); ++j) {
      FoldInto(&s, j, idx,
               aggs[j].star ? CgCol{}
                            : s.cols[static_cast<size_t>(agg_cols_[j])],
               rr, mult);
    }
  }
}

void CompiledPipelineOp::AbsorbSoA() {
  const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
  const size_t workers = std::min(scratch_.size(), group_->num_partials());
  for (size_t w = 0; w < workers; ++w) {
    Scratch& s = scratch_[w];
    if (s.soa.empty()) continue;
    std::vector<HashGroupByOp::GroupMap::Entry>& entries =
        group_->worker_groups(w)->mutable_entries();
    for (size_t j = 0; j < aggs.size(); ++j) {
      const AggSoA& a = s.soa[j];
      const size_t m = std::min(a.count.size(), entries.size());
      for (size_t idx = 0; idx < m; ++idx) {
        const int64_t cnt = a.count[idx];
        const bool has = a.has[idx] != 0;
        if (cnt == 0 && !has) continue;  // nothing folded for this group
        Value extreme = Value::Null();
        if (has) {
          extreme = aggs[j].type == DataType::kDouble
                        ? Value::Double(a.dbest[idx])
                        : Value::Int64(a.ibest[idx]);
        }
        // The interpreter only flags a double sum per non-null input, so
        // an untouched group must not adopt the double representation.
        const bool sum_is_double =
            aggs[j].type == DataType::kDouble &&
            (aggs[j].func == AggFunc::kSum ||
             aggs[j].func == AggFunc::kAvg) &&
            cnt > 0;
        entries[idx].value->mutable_agg(j).MergeCompiledPartial(
            cnt, a.isum[idx], a.dsum[idx], sum_is_double, extreme);
      }
    }
    s.soa.clear();
  }
}

Status CompiledPipelineOp::Consume(int, RowBatch batch) {
  const CompiledArtifact* artifact =
      slot_ != nullptr ? slot_->ready() : nullptr;
  Scratch& s = scratch_[static_cast<size_t>(CurrentWorkerId())];
  CgBatch cg;
  CgJoinView jv{};
  CgGroupView gv{};
  if (artifact == nullptr || !FillBatch(batch, &s, &cg) ||
      !PrepareViews(&s, batch.size(), &jv, &gv)) {
    // Still compiling, compile failed, a per-batch guard said no, or a
    // fused breaker's hash structure is not probe-able (unpublished join
    // view, demoted group map): the interpreted chain — which ends in the
    // same terminal and feeds the same consumers — handles this batch.
    ctx_->stats()->compiled_fallback_batches += 1;
    return head_->Consume(0, std::move(batch));
  }
  ExecStats* stats = ctx_->stats();
  stats->compiled_batches += 1;
  const CgRunFn run = artifact->run();
  SizeCursors(&s, cg.n);
  switch (chain_.terminal.kind) {
    case ChainTerminalKind::kFilter:
    case ChainTerminalKind::kPartitionK:
      run(&cg, nullptr, nullptr, nullptr, s.outs.data(), cg.n, 0,
          s.counts.data());
      return Route(std::move(batch), s);
    case ChainTerminalKind::kJoinProbe:
      stats->compiled_join_batches += 1;
      return EmitProbePairs(batch, s, run, cg, jv);
    case ChainTerminalKind::kGroupBy:
    case ChainTerminalKind::kJoinGroupBy:
      // At most one miss pair per row, so the batch-sized cursor never
      // overflows and a single call consumes every row.
      run(&cg, &jv, &gv, s.acc_ptrs.data(), s.outs.data(), cg.n, 0,
          s.counts.data());
      FoldMisses(s, cg, s.counts[0]);
      stats->compiled_agg_batches += 1;
      if (chain_.terminal.kind == ChainTerminalKind::kJoinGroupBy) {
        stats->compiled_join_batches += 1;
      }
      return Status::OK();
  }
  return Status::OK();
}

Status CompiledPipelineOp::FinishPort(int) {
  // A fused accumulate loop's partials must land in the group-by's
  // worker AggregatorSets before end-of-stream reaches its merge (which
  // runs through the interpreted chain below).
  if (group_ != nullptr) AbsorbSoA();
  // End-of-stream always flows through the interpreted chain: its
  // terminal still owns the consumer edges and sends the single finish
  // per port. Emitting a second finish here would double-close the
  // consumers.
  return head_->FinishPort(0);
}

std::string CompiledPipelineOp::Label() const {
  return "CompiledPipeline[" + chain_.summary + "] → " + head_->Label();
}

}  // namespace bypass
