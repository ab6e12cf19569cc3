#include "exec/scan.h"

#include <algorithm>

#include "storage/segment.h"
#include "storage/zone_map.h"

namespace bypass {

Status TableScanOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  // Fresh caches per execution: the table may have changed between runs,
  // and stale decompressed segments must not leak across queries.
  seg_cache_.assign(static_cast<size_t>(ctx->num_worker_slots()),
                    SegmentCache{});
  return Status::OK();
}

void TableScanOp::set_decode_columns(std::vector<int> columns) {
  decode_.assign(decode_.size(), 0);
  for (int c : columns) decode_[static_cast<size_t>(c)] = 1;
}

std::string TableScanOp::Label() const {
  std::string label = "Scan(" + table_->name() + ")";
  const size_t decoded =
      static_cast<size_t>(std::count(decode_.begin(), decode_.end(), 1));
  if (decoded < decode_.size()) {
    label += " [decode " + std::to_string(decoded) + "/" +
             std::to_string(decode_.size()) + "]";
  }
  return label;
}

Status TableScanOp::EmitFlatRange(size_t begin, size_t end) {
  // Columnar scans attach the table's typed columns to every emitted
  // batch; the materialized row shim still backs the row(i) API for
  // operators not yet ported to columns.
  const std::vector<Row>& rows = table_->rows();
  const ColumnStore* columns =
      ctx_->columnar_enabled() ? &table_->columns() : nullptr;
  for (size_t b = begin; b < end; b += batch_size()) {
    if (ctx_->cancelled()) break;
    BYPASS_RETURN_IF_ERROR(ctx_->CheckBudget());
    const size_t batch_end = std::min(b + batch_size(), end);
    ExecStats* stats = ctx_->stats();
    stats->rows_scanned += static_cast<int64_t>(batch_end - b);
    if (columns != nullptr) ++stats->columnar_batches;
    RowBatch batch =
        columns != nullptr
            ? RowBatch::BorrowedColumnar(columns, &rows, b, batch_end)
            : RowBatch::Borrowed(&rows, b, batch_end);
    BYPASS_RETURN_IF_ERROR(Emit(kPortOut, std::move(batch)));
  }
  return Status::OK();
}

Status TableScanOp::EmitSegmentRange(size_t seg, size_t begin,
                                     size_t end) {
  const TableSegments& segs = table_->segments();
  const SegmentMeta& meta = segs.segments[seg];
  SegmentCache& cache =
      seg_cache_[static_cast<size_t>(CurrentWorkerId())];
  if (cache.segment != seg) {
    auto store = std::make_shared<ColumnStore>();
    auto rows = std::make_shared<std::vector<Row>>();
    BYPASS_RETURN_IF_ERROR(SegmentReader::Read(
        segs, table_->schema(), seg, store.get(), rows.get(), &decode_));
    cache.segment = seg;
    cache.store = std::move(store);
    cache.rows = std::move(rows);
  }
  const bool columnar = ctx_->columnar_enabled();
  for (size_t b = begin; b < end; b += batch_size()) {
    if (ctx_->cancelled()) break;
    BYPASS_RETURN_IF_ERROR(ctx_->CheckBudget());
    const size_t batch_end = std::min(b + batch_size(), end);
    ExecStats* stats = ctx_->stats();
    stats->rows_scanned += static_cast<int64_t>(batch_end - b);
    if (columnar) ++stats->columnar_batches;
    RowBatch batch = RowBatch::SharedColumnar(
        columnar ? cache.store : nullptr, cache.rows,
        b - meta.row_begin, batch_end - meta.row_begin);
    BYPASS_RETURN_IF_ERROR(Emit(kPortOut, std::move(batch)));
  }
  return Status::OK();
}

Status TableScanOp::RunMorsel(size_t begin, size_t end) {
  const bool use_zones =
      zone_filter_ != nullptr && ctx_->zone_maps_enabled();
  const bool seg_scan = ctx_->scan_from_segments();
  if (!use_zones && !seg_scan) return EmitFlatRange(begin, end);

  const TableSegments& segs = table_->segments();
  if (segs.num_segments() == 0) return EmitFlatRange(begin, end);
  for (size_t seg = begin / segs.rows_per_segment;
       seg < segs.num_segments(); ++seg) {
    const SegmentMeta& meta = segs.segments[seg];
    if (meta.row_begin >= end) break;
    const size_t lo = std::max(begin, meta.row_begin);
    const size_t hi = std::min(end, meta.row_begin + meta.row_count);
    if (lo >= hi) continue;
    ExecStats* stats = ctx_->stats();
    // Segment counters attribute to the morsel holding the segment's
    // first row, so they stay exact under any morsel alignment.
    const bool counts_here = lo == meta.row_begin;
    if (counts_here) ++stats->segments_scanned;
    if (use_zones && !ZoneMayBeTrue(*zone_filter_, meta)) {
      if (counts_here) ++stats->segments_skipped;
      stats->zone_skip_rows += static_cast<int64_t>(hi - lo);
      continue;
    }
    if (seg_scan) {
      BYPASS_RETURN_IF_ERROR(EmitSegmentRange(seg, lo, hi));
    } else {
      BYPASS_RETURN_IF_ERROR(EmitFlatRange(lo, hi));
    }
  }
  return Status::OK();
}

Status TableScanOp::Run() {
  BYPASS_RETURN_IF_ERROR(RunMorsel(0, num_rows()));
  return FinishSource();
}

}  // namespace bypass
