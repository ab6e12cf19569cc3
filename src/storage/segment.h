// Compressed column segments. A table's ColumnStore is partitioned into
// fixed-size row ranges (~64K rows by default); each (segment, column)
// pair is encoded independently with the cheapest scheme that fits the
// data: run-length encoding for low-NDV columns, frame-of-reference
// bit-packing for int64/bool ranges, raw 64-bit words for incompressible
// numerics (doubles keep their exact bit patterns, -0.0 and NaN
// included), a sorted dictionary for arena strings, and an exact Value
// vector for mixed-mode columns. NULLs are carried in a per-segment
// bitmap copied from the source column; their placeholder slots encode
// as ordinary zeros so decode round-trips the ColumnVector exactly.
//
// SegmentReader decompresses one segment at a time into a fresh
// ColumnStore + row shim, which the scan wraps in shared-ownership
// batches — downstream operators may retain those batches after the
// scan's per-worker cache moves on to the next segment.
#ifndef BYPASSDB_STORAGE_SEGMENT_H_
#define BYPASSDB_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/zone_map.h"
#include "types/column_vector.h"
#include "types/row.h"
#include "types/schema.h"

namespace bypass {

/// Default segment granularity (rows). Tests shrink it to exercise many
/// segments over small tables.
inline constexpr size_t kDefaultRowsPerSegment = 64 * 1024;

enum class SegmentEncoding : uint8_t {
  kRaw64,       ///< raw 64-bit words (int64 / bit-cast double)
  kFor,         ///< frame-of-reference bit-packed int64 (bool: base 0)
  kRle,         ///< run-length over 64-bit raw values
  kDict,        ///< dictionary-coded strings, bit-packed codes
  kPlainValues, ///< mixed-mode fallback: exact Values
};

/// One column of one segment in encoded form.
struct ColumnSegment {
  SegmentEncoding encoding = SegmentEncoding::kPlainValues;
  DataType type = DataType::kInt64;
  uint32_t row_count = 0;
  uint32_t null_count = 0;
  std::vector<uint64_t> null_words;  ///< empty when null_count == 0

  // kFor and kDict code stream: value i = base + Unpack(packed, i, bits)
  // (kDict: code i indexes the dictionary; base unused).
  int64_t base = 0;
  uint8_t bits = 0;
  std::vector<uint64_t> packed;

  std::vector<uint64_t> raw;  ///< kRaw64

  struct Run {
    uint64_t value;
    uint32_t length;
  };
  std::vector<Run> runs;  ///< kRle

  std::string dict_chars;              ///< kDict arena
  std::vector<uint32_t> dict_offsets;  ///< kDict, ndv + 1 entries

  std::vector<Value> values;  ///< kPlainValues

  /// Approximate heap footprint of the encoded form.
  size_t MemoryBytes() const;
};

/// The segment index of one table: zone-map metadata plus the encoded
/// columns, segment-major.
struct TableSegments {
  size_t rows_per_segment = kDefaultRowsPerSegment;
  size_t num_rows = 0;
  std::vector<SegmentMeta> segments;
  /// columns[s][c]: column c of segment s.
  std::vector<std::vector<ColumnSegment>> columns;

  size_t num_segments() const { return segments.size(); }
  /// Total encoded footprint across all segments.
  size_t compressed_bytes() const;
};

/// Builds the segment index (zone maps + encoded columns) over `store`.
TableSegments BuildTableSegments(const Schema& schema,
                                 const ColumnStore& store,
                                 size_t rows_per_segment);

/// Bit-packing primitives shared with tests: `bits` in [0, 64].
void PackBits(const uint64_t* values, size_t n, uint8_t bits,
              std::vector<uint64_t>* out);
uint64_t UnpackBits(const std::vector<uint64_t>& packed, size_t i,
                    uint8_t bits);

class SegmentReader {
 public:
  /// Decompresses segment `seg` of `segs` into `store` (typed columns
  /// recreated per `schema`) and, when `rows` is non-null, materializes
  /// the segment's row shim. Exact round-trip of the source rows. With
  /// `decode` (one flag per column), unflagged columns are not decoded:
  /// they read as all-NULL, keeping the column layout.
  static Status Read(const TableSegments& segs, const Schema& schema,
                     size_t seg, ColumnStore* store,
                     std::vector<Row>* rows,
                     const std::vector<char>* decode = nullptr);
};

}  // namespace bypass

#endif  // BYPASSDB_STORAGE_SEGMENT_H_
