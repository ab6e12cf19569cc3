#include "storage/segment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <string_view>

namespace bypass {

namespace {

uint64_t BitCast64(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

double BitCastDouble(uint64_t v) {
  double out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

size_t CountRuns(const std::vector<uint64_t>& raw) {
  size_t runs = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (i == 0 || raw[i] != raw[i - 1]) ++runs;
  }
  return runs;
}

void EncodeRle(const std::vector<uint64_t>& raw, ColumnSegment* out) {
  out->encoding = SegmentEncoding::kRle;
  for (uint64_t v : raw) {
    if (!out->runs.empty() && out->runs.back().value == v &&
        out->runs.back().length < UINT32_MAX) {
      ++out->runs.back().length;
    } else {
      out->runs.push_back({v, 1});
    }
  }
}

/// Encodes a 64-bit raw stream as RLE, frame-of-reference, or raw words —
/// whichever is smallest. `allow_for` is false for doubles, whose bit
/// patterns gain nothing from subtracting a base.
void EncodeWords(const std::vector<uint64_t>& raw, bool allow_for,
                 ColumnSegment* out) {
  const size_t n = raw.size();
  const size_t rle_bytes = CountRuns(raw) * sizeof(ColumnSegment::Run);
  const size_t raw_bytes = n * sizeof(uint64_t);
  uint8_t for_bits = 64;
  int64_t for_base = 0;
  size_t for_bytes = SIZE_MAX;
  if (allow_for && n > 0) {
    int64_t lo = static_cast<int64_t>(raw[0]);
    int64_t hi = lo;
    for (uint64_t w : raw) {
      const int64_t v = static_cast<int64_t>(w);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // Wrap-safe unsigned delta; covers the full signed range.
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    for_bits = static_cast<uint8_t>(std::bit_width(range));
    for_base = lo;
    if (for_bits < 64) {
      for_bytes = ((n * for_bits + 63) / 64) * sizeof(uint64_t);
    }
  }
  if (rle_bytes <= std::min(for_bytes, raw_bytes)) {
    EncodeRle(raw, out);
  } else if (for_bytes < raw_bytes) {
    out->encoding = SegmentEncoding::kFor;
    out->base = for_base;
    out->bits = for_bits;
    std::vector<uint64_t> deltas(n);
    for (size_t i = 0; i < n; ++i) {
      deltas[i] = raw[i] - static_cast<uint64_t>(for_base);
    }
    PackBits(deltas.data(), n, for_bits, &out->packed);
  } else {
    out->encoding = SegmentEncoding::kRaw64;
    out->raw = raw;
  }
}

void EncodeStrings(const ColumnVector& col, size_t begin, size_t n,
                   ColumnSegment* out) {
  out->encoding = SegmentEncoding::kDict;
  // Sorted-unique dictionary over the segment's non-NULL strings; NULL
  // rows take code 0 (masked by the bitmap on decode).
  std::map<std::string_view, uint64_t> dict;
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsNull(begin + i)) dict.emplace(col.string_at(begin + i), 0);
  }
  out->dict_offsets.reserve(dict.size() + 1);
  out->dict_offsets.push_back(0);
  uint64_t code = 0;
  for (auto& [sv, c] : dict) {
    c = code++;
    out->dict_chars.append(sv);
    out->dict_offsets.push_back(
        static_cast<uint32_t>(out->dict_chars.size()));
  }
  const uint64_t ndv = code;
  out->bits =
      static_cast<uint8_t>(ndv > 1 ? std::bit_width(ndv - 1) : 0);
  std::vector<uint64_t> codes(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsNull(begin + i)) {
      codes[i] = dict.find(col.string_at(begin + i))->second;
    }
  }
  PackBits(codes.data(), n, out->bits, &out->packed);
}

/// Running min/max over exact Values; total-ordered per type because a
/// typed segment's non-NULL values share one dynamic type.
struct ZoneTracker {
  bool any = false;
  Value min, max;

  void Track(Value v) {
    if (!any) {
      min = v;
      max = std::move(v);
      any = true;
      return;
    }
    if (v.OrderCompare(min) < 0) {
      min = std::move(v);
    } else if (v.OrderCompare(max) > 0) {
      max = std::move(v);
    }
  }
};

ColumnSegment EncodeColumn(const ColumnVector& col, size_t begin,
                           size_t n, ColumnZone* zone) {
  ColumnSegment out;
  out.type = col.type();
  out.row_count = static_cast<uint32_t>(n);
  ZoneTracker tracker;

  if (!col.typed()) {
    out.encoding = SegmentEncoding::kPlainValues;
    out.values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Value v = col.GetValue(begin + i);
      if (v.is_null()) ++out.null_count;
      out.values.push_back(std::move(v));
    }
    zone->null_count = out.null_count;
    zone->untracked = true;  // mixed dynamic types: no range claims
    return out;
  }

  out.null_words.assign((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) {
    if (col.IsNull(begin + i)) {
      out.null_words[i >> 6] |= uint64_t{1} << (i & 63);
      ++out.null_count;
    }
  }
  if (out.null_count == 0) out.null_words.clear();

  if (col.type() == DataType::kString) {
    EncodeStrings(col, begin, n, &out);
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(begin + i)) {
        tracker.Track(Value::String(std::string(col.string_at(begin + i))));
      }
    }
  } else {
    std::vector<uint64_t> raw(n);
    bool has_nan = false;
    switch (col.type()) {
      case DataType::kInt64:
        for (size_t i = 0; i < n; ++i) {
          raw[i] = static_cast<uint64_t>(col.i64_data()[begin + i]);
          if (!col.IsNull(begin + i)) {
            tracker.Track(Value::Int64(col.i64_data()[begin + i]));
          }
        }
        break;
      case DataType::kDouble:
        for (size_t i = 0; i < n; ++i) {
          const double d = col.f64_data()[begin + i];
          raw[i] = BitCast64(d);
          if (!col.IsNull(begin + i)) {
            if (std::isnan(d)) has_nan = true;
            tracker.Track(Value::Double(d));
          }
        }
        break;
      case DataType::kBool:
        for (size_t i = 0; i < n; ++i) {
          raw[i] = col.bool_data()[begin + i] != 0 ? 1 : 0;
          if (!col.IsNull(begin + i)) {
            tracker.Track(Value::Bool(col.bool_data()[begin + i] != 0));
          }
        }
        break;
      case DataType::kString:
        break;  // handled above
    }
    EncodeWords(raw, col.type() != DataType::kDouble, &out);
    // NaN makes double min/max ordering unreliable for range proofs.
    if (has_nan) zone->untracked = true;
  }

  zone->null_count = out.null_count;
  if (tracker.any && !zone->untracked) {
    zone->min = std::move(tracker.min);
    zone->max = std::move(tracker.max);
  }
  return out;
}

}  // namespace

void PackBits(const uint64_t* values, size_t n, uint8_t bits,
              std::vector<uint64_t>* out) {
  if (bits == 0) {
    out->clear();
    return;
  }
  out->assign((n * bits + 63) / 64, 0);
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = values[i] & mask;
    const size_t bit = i * bits;
    (*out)[bit >> 6] |= v << (bit & 63);
    if ((bit & 63) + bits > 64) {
      (*out)[(bit >> 6) + 1] |= v >> (64 - (bit & 63));
    }
  }
}

uint64_t UnpackBits(const std::vector<uint64_t>& packed, size_t i,
                    uint8_t bits) {
  if (bits == 0) return 0;
  const size_t bit = i * bits;
  uint64_t v = packed[bit >> 6] >> (bit & 63);
  if ((bit & 63) + bits > 64) {
    v |= packed[(bit >> 6) + 1] << (64 - (bit & 63));
  }
  if (bits == 64) return v;
  return v & ((uint64_t{1} << bits) - 1);
}

size_t ColumnSegment::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += null_words.size() * sizeof(uint64_t);
  bytes += packed.size() * sizeof(uint64_t);
  bytes += raw.size() * sizeof(uint64_t);
  bytes += runs.size() * sizeof(Run);
  bytes += dict_chars.size();
  bytes += dict_offsets.size() * sizeof(uint32_t);
  for (const Value& v : values) {
    bytes += sizeof(Value) + (v.is_string() ? v.string_value().size() : 0);
  }
  return bytes;
}

size_t TableSegments::compressed_bytes() const {
  size_t bytes = 0;
  for (const auto& seg : columns) {
    for (const ColumnSegment& cs : seg) bytes += cs.MemoryBytes();
  }
  return bytes;
}

TableSegments BuildTableSegments(const Schema& schema,
                                 const ColumnStore& store,
                                 size_t rows_per_segment) {
  TableSegments out;
  out.rows_per_segment = std::max<size_t>(1, rows_per_segment);
  out.num_rows = store.num_rows;
  const size_t num_cols = store.columns.size();
  for (size_t begin = 0; begin < store.num_rows;
       begin += out.rows_per_segment) {
    const size_t n =
        std::min(out.rows_per_segment, store.num_rows - begin);
    SegmentMeta meta;
    meta.row_begin = begin;
    meta.row_count = n;
    meta.zones.resize(num_cols);
    std::vector<ColumnSegment> encoded;
    encoded.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      encoded.push_back(
          EncodeColumn(store.columns[c], begin, n, &meta.zones[c]));
    }
    out.segments.push_back(std::move(meta));
    out.columns.push_back(std::move(encoded));
  }
  (void)schema;
  return out;
}

Status SegmentReader::Read(const TableSegments& segs, const Schema& schema,
                           size_t seg, ColumnStore* store,
                           std::vector<Row>* rows,
                           const std::vector<char>* decode) {
  if (seg >= segs.num_segments()) {
    return Status::Internal("segment index out of range");
  }
  const SegmentMeta& meta = segs.segments[seg];
  const size_t n = meta.row_count;
  store->columns.clear();
  store->columns.reserve(static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    store->columns.emplace_back(schema.column(c).type);
  }
  store->num_rows = n;
  if (segs.columns[seg].size() != store->columns.size()) {
    return Status::Internal("segment/schema column count mismatch");
  }
  for (size_t c = 0; c < store->columns.size(); ++c) {
    const ColumnSegment& cs = segs.columns[seg][c];
    ColumnVector& out = store->columns[c];
    if (decode != nullptr && (*decode)[c] == 0) {
      out.AppendNulls(n);
      continue;
    }
    out.Reserve(n);
    const auto is_null = [&cs](size_t i) {
      return cs.null_count > 0 &&
             ((cs.null_words[i >> 6] >> (i & 63)) & uint64_t{1}) != 0;
    };
    switch (cs.encoding) {
      case SegmentEncoding::kPlainValues:
        for (size_t i = 0; i < n; ++i) out.Append(cs.values[i]);
        break;
      case SegmentEncoding::kDict:
        for (size_t i = 0; i < n; ++i) {
          if (is_null(i)) {
            out.Append(Value::Null());
            continue;
          }
          const uint64_t code = UnpackBits(cs.packed, i, cs.bits);
          const uint32_t lo = cs.dict_offsets[code];
          const uint32_t hi = cs.dict_offsets[code + 1];
          out.Append(Value::String(
              cs.dict_chars.substr(lo, hi - lo)));
        }
        break;
      case SegmentEncoding::kRaw64:
      case SegmentEncoding::kFor:
      case SegmentEncoding::kRle: {
        std::vector<uint64_t> words;
        if (cs.encoding == SegmentEncoding::kRaw64) {
          words = cs.raw;
        } else if (cs.encoding == SegmentEncoding::kFor) {
          words.resize(n);
          for (size_t i = 0; i < n; ++i) {
            words[i] = static_cast<uint64_t>(cs.base) +
                       UnpackBits(cs.packed, i, cs.bits);
          }
        } else {
          words.reserve(n);
          for (const ColumnSegment::Run& run : cs.runs) {
            words.insert(words.end(), run.length, run.value);
          }
        }
        if (words.size() != n) {
          return Status::Internal("segment decode length mismatch");
        }
        for (size_t i = 0; i < n; ++i) {
          if (is_null(i)) {
            out.Append(Value::Null());
          } else if (cs.type == DataType::kInt64) {
            out.Append(Value::Int64(static_cast<int64_t>(words[i])));
          } else if (cs.type == DataType::kDouble) {
            out.Append(Value::Double(BitCastDouble(words[i])));
          } else {
            out.Append(Value::Bool(words[i] != 0));
          }
        }
        break;
      }
    }
  }
  if (rows != nullptr) {
    rows->clear();
    rows->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows->push_back(store->MaterializeRow(i));
    }
  }
  return Status::OK();
}

}  // namespace bypass
