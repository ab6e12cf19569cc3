#include "types/column_vector.h"

#include <cassert>

namespace bypass {

void ColumnVector::Reserve(size_t n) {
  if (mixed_mode_) {
    mixed_.reserve(n);
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      i64_.reserve(n);
      break;
    case DataType::kDouble:
      f64_.reserve(n);
      break;
    case DataType::kBool:
      bool_.reserve(n);
      break;
    case DataType::kString:
      offsets_.reserve(n + 1);
      break;
  }
  null_words_.reserve((n + 63) / 64);
}

void ColumnVector::Clear() {
  size_ = 0;
  i64_.clear();
  f64_.clear();
  bool_.clear();
  chars_.clear();
  offsets_.clear();
  null_words_.clear();
  null_count_ = 0;
  mixed_mode_ = false;
  mixed_.clear();
}

void ColumnVector::SetNullBit(size_t i) {
  null_words_[i >> 6] |= uint64_t{1} << (i & 63);
  ++null_count_;
}

void ColumnVector::Append(const Value& v) {
  if (mixed_mode_) {
    if (v.is_null()) ++null_count_;
    mixed_.push_back(v);
    ++size_;
    return;
  }
  const size_t i = size_;
  const bool matches =
      !v.is_null() &&
      ((type_ == DataType::kInt64 && v.is_int64()) ||
       (type_ == DataType::kDouble && v.is_double()) ||
       (type_ == DataType::kBool && v.is_bool()) ||
       (type_ == DataType::kString && v.is_string()));
  if (!v.is_null() && !matches) {
    // Cross-typed datum (e.g. int64 in a kDouble column): demote the
    // whole column rather than coerce — GetValue must round-trip exactly.
    DemoteToMixed();
    Append(v);
    return;
  }
  if ((i & 63) == 0) null_words_.push_back(0);
  switch (type_) {
    case DataType::kInt64:
      i64_.push_back(v.is_null() ? 0 : v.int64_value());
      break;
    case DataType::kDouble:
      f64_.push_back(v.is_null() ? 0.0 : v.double_value());
      break;
    case DataType::kBool:
      bool_.push_back(v.is_null() ? 0 : (v.bool_value() ? 1 : 0));
      break;
    case DataType::kString:
      if (offsets_.empty()) offsets_.push_back(0);
      if (!v.is_null()) chars_.append(v.string_value());
      offsets_.push_back(chars_.size());
      break;
  }
  if (v.is_null()) SetNullBit(i);
  ++size_;
}

void ColumnVector::AppendNulls(size_t n) {
  Reserve(size_ + n);
  const Value null = Value::Null();
  for (size_t i = 0; i < n; ++i) Append(null);
}

Value ColumnVector::GetValue(size_t i) const {
  if (mixed_mode_) return mixed_[i];
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(i64_[i]);
    case DataType::kDouble:
      return Value::Double(f64_[i]);
    case DataType::kBool:
      return Value::Bool(bool_[i] != 0);
    case DataType::kString:
      return Value::String(std::string(string_at(i)));
  }
  return Value::Null();
}

void ColumnVector::DemoteToMixed() {
  std::vector<Value> values;
  values.reserve(size_ + 1);
  for (size_t i = 0; i < size_; ++i) values.push_back(GetValue(i));
  mixed_mode_ = true;
  mixed_ = std::move(values);
  i64_.clear();
  i64_.shrink_to_fit();
  f64_.clear();
  f64_.shrink_to_fit();
  bool_.clear();
  bool_.shrink_to_fit();
  chars_.clear();
  chars_.shrink_to_fit();
  offsets_.clear();
  offsets_.shrink_to_fit();
  null_words_.clear();
  null_words_.shrink_to_fit();
}

void ColumnStore::AppendRow(const Row& row) {
  assert(row.size() == columns.size());
  for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(row[c]);
  ++num_rows;
}

Row ColumnStore::MaterializeRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const ColumnVector& c : columns) row.push_back(c.GetValue(i));
  return row;
}

}  // namespace bypass
