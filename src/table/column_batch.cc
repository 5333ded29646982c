#include "table/column_batch.h"

#include "common/status_macros.h"

namespace sqlink {

Value ColumnValueAt(const Column& col, size_t row) {
  if (col.IsNull(row)) return Value::Null();
  switch (col.type) {
    case DataType::kBool:
      return Value::Bool(col.bools[row] != 0);
    case DataType::kInt64:
      return Value::Int64(col.ints[row]);
    case DataType::kDouble:
      return Value::Double(col.doubles[row]);
    case DataType::kString:
      return Value::String(std::string(col.dict[col.codes[row]]));
  }
  return Value::Null();
}

namespace {

/// OK when `v` may be stored in a column of `type`: NULL anywhere, int64
/// also in a double column, otherwise the exact type.
Status CheckColumnValue(DataType type, const Value& v,
                        const std::string& column_name) {
  if (v.is_null()) return Status::OK();
  switch (type) {
    case DataType::kBool:
      if (!v.is_bool()) {
        return Status::InvalidArgument("non-bool value in BOOL column '" +
                                       column_name + "'");
      }
      break;
    case DataType::kInt64:
      if (!v.is_int64()) {
        return Status::InvalidArgument("non-integer value in INT64 column '" +
                                       column_name + "'");
      }
      break;
    case DataType::kDouble:
      if (!v.is_double() && !v.is_int64()) {
        return Status::InvalidArgument("non-numeric value in DOUBLE column '" +
                                       column_name + "'");
      }
      break;
    case DataType::kString:
      if (!v.is_string()) {
        return Status::InvalidArgument("non-string value in STRING column '" +
                                       column_name + "'");
      }
      break;
  }
  return Status::OK();
}

/// Appends the codes of `n` rows of the string column `src`, row i being
/// `src` row `row_at(i)`, and adds the entries they reference to `dst`'s
/// dictionary.
template <typename RowAt>
void AppendStringCodes(Column* dst, const Column& src, size_t n,
                       RowAt row_at) {
  dst->codes.reserve(dst->codes.size() + n);
  const auto entries = static_cast<size_t>(src.dict.size());
  if (entries > n) {
    // A dictionary larger than the rows taken (a chunk gathered or sliced
    // out of a big batch): add only the referenced entries, so the result's
    // dictionary stays proportional to its rows.
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row_at(i);
      dst->codes.push_back(
          src.IsNull(r) ? 0 : dst->dict.GetOrAdd(src.dict[src.codes[r]]));
    }
    return;
  }
  if (dst->codes.empty() && dst->dict.empty()) {
    // Fresh destination: share the (no larger than the rows) dictionary
    // wholesale and copy the codes.
    dst->dict = src.dict;
    for (size_t i = 0; i < n; ++i) dst->codes.push_back(src.codes[row_at(i)]);
    return;
  }
  // Translate per dictionary entry once, then per row.
  std::vector<int32_t> remap(entries);
  for (size_t id = 0; id < entries; ++id) {
    remap[id] = dst->dict.GetOrAdd(src.dict[static_cast<int32_t>(id)]);
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t r = row_at(i);
    const auto code = static_cast<size_t>(src.codes[r]);
    dst->codes.push_back(!src.IsNull(r) && code < entries ? remap[code] : 0);
  }
}

}  // namespace

Status AppendColumnValue(Column* col, size_t row, const Value& v,
                         const std::string& column_name) {
  RETURN_IF_ERROR(CheckColumnValue(col->type, v, column_name));
  const bool null = v.is_null();
  col->AppendNullBit(row, null);
  switch (col->type) {
    case DataType::kBool:
      col->bools.push_back(!null && v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      col->ints.push_back(null ? 0 : v.int64_value());
      break;
    case DataType::kDouble:
      col->doubles.push_back(
          null ? 0.0
               : v.is_int64() ? static_cast<double>(v.int64_value())
                              : v.double_value());
      break;
    case DataType::kString:
      col->codes.push_back(null ? 0 : col->dict.GetOrAdd(v.string_value()));
      break;
  }
  return Status::OK();
}

void AppendNullWords(std::vector<uint64_t>* dst, size_t dst_rows,
                     const std::vector<uint64_t>& src, size_t src_begin,
                     size_t n) {
  const size_t words = (dst_rows + n + 63) / 64;
  if (dst->size() < words) dst->resize(words, 0);
  const size_t dst_shift = dst_rows & 63;
  const size_t src_shift = src_begin & 63;
  for (size_t done = 0; done < n; done += 64) {
    // Source bits [src_begin + done, +64), realigned to bit 0 ...
    const size_t s = (src_begin + done) >> 6;
    uint64_t bits = s < src.size() ? src[s] >> src_shift : 0;
    if (src_shift != 0 && s + 1 < src.size()) {
      bits |= src[s + 1] << (64 - src_shift);
    }
    // ... cut to the rows being appended, so bits past the new row count
    // stay zero ...
    if (n - done < 64) bits &= (uint64_t{1} << (n - done)) - 1;
    if (bits == 0) continue;
    // ... and or-ed in at the destination's bit offset.
    const size_t d = (dst_rows + done) >> 6;
    (*dst)[d] |= bits << dst_shift;
    if (dst_shift != 0 && d + 1 < dst->size()) {
      (*dst)[d + 1] |= bits >> (64 - dst_shift);
    }
  }
}

void AppendColumnGather(Column* dst, size_t dst_rows, const Column& src,
                        const int32_t* rows, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst->AppendNullBit(dst_rows + i, src.IsNull(static_cast<size_t>(rows[i])));
  }
  switch (dst->type) {
    case DataType::kBool:
      dst->bools.reserve(dst->bools.size() + n);
      for (size_t i = 0; i < n; ++i) {
        dst->bools.push_back(src.bools[static_cast<size_t>(rows[i])]);
      }
      break;
    case DataType::kInt64:
      dst->ints.reserve(dst->ints.size() + n);
      for (size_t i = 0; i < n; ++i) {
        dst->ints.push_back(src.ints[static_cast<size_t>(rows[i])]);
      }
      break;
    case DataType::kDouble:
      dst->doubles.reserve(dst->doubles.size() + n);
      for (size_t i = 0; i < n; ++i) {
        dst->doubles.push_back(src.doubles[static_cast<size_t>(rows[i])]);
      }
      break;
    case DataType::kString:
      AppendStringCodes(dst, src, n, [rows](size_t i) {
        return static_cast<size_t>(rows[i]);
      });
      break;
  }
}

void ColumnBatch::Reset(SchemaPtr schema) {
  schema_ = std::move(schema);
  const size_t n =
      schema_ != nullptr ? static_cast<size_t>(schema_->num_fields()) : 0;
  columns_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    Column& col = columns_[i];
    col.type = schema_->field(static_cast<int>(i)).type;
    col.null_words.clear();
    col.bools.clear();
    col.ints.clear();
    col.doubles.clear();
    col.codes.clear();
    col.dict.Clear();
  }
  num_rows_ = 0;
}

void ColumnBatch::Reserve(size_t rows) {
  for (Column& col : columns_) {
    col.null_words.reserve((rows + 63) / 64);
    switch (col.type) {
      case DataType::kBool:
        col.bools.reserve(rows);
        break;
      case DataType::kInt64:
        col.ints.reserve(rows);
        break;
      case DataType::kDouble:
        col.doubles.reserve(rows);
        break;
      case DataType::kString:
        col.codes.reserve(rows);
        break;
    }
  }
}

Status ColumnBatch::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) +
        " does not match batch width " + std::to_string(columns_.size()));
  }
  // Check every value before appending any, so a rejected row leaves no
  // partial column behind.
  for (size_t i = 0; i < columns_.size(); ++i) {
    RETURN_IF_ERROR(CheckColumnValue(columns_[i].type, row[i],
                                     schema_->field(static_cast<int>(i)).name));
  }
  const size_t r = num_rows_;
  for (size_t i = 0; i < columns_.size(); ++i) {
    RETURN_IF_ERROR(AppendColumnValue(&columns_[i], r, row[i],
                                      schema_->field(static_cast<int>(i)).name));
  }
  ++num_rows_;
  return Status::OK();
}

Status ColumnBatch::AppendGather(const ColumnBatch& src, const int32_t* rows,
                                 size_t n) {
  if (columns_.size() != src.columns_.size()) {
    return Status::InvalidArgument("batch width mismatch in AppendGather");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type != src.columns_[i].type) {
      return Status::InvalidArgument("column type mismatch in AppendGather");
    }
    AppendColumnGather(&columns_[i], num_rows_, src.columns_[i], rows, n);
  }
  num_rows_ += n;
  return Status::OK();
}

Status ColumnBatch::AppendBatch(const ColumnBatch& other) {
  return AppendSlice(other, 0, other.num_rows_);
}

Status ColumnBatch::AppendSlice(const ColumnBatch& src, size_t begin,
                                size_t n) {
  if (columns_.size() != src.columns_.size()) {
    return Status::InvalidArgument("batch width mismatch in AppendSlice");
  }
  if (begin + n > src.num_rows_) {
    return Status::OutOfRange("slice past the end of the batch");
  }
  const size_t base = num_rows_;
  for (size_t i = 0; i < columns_.size(); ++i) {
    Column& dst = columns_[i];
    const Column& from = src.columns_[i];
    if (dst.type != from.type) {
      return Status::InvalidArgument("column type mismatch in AppendSlice");
    }
    AppendNullWords(&dst.null_words, base, from.null_words, begin, n);
    const auto first = static_cast<std::ptrdiff_t>(begin);
    const auto last = static_cast<std::ptrdiff_t>(begin + n);
    switch (dst.type) {
      case DataType::kBool:
        dst.bools.insert(dst.bools.end(), from.bools.begin() + first,
                         from.bools.begin() + last);
        break;
      case DataType::kInt64:
        dst.ints.insert(dst.ints.end(), from.ints.begin() + first,
                        from.ints.begin() + last);
        break;
      case DataType::kDouble:
        dst.doubles.insert(dst.doubles.end(), from.doubles.begin() + first,
                           from.doubles.begin() + last);
        break;
      case DataType::kString:
        AppendStringCodes(&dst, from, n,
                          [begin](size_t i) { return begin + i; });
        break;
    }
  }
  num_rows_ += n;
  return Status::OK();
}

void ColumnBatch::Truncate(size_t rows) {
  if (rows >= num_rows_) return;
  const size_t words = (rows + 63) / 64;
  for (Column& col : columns_) {
    if (col.null_words.size() > words) col.null_words.resize(words);
    // Clear bits past the new row count so future appends reuse clean words.
    if (!col.null_words.empty() && (rows & 63) != 0) {
      col.null_words.back() &= (uint64_t{1} << (rows & 63)) - 1;
    }
    switch (col.type) {
      case DataType::kBool:
        col.bools.resize(rows);
        break;
      case DataType::kInt64:
        col.ints.resize(rows);
        break;
      case DataType::kDouble:
        col.doubles.resize(rows);
        break;
      case DataType::kString:
        col.codes.resize(rows);
        break;
    }
  }
  num_rows_ = rows;
}

void ColumnBatch::Clear() {
  for (Column& col : columns_) {
    col.null_words.clear();
    col.bools.clear();
    col.ints.clear();
    col.doubles.clear();
    col.codes.clear();
    col.dict.Clear();
  }
  num_rows_ = 0;
}

Value ColumnBatch::ValueAt(size_t row, size_t col) const {
  return ColumnValueAt(columns_[col], row);
}

void ColumnBatch::EmitRow(size_t row, Row* out) const {
  out->clear();
  out->reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    out->push_back(ValueAt(row, i));
  }
}

size_t ColumnBatch::ByteSize() const {
  size_t total = 0;
  for (const Column& col : columns_) {
    total += col.null_words.size() * 8 + col.bools.size() +
             col.ints.size() * 8 + col.doubles.size() * 8 +
             col.codes.size() * 4 + col.dict.heap_bytes();
  }
  return total;
}

Result<ColumnBatch> ColumnBatch::FromRows(SchemaPtr schema,
                                          const std::vector<Row>& rows) {
  if (schema == nullptr) {
    return Status::InvalidArgument("ColumnBatch needs a schema");
  }
  ColumnBatch batch(std::move(schema));
  batch.Reserve(rows.size());
  for (const Row& row : rows) {
    RETURN_IF_ERROR(batch.AppendRow(row));
  }
  return batch;
}

std::vector<Row> ColumnBatch::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    Row row;
    EmitRow(r, &row);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace sqlink
