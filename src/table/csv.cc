#include "table/csv.h"

#include "common/status_macros.h"
#include "common/string_util.h"

namespace sqlink {

namespace {

bool NeedsQuoting(std::string_view text, char delimiter) {
  for (char c : text) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

void CsvCodec::AppendField(std::string_view text, bool quote_empty,
                           std::string* out) const {
  if (text.empty()) {
    if (quote_empty) *out += "\"\"";
    return;
  }
  if (!NeedsQuoting(text, delimiter_)) {
    out->append(text);
    return;
  }
  out->push_back('"');
  for (char c : text) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string CsvCodec::FormatRow(const Row& row) const {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(delimiter_);
    const Value& v = row[i];
    // Distinguish NULL (empty, unquoted) from empty string (quoted).
    const bool quote_empty = v.is_string();
    AppendField(v.ToString(), quote_empty && !v.is_null(), &out);
  }
  return out;
}

void CsvCodec::AppendRow(const Row& row, std::string* out) const {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out->push_back(delimiter_);
    const Value& v = row[i];
    const bool quote_empty = v.is_string();
    AppendField(v.ToString(), quote_empty && !v.is_null(), out);
  }
  out->push_back('\n');
}

template <typename FieldFn>
Status CsvCodec::ForEachField(std::string_view line, int num_fields,
                              FieldFn&& fn) const {
  std::string unescaped;  // Quoted fields only.
  size_t pos = 0;
  const size_t n = line.size();
  for (int field_index = 0; field_index < num_fields; ++field_index) {
    std::string_view field;
    bool quoted = false;
    if (pos < n && line[pos] == '"') {
      quoted = true;
      ++pos;
      unescaped.clear();
      while (pos < n) {
        if (line[pos] == '"') {
          if (pos + 1 < n && line[pos + 1] == '"') {
            unescaped.push_back('"');
            pos += 2;
          } else {
            ++pos;  // Closing quote.
            break;
          }
        } else {
          unescaped.push_back(line[pos]);
          ++pos;
        }
      }
      field = unescaped;
    } else {
      const size_t next = line.find(delimiter_, pos);
      const size_t end = (next == std::string_view::npos) ? n : next;
      field = line.substr(pos, end - pos);
      pos = end;
    }
    // Consume the delimiter following this field, if any.
    bool had_delimiter = false;
    if (pos < n && line[pos] == delimiter_) {
      ++pos;
      had_delimiter = true;
    }
    RETURN_IF_ERROR(fn(field_index, field, quoted));
    if (field_index + 1 < num_fields && !had_delimiter && pos >= n) {
      return Status::ParseError("too few fields in line: " +
                                std::string(line));
    }
  }
  if (pos < n) {
    return Status::ParseError("too many fields in line: " + std::string(line));
  }
  return Status::OK();
}

Result<Row> CsvCodec::ParseRow(std::string_view line,
                               const Schema& schema) const {
  Row row;
  row.reserve(static_cast<size_t>(schema.num_fields()));
  RETURN_IF_ERROR(ForEachField(
      line, schema.num_fields(),
      [&](int index, std::string_view text, bool quoted) -> Status {
        const DataType type = schema.field(index).type;
        if (text.empty() && quoted && type == DataType::kString) {
          row.push_back(Value::String(""));
          return Status::OK();
        }
        auto value = Value::Parse(text, type);
        if (!value.ok()) {
          return value.status().WithContext("field " +
                                            schema.field(index).name);
        }
        row.push_back(std::move(*value));
        return Status::OK();
      }));
  return row;
}

namespace {

/// Value::Parse's rules, appending into a typed column: empty text is NULL
/// except the quoted empty string of a STRING column.
Status AppendParsedField(Column* col, size_t row, std::string_view text,
                         bool quoted) {
  const bool null = text.empty() && !(quoted && col->type == DataType::kString);
  col->AppendNullBit(row, null);
  switch (col->type) {
    case DataType::kBool: {
      bool b = false;
      if (!null) {
        if (EqualsIgnoreCase(text, "true") || text == "1") {
          b = true;
        } else if (!EqualsIgnoreCase(text, "false") && text != "0") {
          return Status::ParseError("invalid bool literal: " +
                                    std::string(text));
        }
      }
      col->bools.push_back(b ? 1 : 0);
      return Status::OK();
    }
    case DataType::kInt64: {
      int64_t v = 0;
      if (!null) {
        ASSIGN_OR_RETURN(v, ParseInt64(text));
      }
      col->ints.push_back(v);
      return Status::OK();
    }
    case DataType::kDouble: {
      double v = 0;
      if (!null) {
        ASSIGN_OR_RETURN(v, ParseDouble(text));
      }
      col->doubles.push_back(v);
      return Status::OK();
    }
    case DataType::kString:
      col->codes.push_back(null ? 0 : col->dict.GetOrAdd(text));
      return Status::OK();
  }
  return Status::Internal("unhandled data type");
}

}  // namespace

Status CsvCodec::ParseRowInto(std::string_view line, ColumnBatch* out) const {
  const Schema& schema = *out->schema();
  const size_t row = out->num_rows();
  RETURN_IF_ERROR(ForEachField(
      line, schema.num_fields(),
      [&](int index, std::string_view text, bool quoted) -> Status {
        const Status status = AppendParsedField(
            &out->column(static_cast<size_t>(index)), row, text, quoted);
        return status.ok() ? status
                           : status.WithContext("field " +
                                                schema.field(index).name);
      }));
  out->SetRowCountForDecode(row + 1);
  return Status::OK();
}

}  // namespace sqlink
