#ifndef SQLINK_TABLE_CSV_H_
#define SQLINK_TABLE_CSV_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "table/column_batch.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink {

/// Text (CSV-like) row codec — the "text format on HDFS" of the paper.
/// Fields are delimiter-separated; a field containing the delimiter, a double
/// quote, or a newline is wrapped in double quotes with internal quotes
/// doubled. NULL encodes as the empty unquoted field; the empty *string*
/// encodes as "" (two quotes).
class CsvCodec {
 public:
  explicit CsvCodec(char delimiter = ',') : delimiter_(delimiter) {}

  /// Renders a row as one line (no trailing newline).
  std::string FormatRow(const Row& row) const;

  /// Appends a row plus '\n' to the buffer; avoids per-row allocation in the
  /// write path.
  void AppendRow(const Row& row, std::string* out) const;

  /// Parses one line into typed values according to the schema.
  Result<Row> ParseRow(std::string_view line, const Schema& schema) const;

  /// Parses one line straight into the typed column vectors of `out` (one
  /// more row, typed by out's schema) — ParseRow's rules and error
  /// messages, without a boxed Value per field. After an error `out` holds
  /// a partial row and must be discarded.
  Status ParseRowInto(std::string_view line, ColumnBatch* out) const;

  char delimiter() const { return delimiter_; }

 private:
  void AppendField(std::string_view text, bool quote_empty,
                   std::string* out) const;

  /// Splits `line` into exactly `num_fields` fields, calling
  /// `fn(index, text, quoted)` for each; `text` is unescaped and valid only
  /// during the call.
  template <typename FieldFn>
  Status ForEachField(std::string_view line, int num_fields,
                      FieldFn&& fn) const;

  char delimiter_;
};

}  // namespace sqlink

#endif  // SQLINK_TABLE_CSV_H_
