#include "table/table.h"

#include <algorithm>
#include <iterator>

#include "common/status_macros.h"

namespace sqlink {

size_t Table::TotalRows() const {
  size_t total = 0;
  for (const auto& chunks : partitions_) {
    for (const ColumnBatch& chunk : chunks) total += chunk.num_rows();
  }
  return total;
}

Status Table::AppendRow(size_t partition, const Row& row) {
  std::vector<ColumnBatch>& chunks = partitions_[partition];
  if (chunks.empty() || chunks.back().num_rows() >= kSqlBatchRows) {
    ColumnBatch chunk(schema_);
    RETURN_IF_ERROR(chunk.AppendRow(row));
    chunks.push_back(std::move(chunk));
    return Status::OK();
  }
  return chunks.back().AppendRow(row);
}

Status Table::AppendBatch(size_t partition, ColumnBatch batch) {
  const size_t width = static_cast<size_t>(schema_->num_fields());
  if (batch.num_columns() != width) {
    return Status::InvalidArgument("batch width does not match table " +
                                   name_);
  }
  for (size_t c = 0; c < width; ++c) {
    if (batch.column(c).type != schema_->field(static_cast<int>(c)).type) {
      return Status::InvalidArgument("batch column type does not match " +
                                     schema_->field(static_cast<int>(c)).name);
    }
  }
  const size_t n = batch.num_rows();
  if (n == 0) return Status::OK();
  std::vector<ColumnBatch>& chunks = partitions_[partition];
  if (!chunks.empty() && chunks.back().num_rows() + n <= kSqlBatchRows) {
    return chunks.back().AppendBatch(batch);
  }
  if (n <= kSqlBatchRows) {
    chunks.push_back(std::move(batch));
    return Status::OK();
  }
  for (size_t begin = 0; begin < n; begin += kSqlBatchRows) {
    ColumnBatch chunk(schema_);
    RETURN_IF_ERROR(
        chunk.AppendSlice(batch, begin, std::min(kSqlBatchRows, n - begin)));
    chunks.push_back(std::move(chunk));
  }
  return Status::OK();
}

std::vector<Row> Table::partition(size_t i) const {
  std::vector<Row> rows;
  size_t total = 0;
  for (const ColumnBatch& chunk : partitions_[i]) total += chunk.num_rows();
  rows.reserve(total);
  for (const ColumnBatch& chunk : partitions_[i]) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      Row row;
      chunk.EmitRow(r, &row);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<Row> Table::GatherRows() const {
  std::vector<Row> all;
  all.reserve(TotalRows());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::vector<Row> rows = partition(p);
    std::move(rows.begin(), rows.end(), std::back_inserter(all));
  }
  return all;
}

}  // namespace sqlink
