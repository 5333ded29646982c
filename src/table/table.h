#ifndef SQLINK_TABLE_TABLE_H_
#define SQLINK_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/column_batch.h"
#include "table/schema.h"

namespace sqlink {

/// A horizontally partitioned table: one partition per SQL worker, the
/// storage model of an MPP engine. Each partition is stored as a list of
/// ColumnBatch chunks of at most kSqlBatchRows rows, so a scan hands its
/// chunks to the batch executor as they are. Partitions may be empty.
///
/// Appends to different partitions may run concurrently; reads require that
/// no append to the same partition is in flight.
class Table {
 public:
  Table(std::string name, SchemaPtr schema, size_t num_partitions)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        partitions_(num_partitions) {}

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }

  size_t num_partitions() const { return partitions_.size(); }

  /// The stored chunks of partition `i`: non-empty, each at most
  /// kSqlBatchRows rows, in append order.
  const std::vector<ColumnBatch>& batches(size_t i) const {
    return partitions_[i];
  }

  size_t TotalRows() const;

  /// Appends a row to a specific partition. Value types must match the
  /// schema (int64 widens into a double column; NULL anywhere); a rejected
  /// row leaves the table unchanged.
  Status AppendRow(size_t partition, const Row& row);

  /// Appends every row of `batch` (same column types as the schema) to a
  /// partition. A batch that fits the last chunk is copied into it, one of
  /// at most kSqlBatchRows rows is kept as a chunk, and a larger one is
  /// sliced into chunks.
  Status AppendBatch(size_t partition, ColumnBatch batch);

  /// Partition `i` boxed into rows. A copy, for row-at-a-time consumers
  /// (CSV export, tests, the reference interpreter), not for the executor.
  std::vector<Row> partition(size_t i) const;

  /// All rows gathered into one vector (tests and small results only).
  std::vector<Row> GatherRows() const;

 private:
  std::string name_;
  SchemaPtr schema_;
  std::vector<std::vector<ColumnBatch>> partitions_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace sqlink

#endif  // SQLINK_TABLE_TABLE_H_
