#ifndef SQLINK_TABLE_TABLE_H_
#define SQLINK_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "table/schema.h"

namespace sqlink {

/// A horizontally partitioned table: one partition per SQL worker, the
/// storage model of an MPP engine. Partitions may be empty.
class Table {
 public:
  Table(std::string name, SchemaPtr schema, size_t num_partitions)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        partitions_(num_partitions) {}

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }

  size_t num_partitions() const { return partitions_.size(); }
  const std::vector<Row>& partition(size_t i) const { return partitions_[i]; }
  std::vector<Row>& mutable_partition(size_t i) { return partitions_[i]; }

  size_t TotalRows() const {
    size_t total = 0;
    for (const auto& p : partitions_) total += p.size();
    return total;
  }

  /// Appends a row to a specific partition.
  void AppendRow(size_t partition, Row row) {
    partitions_[partition].push_back(std::move(row));
  }

  /// All rows gathered into one vector (tests and small results only).
  std::vector<Row> GatherRows() const {
    std::vector<Row> all;
    all.reserve(TotalRows());
    for (const auto& p : partitions_) {
      all.insert(all.end(), p.begin(), p.end());
    }
    return all;
  }

 private:
  std::string name_;
  SchemaPtr schema_;
  std::vector<std::vector<Row>> partitions_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace sqlink

#endif  // SQLINK_TABLE_TABLE_H_
