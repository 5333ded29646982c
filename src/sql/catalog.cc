#include "sql/catalog.h"

#include <functional>
#include <string_view>
#include <unordered_set>

#include "common/string_util.h"

namespace sqlink {

namespace {

/// Column statistics over a table's stored chunks, read in place. The
/// distinct-value estimate counts distinct Value::Hash() values, so each
/// typed cell hashes exactly as its boxed Value would; the byte proxy (the
/// cost-model currency, not an exact allocator accounting) is 16 per value
/// plus a string's length.
TableStatsPtr ComputeStats(const Table& table) {
  auto stats = std::make_shared<TableStats>();
  const size_t width =
      static_cast<size_t>(table.schema()->num_fields());
  stats->columns.resize(width);
  std::vector<std::unordered_set<size_t>> hashes(width);
  std::vector<double> nulls(width, 0);
  std::vector<double> bytes(width, 0);
  double rows = 0;
  std::vector<char> seen_codes;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    for (const ColumnBatch& chunk : table.batches(p)) {
      const size_t n = chunk.num_rows();
      rows += static_cast<double>(n);
      for (size_t c = 0; c < width; ++c) {
        const Column& col = chunk.column(c);
        if (col.type == DataType::kString) {
          seen_codes.assign(static_cast<size_t>(col.dict.size()), 0);
        }
        for (size_t r = 0; r < n; ++r) {
          if (col.IsNull(r)) {
            nulls[c] += 1;
            continue;
          }
          bytes[c] += 16.0;
          switch (col.type) {
            case DataType::kBool:
              hashes[c].insert(std::hash<bool>()(col.bools[r] != 0));
              break;
            case DataType::kInt64:
              hashes[c].insert(std::hash<int64_t>()(col.ints[r]));
              break;
            case DataType::kDouble:
              hashes[c].insert(std::hash<double>()(col.doubles[r]));
              break;
            case DataType::kString: {
              const auto code = static_cast<size_t>(col.codes[r]);
              const std::string_view value = col.dict[col.codes[r]];
              bytes[c] += static_cast<double>(value.size());
              if (seen_codes[code] == 0) {
                seen_codes[code] = 1;
                hashes[c].insert(std::hash<std::string_view>()(value));
              }
              break;
            }
          }
        }
      }
    }
  }
  stats->row_count = rows;
  for (size_t c = 0; c < width; ++c) {
    ColumnStats& col = stats->columns[c];
    col.distinct_values = static_cast<double>(hashes[c].size());
    col.null_fraction = rows > 0 ? nulls[c] / rows : 0;
    const double non_null = rows - nulls[c];
    col.avg_bytes = non_null > 0 ? bytes[c] / non_null : 16.0;
    stats->avg_row_bytes += col.avg_bytes;
  }
  return stats;
}

}  // namespace

Status Catalog::RegisterTable(TablePtr table) {
  const std::string key = ToLowerAscii(table->name());
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + table->name());
  }
  tables_.emplace(key, std::move(table));
  return Status::OK();
}

void Catalog::PutTable(TablePtr table) {
  const std::string key = ToLowerAscii(table->name());
  std::lock_guard<std::mutex> lock(mu_);
  tables_[key] = std::move(table);
  stats_.erase(key);
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("unknown table: " + name);
  }
  return it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(ToLowerAscii(name)) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = ToLowerAscii(name);
  stats_.erase(key);
  if (tables_.erase(key) == 0) {
    return Status::NotFound("unknown table: " + name);
  }
  return Status::OK();
}

Result<TableStatsPtr> Catalog::GetStats(const std::string& name) const {
  const std::string key = ToLowerAscii(name);
  TablePtr table;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto cached = stats_.find(key);
    if (cached != stats_.end()) return cached->second;
    auto it = tables_.find(key);
    if (it == tables_.end()) {
      return Status::NotFound("unknown table: " + name);
    }
    table = it->second;
  }
  // Scan outside the lock (stats computation is O(rows)); last writer wins
  // if two threads race, which is fine — both computed from live snapshots.
  TableStatsPtr stats = ComputeStats(*table);
  std::lock_guard<std::mutex> lock(mu_);
  stats_[key] = stats;
  return stats;
}

std::vector<std::string> Catalog::ListTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) {
    names.push_back(table->name());
  }
  return names;
}

}  // namespace sqlink
