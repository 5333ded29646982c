#include "pipeline/table_io.h"

#include <vector>

#include "common/status_macros.h"
#include "common/thread_pool.h"
#include "dfs/line_reader.h"
#include "table/csv.h"

namespace sqlink {

Result<uint64_t> WriteTableToDfs(Dfs* dfs, const Table& table,
                                 const std::string& path_prefix) {
  const size_t num_partitions = table.num_partitions();
  std::vector<Status> statuses(num_partitions);
  std::vector<uint64_t> bytes(num_partitions, 0);
  ParallelFor(num_partitions, [&](size_t p) {
    auto run = [&]() -> Status {
      ASSIGN_OR_RETURN(
          std::unique_ptr<DfsWriter> writer,
          dfs->Create(path_prefix + "/part-" + std::to_string(p),
                      static_cast<int>(p) % dfs->cluster()->num_nodes()));
      CsvCodec codec;
      std::string buffer;
      Row row;
      for (const ColumnBatch& chunk : table.batches(p)) {
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          chunk.EmitRow(r, &row);
          codec.AppendRow(row, &buffer);
          if (buffer.size() >= 1 << 20) {
            RETURN_IF_ERROR(writer->Append(buffer));
            buffer.clear();
          }
        }
      }
      if (!buffer.empty()) RETURN_IF_ERROR(writer->Append(buffer));
      RETURN_IF_ERROR(writer->Close());
      bytes[p] = writer->bytes_written();
      return Status::OK();
    };
    statuses[p] = run();
  });
  uint64_t total = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    RETURN_IF_ERROR(statuses[p]);
    total += bytes[p];
  }
  return total;
}

Result<TablePtr> ReadTableFromDfs(const Dfs& dfs, const std::string& name,
                                  SchemaPtr schema,
                                  const std::string& path_prefix) {
  const std::vector<std::string> files = dfs.List(path_prefix);
  if (files.empty()) {
    return Status::NotFound("no DFS files under " + path_prefix);
  }
  auto table = std::make_shared<Table>(name, schema, files.size());
  std::vector<Status> statuses(files.size());
  ParallelFor(files.size(), [&](size_t i) {
    auto run = [&]() -> Status {
      ASSIGN_OR_RETURN(std::unique_ptr<DfsReader> reader, dfs.Open(files[i]));
      const uint64_t size = reader->file_size();
      DfsLineReader lines(std::move(reader), 0, size);
      CsvCodec codec;
      std::string line;
      while (lines.Next(&line)) {
        ASSIGN_OR_RETURN(Row row, codec.ParseRow(line, *schema));
        RETURN_IF_ERROR(table->AppendRow(i, row));
      }
      return lines.status();
    };
    statuses[i] = run();
  });
  for (const Status& status : statuses) RETURN_IF_ERROR(status);
  return table;
}

}  // namespace sqlink
