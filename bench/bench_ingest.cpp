// §7 ingest study: HDFS ingest of the transformed data versus streamed
// ingest, swept over dataset sizes. The paper reports the DFS read of the
// 5.6 GB transformed dataset at ~46 s, which the streaming transfer
// removes from the critical path.
//
// Series printed: rows, transformed bytes, DFS ingest seconds (read into
// the in-memory dataset), streamed ingest seconds (sink+transfer measured
// from an already-materialized table so the SQL work is identical).
//
// A second mode (--check, also run standalone) isolates the receive side of
// the transfer: kColData frames decoded into ColumnBatches, appended per
// partition, and gathered into labeled points (Dataset::FromColumns). With
// SQLINK_BENCH_JSON set it emits one JSON line; --check runs only this
// smoke and exits non-zero on any decode or ingest error.

#include <cstring>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "ml/text_input_format.h"
#include "pipeline/table_io.h"
#include "stream/streaming_transfer.h"
#include "stream/wire.h"
#include "table/column_batch.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

namespace {

constexpr int kPartitions = 4;
constexpr size_t kFrameRows = 4096;

/// Frame decode → feature matrix over pre-encoded kColData payloads.
int RunDecodeToDataset(int64_t num_rows) {
  auto schema = Schema::Make({{"label", DataType::kInt64},
                              {"f1", DataType::kDouble},
                              {"f2", DataType::kDouble},
                              {"f3", DataType::kDouble},
                              {"f4", DataType::kDouble},
                              {"f5", DataType::kDouble},
                              {"f6", DataType::kDouble}});
  Random rng(29);
  // Pre-encode the rows as kPartitions channels of kFrameRows-row frames —
  // the shape the reader sees off the socket. Decode + materialization is
  // what's timed.
  std::vector<std::vector<std::string>> col_frames(kPartitions);
  for (int p = 0; p < kPartitions; ++p) {
    ColumnarChannelEncoder encoder(schema);
    const int64_t part_rows = num_rows / kPartitions;
    for (int64_t start = 0; start < part_rows;
         start += static_cast<int64_t>(kFrameRows)) {
      const size_t n = static_cast<size_t>(
          std::min<int64_t>(static_cast<int64_t>(kFrameRows),
                            part_rows - start));
      std::vector<Row> rows;
      rows.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        Row row;
        row.push_back(Value::Int64(rng.UniformInt(0, 1)));
        for (int f = 0; f < 6; ++f) {
          row.push_back(Value::Double(rng.NextDouble()));
        }
        rows.push_back(std::move(row));
      }
      auto batch = ColumnBatch::FromRows(schema, rows);
      if (!batch.ok()) return 1;
      std::string payload;
      if (!encoder.EncodeBatch(*batch, &payload).ok()) return 1;
      col_frames[p].push_back(std::move(payload));
    }
  }

  double col_ms = 1e18;
  size_t col_points = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    ml::ColumnDataset dataset;
    dataset.schema = schema;
    dataset.partitions.resize(kPartitions);
    for (int p = 0; p < kPartitions; ++p) {
      dataset.partitions[static_cast<size_t>(p)].Reset(schema);
      ColumnarChannelDecoder decoder;
      ColumnBatch scratch;
      for (const std::string& payload : col_frames[p]) {
        if (!decoder.DecodeBatch(payload, schema, &scratch).ok()) return 1;
        if (!dataset.partitions[static_cast<size_t>(p)]
                 .AppendBatch(scratch)
                 .ok()) {
          return 1;
        }
      }
    }
    auto points = ml::Dataset::FromColumnsAutoFeatures(dataset, "label");
    if (!points.ok()) return 1;
    col_points = points->TotalPoints();
    col_ms = std::min(col_ms, watch.ElapsedSeconds() * 1000.0);
  }
  const int64_t expected = num_rows / kPartitions * kPartitions;
  if (col_points != static_cast<size_t>(expected)) {
    std::fprintf(stderr, "point count mismatch: %zu of %lld\n", col_points,
                 static_cast<long long>(expected));
    return 1;
  }

  const double col_rate = static_cast<double>(col_points) / col_ms * 1000.0;
  std::printf("=== Frame decode -> feature matrix ===\n");
  std::printf("rows: %zu, partitions: %d, frame rows: %zu\n", col_points,
              kPartitions, kFrameRows);
  std::printf("wall: %.3f ms, %.0f rows/sec\n\n", col_ms, col_rate);

  sqlink::bench::BenchJsonLine("ingest.decode_to_dataset")
      .Param("mode", "columnar")
      .Param("rows", static_cast<int64_t>(col_points))
      .Param("rows_per_sec", col_rate)
      .Emit(col_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  int64_t max_rows = 400000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      max_rows = std::atoll(argv[i]);
    }
  }
  const int decode_rc = RunDecodeToDataset(max_rows);
  if (decode_rc != 0 || check) return decode_rc;

  std::printf("=== ML ingest: DFS files vs parallel streaming ===\n\n");
  std::printf("%12s %14s %16s %18s\n", "rows", "bytes", "dfs_ingest(s)",
              "stream_ingest(s)");

  for (int64_t rows = max_rows / 8; rows <= max_rows; rows *= 2) {
    auto env = BenchEnv::Make(rows);
    QueryRewriter rewriter(env->engine, nullptr);
    auto rewrite = rewriter.RewriteWithCache(BenchEnv::PaperRequest());
    if (!rewrite.ok()) return 1;
    // Materialize once; both ingest paths then read identical data.
    auto transformed = env->engine->MaterializeSql(rewrite->transformed_sql,
                                                   "transformed_input");
    if (!transformed.ok()) return 1;
    auto bytes =
        WriteTableToDfs(env->dfs.get(), **transformed, "ingest_input");
    if (!bytes.ok()) return 1;

    // DFS ingest.
    Stopwatch dfs_watch;
    ml::TextFileInputFormat format(env->dfs, "ingest_input",
                                   (*transformed)->schema());
    ml::JobContext context;
    context.cluster = env->cluster;
    ml::MlJobRunner runner(context);
    auto ingest = runner.Ingest(&format);
    if (!ingest.ok()) return 1;
    const double dfs_seconds = dfs_watch.ElapsedSeconds();

    // Streamed ingest of the same table.
    Stopwatch stream_watch;
    auto streamed = StreamingTransfer::Run(
        env->engine.get(), "SELECT * FROM transformed_input");
    if (!streamed.ok()) return 1;
    const double stream_seconds = stream_watch.ElapsedSeconds();

    if (streamed->dataset.TotalRows() != ingest->dataset.TotalRows()) {
      std::fprintf(stderr, "row count mismatch\n");
      return 1;
    }
    std::printf("%12lld %14llu %16.3f %18.3f\n",
                static_cast<long long>((*transformed)->TotalRows()),
                static_cast<unsigned long long>(*bytes), dfs_seconds,
                stream_seconds);
  }
  return 0;
}
