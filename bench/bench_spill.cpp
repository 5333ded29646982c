// Ablation A4: slow-consumer handling — spill-to-disk vs pure
// backpressure. The paper: "If an ML worker is slow to ingest its data and
// the corresponding send buffer becomes full, we can spill it onto the
// local disks to synchronize the producer and consumers."
//
// A deliberate per-frame consumer delay makes the ML side the bottleneck.
// With spill enabled the SQL side drains at full speed into node-local
// files (decoupling the systems); with spill disabled the SQL pipeline
// stalls behind the consumer. Total wall time is consumer-bound either
// way; the interesting column is how long the *SQL engine* stays busy.
//
// Usage: bench_spill [rows] [--smoke] [--check]
//   --smoke  shrinks the workload for CI (20k rows unless given).
//   --check  exits 1 unless both modes deliver every row, spill mode spills
//            (spilled_frames > 0), backpressure mode does not
//            (spilled_frames == 0), and no .spill file is left behind.

#include <cstring>
#include <filesystem>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "stream/streaming_transfer.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

namespace {

int CountSpillFiles(const std::string& root) {
  int count = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spill") {
      ++count;
    }
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  int64_t rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      rows = std::atoll(argv[i]);
    }
  }
  if (rows == 0) rows = smoke ? 20000 : 100000;
  auto env = BenchEnv::Make(rows);
  auto table = env->engine->MaterializeSql(
      "SELECT cartid, amount, nitems, year FROM carts", "stream_src");
  if (!table.ok()) return 1;
  const auto expected_rows = static_cast<int64_t>((*table)->TotalRows());

  std::printf("=== A4: slow consumer — spill vs backpressure ===\n");
  std::printf("rows: %lld, consumer delay 200us/frame, 4KB buffers\n\n",
              static_cast<long long>(expected_rows));
  std::printf("%-14s %12s %16s %16s\n", "mode", "time(s)", "spilled_frames",
              "spilled_bytes");

  int failures = 0;
  for (bool spill : {true, false}) {
    StreamTransferOptions options;
    options.sink.send_buffer_bytes = 4096;
    options.sink.spill_enabled = spill;
    options.reader.consume_delay_micros_per_frame = 200;
    Stopwatch watch;
    auto result = StreamingTransfer::Run(env->engine.get(),
                                         "SELECT * FROM stream_src", options);
    if (!result.ok()) {
      std::fprintf(stderr, "spill=%d: %s\n", spill,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s %12.3f %16lld %16s\n",
                spill ? "spill" : "backpressure", watch.ElapsedSeconds(),
                static_cast<long long>(result->spilled_frames),
                spill ? "(node-local disk)" : "-");
    sqlink::bench::BenchJsonLine("spill")
        .Param("rows", rows)
        .Param("mode", spill ? "spill" : "backpressure")
        .Param("spilled_frames", result->spilled_frames)
        .Emit(watch.ElapsedSeconds() * 1000.0);
    MetricsRegistry::Global().Reset();  // Per-mode metric deltas.

    const auto delivered = static_cast<int64_t>(result->dataset.TotalRows());
    if (delivered != expected_rows) {
      std::fprintf(stderr, "--check: %s mode delivered %lld of %lld rows\n",
                   spill ? "spill" : "backpressure",
                   static_cast<long long>(delivered),
                   static_cast<long long>(expected_rows));
      ++failures;
    }
    if (spill != (result->spilled_frames > 0)) {
      std::fprintf(stderr, "--check: %s mode spilled %lld frames\n",
                   spill ? "spill" : "backpressure",
                   static_cast<long long>(result->spilled_frames));
      ++failures;
    }
  }
  const int leftover = CountSpillFiles(env->workspace->path());
  if (leftover != 0) {
    std::fprintf(stderr, "--check: %d .spill files left behind\n", leftover);
    ++failures;
  }
  return check && failures > 0 ? 1 : 0;
}
