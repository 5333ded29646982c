// Ablation A7 (§6): the price of fault tolerance in the streaming
// transfer. Three configurations:
//   pipelined           — default mode, no recovery possible;
//   resilient           — retained logs, failure-free run (the overhead);
//   resilient + failure — one ML worker drops its connection mid-stream
//                         and recovers by replaying from the retained log.

#include <optional>
#include <string>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "stream/streaming_transfer.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

int main(int argc, char** argv) {
  const int64_t rows = sqlink::bench::RowsArg(argc, argv, 300000);
  auto env = BenchEnv::Make(rows);
  auto table = env->engine->MaterializeSql(
      "SELECT cartid, amount, nitems, year FROM carts", "stream_src");
  if (!table.ok()) return 1;
  const size_t expected = (*table)->TotalRows();

  std::printf("=== A7: fault tolerance of the streaming transfer ===\n");
  std::printf("rows: %zu\n\n", expected);
  std::printf("%-22s %12s %12s %12s\n", "mode", "time(s)", "rows", "ok");

  auto run = [&](const char* name, bool resilient, bool inject) -> bool {
    StreamTransferOptions options;
    options.sink.resilient = resilient;
    options.reader.recovery_enabled = resilient;
    std::optional<ScopedFailpoint> fault;
    if (inject) {
      // Split 1's reader drops its connection after its first batch.
      fault.emplace("stream.reader.row.split1", "error(1)");
    }
    Stopwatch watch;
    auto result = StreamingTransfer::Run(env->engine.get(),
                                         "SELECT * FROM stream_src", options);
    const double seconds = watch.ElapsedSeconds();
    const bool ok = result.ok() && result->dataset.TotalRows() == expected;
    std::printf("%-22s %12.3f %12zu %12s\n", name, seconds,
                result.ok() ? result->dataset.TotalRows() : 0,
                ok ? "yes" : "NO");
    return ok;
  };

  bool all_ok = true;
  all_ok &= run("pipelined", false, false);
  all_ok &= run("resilient", true, false);
  all_ok &= run("resilient+failure", true, true);
  std::printf("\nreconnects observed: %lld\n",
              static_cast<long long>(
                  env->engine->metrics()->Get("stream.reconnects")));
  return all_ok ? 0 : 2;
}
