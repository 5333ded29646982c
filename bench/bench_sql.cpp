// SQL-engine microbenchmarks: per-operator throughput of the substrate the
// In-SQL transformations run on (google-benchmark). The engine fixture is
// built once and shared across benchmarks.
//
// `bench_sql --smoke [rows] [--check]` instead times a join+filter+DISTINCT
// query best-of-three and emits one JSON line (with the query's
// per-operator stats tree) via SQLINK_BENCH_JSON; --check exits non-zero
// when the query fails or returns no rows.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "sql/engine.h"
#include "sql/query_registry.h"

namespace sqlink {
namespace {

using sqlink::bench::BenchEnv;

BenchEnv* Env() {
  static BenchEnv* const env = [] {
    return BenchEnv::Make(100000).release();
  }();
  return env;
}

void RunQuery(benchmark::State& state, const std::string& sql) {
  BenchEnv* env = Env();
  int64_t rows = 0;
  for (auto _ : state) {
    auto result = env->engine->ExecuteSql(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    rows += static_cast<int64_t>((*result)->TotalRows());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(rows);
}

void BM_Scan(benchmark::State& state) {
  RunQuery(state, "SELECT * FROM carts");
}
BENCHMARK(BM_Scan)->Unit(benchmark::kMillisecond);

void BM_FilterProject(benchmark::State& state) {
  RunQuery(state,
           "SELECT cartid, amount * 1.07 FROM carts WHERE amount > 250");
}
BENCHMARK(BM_FilterProject)->Unit(benchmark::kMillisecond);

void BM_BroadcastJoin(benchmark::State& state) {
  RunQuery(state,
           "SELECT U.age, C.amount FROM carts C, users U "
           "WHERE C.userid = U.userid");
}
BENCHMARK(BM_BroadcastJoin)->Unit(benchmark::kMillisecond);

void BM_Distinct(benchmark::State& state) {
  RunQuery(state, "SELECT DISTINCT abandoned, year FROM carts");
}
BENCHMARK(BM_Distinct)->Unit(benchmark::kMillisecond);

void BM_GroupByAggregate(benchmark::State& state) {
  RunQuery(state,
           "SELECT year, COUNT(*), AVG(amount) FROM carts GROUP BY year");
}
BENCHMARK(BM_GroupByAggregate)->Unit(benchmark::kMillisecond);

void BM_OrderByLimit(benchmark::State& state) {
  RunQuery(state,
           "SELECT cartid, amount FROM carts ORDER BY amount DESC LIMIT 100");
}
BENCHMARK(BM_OrderByLimit)->Unit(benchmark::kMillisecond);

void BM_RecodeLocalDistinctUdf(benchmark::State& state) {
  // The §2.1 phase-1 UDF: one parallel scan for two categorical columns.
  RunQuery(state,
           "SELECT DISTINCT colname, colval FROM "
           "TABLE(recode_local_distinct((SELECT * FROM carts), "
           "'abandoned'))");
}
BENCHMARK(BM_RecodeLocalDistinctUdf)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Smoke mode.

constexpr char kSmokeQuery[] =
    "SELECT DISTINCT U.age, U.gender, C.year, C.abandoned "
    "FROM carts C JOIN users U ON C.userid = U.userid "
    "WHERE C.amount > 50 AND U.country = 'USA'";

/// Best-of-three wall milliseconds for the smoke query; also reports the
/// result cardinality. Exits on a query error.
double TimeSmoke(SqlEngine* engine, size_t* result_rows) {
  double best_ms = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    auto result = engine->ExecuteSql(kSmokeQuery);
    const double ms = watch.ElapsedSeconds() * 1000.0;
    if (!result.ok()) {
      std::fprintf(stderr, "smoke query: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    *result_rows = (*result)->TotalRows();
    best_ms = std::min(best_ms, ms);
  }
  return best_ms;
}

int RunSmoke(int64_t num_carts, bool check) {
  auto env = BenchEnv::Make(num_carts);
  std::printf("=== SQL engine: join+filter+DISTINCT ===\n");
  std::printf("rows: %lld\nquery: %s\n\n", static_cast<long long>(num_carts),
              kSmokeQuery);

  size_t result_rows = 0;
  const double ms = TimeSmoke(env->engine.get(), &result_rows);
  // Per-operator stats tree (rows/batches/time/q-error per plan node) of
  // the most recent run, as recorded by the tracked query path.
  std::string stats = "null";
  auto finished = QueryRegistry::Global().Finished();
  if (!finished.empty() && finished[0]->stats != nullptr) {
    stats.clear();
    finished[0]->stats->AppendJson(&stats);
  }
  std::printf("%-12s %12s\n", "wall(ms)", "result");
  std::printf("%12.3f %12zu\n", ms, result_rows);

  sqlink::bench::BenchJsonLine("sql.smoke")
      .Param("rows", num_carts)
      .Param("result_rows", static_cast<int64_t>(result_rows))
      .JsonParam("operator_stats", stats)
      .Emit(ms);

  if (check && result_rows == 0) {
    std::fprintf(stderr, "--check: smoke query returned no rows\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sqlink

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  int64_t num_carts = 300000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (argv[i][0] != '-') {
      num_carts = std::atoll(argv[i]);
    }
  }
  if (smoke) return sqlink::RunSmoke(num_carts, check);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
