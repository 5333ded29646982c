// Benchmark of record: the paper's Figure 3 / Figure 4 pipelines and the
// query server, each driven closed-loop for a fixed time with every
// operation checked against a reference computed at set-up.
//
//   bench_of_record --workload <fig3_stream|fig3_dfs|fig4_full_hit|serve_4>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--workdir <dir>] [--carts <n>] [--corrupt-op <k>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// breakdown, timed around the benchmark's own calls into each layer's public
// functions plus the counters the program exports through MetricsRegistry.
// --carts shrinks the input (self-test); --corrupt-op k damages the result
// of the k-th timed operation (0-based) after it returns, so the oracle must
// reject it.
//
// Output: a {"meta": ...} line, then the result object as the last line.
// Exit status is non-zero when any operation failed or returned a wrong
// result, or when run hygiene (no leftover spill files, no open mux
// channels) does not hold after the workload.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "dfs/dfs.h"
#include "ml/job.h"
#include "ml/text_input_format.h"
#include "pipeline/analytics_pipeline.h"
#include "pipeline/datagen.h"
#include "pipeline/table_io.h"
#include "rewriter/query_rewriter.h"
#include "serving/query_server.h"
#include "sql/engine.h"
#include "stream/streaming_transfer.h"
#include "stream/wire.h"
#include "transform/coding.h"
#include "transform/kernels.h"
#include "transform/transformer.h"

using namespace sqlink;

namespace {

// Input sizes of record. Pipelines: Figure 3's carts/users data at 500k
// carts (about 345k labeled points reach the ML side). Server: 200k carts,
// so one range-aggregate query is a short scan.
constexpr int64_t kPipelineCarts = 500000;
constexpr int64_t kServeCarts = 200000;
constexpr int kServeClients = 4;
constexpr int kServeQueryPool = 64;
// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetups = 3;
constexpr char kLabelColumn[] = "abandoned";

/// One user per 100 carts, as bench/bench_util.h sizes the paper's data.
int64_t UsersFor(int64_t carts) { return std::max<int64_t>(10, carts / 100); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_work";
  int64_t carts = 0;  // 0 = the workload's size of record.
  int64_t corrupt_op = -1;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_of_record: %s\n", what.c_str());
  std::exit(2);
}

void DieIf(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  DieIf(result.status(), what);
  return std::move(result).value();
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--carts") {
      args.carts = std::atoll(value);
    } else if (key == "--corrupt-op") {
      args.corrupt_op = std::atoll(value);
    } else {
      Die("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) Die("arguments come in --key value pairs");
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

/// Linear-interpolation quantile (numpy's default) of unsorted samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/// Returns the previous set-up's freed heap to the OS, so each set-up starts
/// from the same footprint and peak_rss_mb does not depend on how the
/// earlier set-ups fragmented the heap.
void ReleaseFreedMemory() { malloc_trim(0); }

double ElapsedMs(const Stopwatch& watch) {
  return static_cast<double>(watch.ElapsedMicros()) / 1000.0;
}

// --- Correctness oracle ------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Order-independent fingerprint of a multiset of labeled points: the point
/// count plus the wrapping sum and the xor of one 64-bit hash per point.
/// Partitioning and arrival order do not change it; any changed, lost or
/// duplicated point does (up to hash collisions).
struct Fingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xor_all = 0;
  size_t dimension = 0;

  bool operator==(const Fingerprint& other) const = default;
};

uint64_t PointHash(double label, const double* features, size_t n) {
  uint64_t h = Mix64(DoubleBits(label));
  for (size_t i = 0; i < n; ++i) h = Mix64(h ^ DoubleBits(features[i]));
  return h;
}

void AddPoint(Fingerprint* fp, uint64_t hash) {
  ++fp->count;
  fp->sum += hash;
  fp->xor_all ^= hash;
}

Fingerprint FingerprintOf(const ml::Dataset& dataset) {
  Fingerprint fp;
  fp.dimension = dataset.dimension();
  for (const auto& partition : dataset.partitions()) {
    for (const ml::LabeledPoint& point : partition) {
      AddPoint(&fp, PointHash(point.label, point.features.data(),
                              point.features.size()));
    }
  }
  return fp;
}

/// The reference points, derived from the transformed rows without the
/// pipeline's own conversion: the label column's recode (code 1 -> 0, any
/// other code -> 1), every other column a feature in schema order, NULL as 0.
Fingerprint ReferenceFingerprint(const Table& table) {
  const int label = table.schema()->FieldIndex(kLabelColumn);
  if (label < 0) Die("transformed result lacks the label column");
  Fingerprint fp;
  fp.dimension = static_cast<size_t>(table.schema()->num_fields() - 1);
  std::vector<double> features;
  auto as_double = [](const Value& v) {
    return v.is_null() ? 0.0 : Take(v.AsDouble(), "numeric column");
  };
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    for (const Row& row : table.partition(p)) {
      features.clear();
      for (size_t c = 0; c < row.size(); ++c) {
        if (static_cast<int>(c) != label) features.push_back(as_double(row[c]));
      }
      const double code = as_double(row[static_cast<size_t>(label)]);
      AddPoint(&fp, PointHash(code <= 1.0 ? 0.0 : 1.0, features.data(),
                              features.size()));
    }
  }
  return fp;
}

/// Server results: same rows regardless of order; doubles (SUM over a
/// parallel scan) within a relative 1e-9, everything else exact.
bool SameRows(std::vector<Row> got, std::vector<Row> want) {
  if (got.size() != want.size()) return false;
  auto less = [](const Row& a, const Row& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  };
  std::sort(got.begin(), got.end(), less);
  std::sort(want.begin(), want.end(), less);
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return false;
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      if (a.is_double() && b.is_double()) {
        const double tolerance =
            1e-9 * std::max(1.0, std::fabs(b.double_value()));
        if (std::fabs(a.double_value() - b.double_value()) > tolerance) {
          return false;
        }
      } else if (a != b) {
        return false;
      }
    }
  }
  return true;
}

// --- Environment -------------------------------------------------------------

/// One simulated 4-node cluster (the paper's four workers) with its DFS,
/// engine and pipeline, rooted in a directory the benchmark owns.
class Env {
 public:
  Env(const std::string& root, int64_t carts, uint64_t seed) : root_(root) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    cluster_ = Take(Cluster::Make(4, root_), "cluster");
    engine_ = SqlEngine::Make(cluster_);
    dfs_ = std::make_shared<Dfs>(cluster_, DfsOptions{});
    pipeline_ = std::make_unique<AnalyticsPipeline>(engine_, dfs_);
    CartsWorkloadOptions data;
    data.num_carts = carts;
    data.num_users = UsersFor(carts);
    data.seed = seed;
    Take(GenerateCartsWorkload(engine_.get(), data), "datagen");
  }

  ~Env() {
    pipeline_.reset();
    dfs_.reset();
    engine_.reset();
    cluster_.reset();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Spill files left anywhere under the cluster's node directories.
  int LeftoverSpillFiles() const {
    int count = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(root_, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
      if (it->path().extension() == ".spill") ++count;
    }
    return count;
  }

  SqlEngine* engine() const { return engine_.get(); }
  const SqlEnginePtr& engine_ptr() const { return engine_; }
  const DfsPtr& dfs() const { return dfs_; }
  AnalyticsPipeline* pipeline() const { return pipeline_.get(); }
  const ClusterPtr& cluster() const { return cluster_; }

 private:
  std::string root_;
  ClusterPtr cluster_;
  SqlEnginePtr engine_;
  DfsPtr dfs_;
  std::unique_ptr<AnalyticsPipeline> pipeline_;
};

// --- Metrics registry access ---------------------------------------------------

int64_t Count(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

double HistSumMs(const char* name) {
  return static_cast<double>(
             MetricsRegistry::Global().GetHistogram(name)->GetSnapshot().sum) /
         1000.0;
}

/// Resets the global registry between traced operations. Reset zeroes the
/// gauges of live state too (pooled mux connections, open channels), so the
/// values seen at each reset are carried forward to keep absolute readings.
class RegistryResetter {
 public:
  void Reset() {
    conns_carry_ += conns_->value();
    channels_carry_ += channels_->value();
    MetricsRegistry::Global().Reset();
  }
  /// Peak live mux connections since the last Reset.
  int64_t PeakConns() const {
    return conns_carry_ + std::max<int64_t>(0, conns_->max_value());
  }
  int64_t OpenChannels() const { return channels_carry_ + channels_->value(); }

 private:
  Gauge* conns_ = MetricsRegistry::Global().GetGauge("net.mux.conns");
  Gauge* channels_ = MetricsRegistry::Global().GetGauge("net.mux.open_channels");
  int64_t conns_carry_ = 0;
  int64_t channels_carry_ = 0;
};

/// After a workload: no spill file is left behind and no mux channel is
/// open. Channels close asynchronously after the last frame, so the gauge
/// gets two seconds to settle.
bool HygieneHolds(const Env& env, const RegistryResetter& registry) {
  for (int i = 0; i < 200 && registry.OpenChannels() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const int spills = env.LeftoverSpillFiles();
  const int64_t channels = registry.OpenChannels();
  if (spills == 0 && channels == 0) return true;
  std::fprintf(stderr, "hygiene: %d leftover .spill files, %lld open mux "
               "channels\n", spills, static_cast<long long>(channels));
  return false;
}

// --- Result reporting ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},   {"rows_per_s", "rows/s"},
    {"goodput_qps", "1/s"},     {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sql.plan_ms", "ms"},
    {"sql.prep_exec_ms", "ms"},
    {"sql.rows_emitted", "count"},
    {"sql.misestimates", "count"},
    {"transform.recode_map_ms", "ms"},
    {"transform.apply_exec_ms", "ms"},
    {"transform.kernel_ms", "ms"},
    {"rewriter.rewrite_ms", "ms"},
    {"cache.hit_frac", "ratio"},
    {"stream.transfer_ms", "ms"},
    {"stream.bytes_per_row", "B/row"},
    {"stream.spill_frac", "ratio"},
    {"stream.spill_mb", "MiB"},
    {"stream.spill_io_ms", "ms"},
    {"stream.barrier_wait_ms", "ms"},
    {"stream.send_frame_ms", "ms"},
    {"stream.recv_frame_ms", "ms"},
    {"stream.budget_parks", "count"},
    {"stream.retries", "count"},
    {"net.window_stalls", "count"},
    {"net.coalesced_frac", "ratio"},
    {"net.conns", "count"},
    {"table.encode_ms", "ms"},
    {"table.decode_ms", "ms"},
    {"table.encoded_bytes_per_row", "B/row"},
    {"dfs.write_ms", "ms"},
    {"dfs.bytes_per_row", "B/row"},
    {"ml.text_ingest_ms", "ms"},
    {"ml.to_dataset_ms", "ms"},
    {"ml.local_split_frac", "ratio"},
    {"serving.connect_ms", "ms"},
    {"serving.server_sql_ms", "ms"},
    {"serving.queue_wait_ms", "ms"},
    {"serving.unattributed_ms", "ms"},
    {"serving.rejected", "count"},
    {"serving.repeat_frac", "ratio"},
    {"serving.latency_p99_ms", "ms"},
    {"pipeline.overlap_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

/// Per-layer samples, one per traced operation; reported as medians.
using Samples = std::map<std::string, std::vector<double>>;

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool hygiene_ok = true;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> meta;  // Pre-rendered JSON values.
};

void PrintResult(const Args& args, const RunResult& result) {
  std::string meta = "{\"meta\":{\"workload\":\"" + args.workload +
                     "\",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + FormatNumber(args.seconds) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, value] : result.meta) {
    meta += ",\"" + key + "\":" + value;
  }
  meta += "}}";
  std::printf("%s\n", meta.c_str());

  const bool correct = result.failed == 0 && result.hygiene_ok;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!first) line += ", ";
    first = false;
    line += std::string("\"") + spec.name + "\": {\"value\": " +
            FormatNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- Pipeline workloads (fig3_stream, fig3_dfs, fig4_full_hit) ----------------

TransformRequest PaperRequest() {
  TransformRequest request;
  request.prep_sql = CartsPrepQuery();
  request.recode_columns = {"gender", kLabelColumn};
  request.codings["gender"] = CodingScheme::kDummy;
  return request;
}

struct PipelineWorkload {
  ConnectApproach approach = ConnectApproach::kInSqlStream;
  bool full_cache = false;
};

/// Everything set-up leaves behind for the timed loop.
struct PipelineSetup {
  std::unique_ptr<Env> env;
  Fingerprint reference;
  std::string transformed_sql;  // Rewritten query of the reference.
  TablePtr transformed;         // Reference result (traced runs only).
  size_t transformed_rows = 0;
};

struct OpOutcome {
  bool ok = false;
  double to_dataset_ms = 0;
  double total_ms = 0;
  size_t points = 0;
};

class PipelineRunner {
 public:
  PipelineRunner(const Args& args, PipelineWorkload workload)
      : args_(args), workload_(workload) {}

  RunResult Run();

 private:
  PipelineOptions OpOptions(int64_t op_index) const {
    PipelineOptions options;
    options.approach = workload_.approach;
    options.use_cache = workload_.full_cache;
    options.cache_full_result = workload_.full_cache;
    options.scratch_path = "op" + std::to_string(op_index);
    return options;
  }

  QueryRewriter::Source ExpectedSource() const {
    return workload_.full_cache ? QueryRewriter::Source::kFullResultCache
                                : QueryRewriter::Source::kComputed;
  }

  void Setup();
  OpOutcome RunOp(QueryRewriter::Source expected, bool corrupt = false);
  void TracedIteration(RegistryResetter* registry, Samples* samples);

  const Args& args_;
  PipelineWorkload workload_;
  TransformRequest request_ = PaperRequest();
  PipelineSetup setup_;
  int64_t next_op_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

void PipelineRunner::Setup() {
  const int64_t carts = args_.carts > 0 ? args_.carts : kPipelineCarts;
  setup_ = PipelineSetup{};  // Tears down the previous set-up first.
  ReleaseFreedMemory();
  setup_.env = std::make_unique<Env>(args_.workdir + "/cluster", carts,
                                     args_.seed);
  Env& env = *setup_.env;

  // Reference: the rewritten query executed directly on the engine.
  QueryRewriter rewriter(env.engine_ptr(), nullptr);
  QueryRewriter::Rewrite rewrite =
      Take(rewriter.RewriteWithCache(request_), "reference rewrite");
  setup_.transformed_sql = rewrite.transformed_sql;
  TablePtr table = Take(
      env.engine()->ExecuteSql(rewrite.transformed_sql, "bench_transformed"),
      "reference query");
  if (rewrite.recode_map.Cardinality(kLabelColumn) == 0) {
    Die("label column is not recoded");
  }
  setup_.reference = ReferenceFingerprint(*table);
  setup_.transformed_rows = table->TotalRows();
  if (setup_.reference.count == 0) Die("reference result is empty");
  if (args_.trace) {
    env.engine()->catalog()->PutTable(table);
    setup_.transformed = table;
  }

  // §5.1: the first run materializes the transformed result and registers
  // it; every later run is a full-result cache hit.
  if (workload_.full_cache) {
    if (!RunOp(QueryRewriter::Source::kComputed).ok) {
      Die("cache population failed");
    }
  }
  // Warmup: lazy UDF registration, pool dials, allocator.
  if (!RunOp(ExpectedSource()).ok) Die("warmup operation failed");
}

OpOutcome PipelineRunner::RunOp(QueryRewriter::Source expected,
                                 bool corrupt) {
  const int64_t op_index = next_op_++;
  AnalyticsPipeline* pipeline = setup_.env->pipeline();
  OpOutcome outcome;
  Stopwatch total;
  auto prepared = pipeline->Prepare(request_, OpOptions(op_index));
  Stopwatch to_dataset;
  Result<ml::Dataset> dataset =
      prepared.ok() ? AnalyticsPipeline::ToDataset(*prepared, kLabelColumn)
                    : Result<ml::Dataset>(prepared.status());
  outcome.to_dataset_ms = ElapsedMs(to_dataset);
  outcome.total_ms = ElapsedMs(total);

  // Outside the timed interval: check, then drop this operation's DFS files.
  if (!dataset.ok()) {
    std::fprintf(stderr, "op %lld: %s\n", static_cast<long long>(op_index),
                 dataset.status().ToString().c_str());
  } else {
    if (corrupt && !dataset->mutable_partitions().empty() &&
        !dataset->mutable_partitions()[0].empty()) {
      dataset->mutable_partitions()[0][0].label += 1.0;
    }
    outcome.points = dataset->TotalPoints();
    outcome.ok = FingerprintOf(*dataset) == setup_.reference &&
                 prepared->source == expected;
    if (!outcome.ok) {
      std::fprintf(stderr, "op %lld: result differs from the reference\n",
                   static_cast<long long>(op_index));
    }
  }
  const DfsPtr& dfs = setup_.env->dfs();
  for (const std::string& path : dfs->List("op" + std::to_string(op_index))) {
    DieIf(dfs->Delete(path), "dfs delete");
  }
  return outcome;
}

/// Codec probe: the transformed table cut into frames the size the sink
/// sends (StreamSinkOptions::send_buffer_bytes), encoded then decoded.
struct CodecTiming {
  double encode_ms = 0;
  double decode_ms = 0;
  double bytes = 0;
  size_t rows = 0;
};

CodecTiming RunCodec(const std::vector<ColumnBatch>& frames,
                     const SchemaPtr& schema) {
  CodecTiming timing;
  ColumnarChannelEncoder encoder(schema);
  std::vector<std::string> payloads(frames.size());
  Stopwatch encode;
  for (size_t i = 0; i < frames.size(); ++i) {
    DieIf(encoder.EncodeBatch(frames[i], &payloads[i]), "encode");
  }
  timing.encode_ms = ElapsedMs(encode);
  ColumnarChannelDecoder decoder;
  ColumnBatch decoded;
  Stopwatch decode;
  for (const std::string& payload : payloads) {
    DieIf(decoder.DecodeBatch(payload, schema, &decoded), "decode");
    timing.rows += decoded.num_rows();
  }
  timing.decode_ms = ElapsedMs(decode);
  for (const std::string& payload : payloads) {
    timing.bytes += static_cast<double>(payload.size());
  }
  return timing;
}

std::vector<ColumnBatch> ToFrames(const Table& table, size_t frame_bytes) {
  std::vector<ColumnBatch> frames;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    ColumnBatch batch(table.schema());
    for (const Row& row : table.partition(p)) {
      DieIf(batch.AppendRow(row), "frame append");
      if (batch.ByteSize() >= frame_bytes) {
        frames.push_back(std::move(batch));
        batch = ColumnBatch(table.schema());
      }
    }
    if (!batch.empty()) frames.push_back(std::move(batch));
  }
  return frames;
}

/// One traced operation plus isolated calls into each layer it crosses.
void PipelineRunner::TracedIteration(RegistryResetter* registry,
                                     Samples* samples) {
  Env& env = *setup_.env;
  SqlEngine* engine = env.engine();
  const bool streams = workload_.approach == ConnectApproach::kInSqlStream;
  const bool computes = !workload_.full_cache;
  auto add = [samples](const char* name, double value) {
    (*samples)[name].push_back(value);
  };

  // The full operation, counters per operation.
  registry->Reset();
  const TransformCache& cache = *env.pipeline()->cache();
  const int64_t hits_before = cache.full_hits();
  const int64_t others_before = cache.misses() + cache.map_hits();
  const OpOutcome op = RunOp(ExpectedSource(), attempted_++ == args_.corrupt_op);
  if (!op.ok) ++failed_;
  add("pipeline.op_ms", op.total_ms);
  add("ml.to_dataset_ms", op.to_dataset_ms);
  add("sql.rows_emitted", static_cast<double>(Count("sql.executor.rows_emitted")));
  add("sql.misestimates", static_cast<double>(Count("sql.planner.misestimates")));
  const double hits = static_cast<double>(cache.full_hits() - hits_before);
  const double others =
      static_cast<double>(cache.misses() + cache.map_hits() - others_before);
  add("cache.hit_frac", Ratio(hits, hits + others));
  const double frames_sent = static_cast<double>(Count("stream.wire.frames_sent"));
  add("stream.bytes_per_row",
      Ratio(static_cast<double>(Count("stream.sink.bytes_sent")),
            static_cast<double>(Count("stream.sink.rows_sent"))));
  add("stream.spill_frac",
      Ratio(static_cast<double>(Count("stream.spill.spilled_frames")),
            frames_sent));
  add("stream.spill_mb",
      static_cast<double>(Count("stream.spill.spilled_bytes")) / (1 << 20));
  add("stream.spill_io_ms", HistSumMs("stream.spill.write_micros") +
                                HistSumMs("stream.spill.read_micros"));
  add("stream.barrier_wait_ms", HistSumMs("coordinator.barrier_wait_micros"));
  add("stream.send_frame_ms", HistSumMs("stream.wire.send_frame_micros"));
  add("stream.recv_frame_ms", HistSumMs("stream.wire.recv_frame_micros"));
  add("stream.budget_parks",
      static_cast<double>(Count("stream.spill.budget_parks")));
  add("stream.retries", static_cast<double>(Count("stream.reconnects") +
                                            Count("coordinator.rematch.count")));
  add("net.window_stalls", static_cast<double>(Count("net.mux.window_stalls")));
  add("net.coalesced_frac",
      Ratio(static_cast<double>(Count("net.mux.coalesced_frames")), frames_sent));
  add("net.conns", static_cast<double>(registry->PeakConns()));
  add("ml.local_split_frac",
      Ratio(static_cast<double>(Count("ml.ingest.local_splits")),
            static_cast<double>(Count("ml.ingest.splits"))));

  // Isolated layer calls. Their sum, against the pipelined operation, gives
  // how much of the layer work overlapped.
  double isolated_ms = op.to_dataset_ms;

  Stopwatch plan;
  Take(engine->Plan(request_.prep_sql), "plan");
  add("sql.plan_ms", ElapsedMs(plan));

  QueryRewriter cached_rewriter(env.engine_ptr(), env.pipeline()->cache());
  QueryRewriter uncached_rewriter(env.engine_ptr(), nullptr);
  Stopwatch rewrite;
  Take((workload_.full_cache ? cached_rewriter : uncached_rewriter)
           .RewriteWithCache(request_),
       "rewrite");
  const double rewrite_ms = ElapsedMs(rewrite);
  add("rewriter.rewrite_ms", rewrite_ms);
  isolated_ms += rewrite_ms;

  if (computes) {
    Stopwatch prep_exec;
    TablePtr prep = Take(engine->ExecuteSql(request_.prep_sql, "prep"), "prep");
    add("sql.prep_exec_ms", ElapsedMs(prep_exec));

    InSqlTransformer transformer(env.engine_ptr());
    Stopwatch recode;
    RecodeMap map = Take(
        transformer.ComputeRecodeMap(request_.prep_sql, request_.recode_columns),
        "recode map");
    add("transform.recode_map_ms", ElapsedMs(recode));

    Stopwatch apply;
    TablePtr transformed = Take(
        engine->ExecuteSql(setup_.transformed_sql, "transformed"), "apply");
    const double apply_ms = ElapsedMs(apply);
    add("transform.apply_exec_ms", apply_ms);
    isolated_ms += apply_ms;
    if (transformed->TotalRows() != setup_.transformed_rows) {
      Die("transformed row count differs from the reference");
    }

    // Kernels over the prep result: recode both categorical columns, then
    // dummy-code gender.
    const int gender = prep->schema()->FieldIndex("gender");
    const int label = prep->schema()->FieldIndex(kLabelColumn);
    if (gender < 0 || label < 0) Die("prep result lacks recoded columns");
    const RecodeMap::ColumnDict* gender_dict = map.FindColumn("gender");
    const RecodeMap::ColumnDict* label_dict = map.FindColumn(kLabelColumn);
    if (gender_dict == nullptr || label_dict == nullptr) Die("recode map");
    const auto matrix = Take(
        CodingMatrix(CodingScheme::kDummy, gender_dict->cardinality()), "matrix");
    std::vector<ColumnBatch> batches;
    for (size_t p = 0; p < prep->num_partitions(); ++p) {
      batches.push_back(
          Take(ColumnBatch::FromRows(prep->schema(), prep->partition(p)),
               "prep batch"));
    }
    Column recoded_gender;
    Column recoded_label;
    std::vector<Column> coded;
    Stopwatch kernels;
    for (const ColumnBatch& batch : batches) {
      DieIf(RecodeColumnKernel(batch.column(static_cast<size_t>(gender)),
                               batch.num_rows(), "gender", *gender_dict,
                               &recoded_gender),
            "recode kernel");
      DieIf(RecodeColumnKernel(batch.column(static_cast<size_t>(label)),
                               batch.num_rows(), kLabelColumn, *label_dict,
                               &recoded_label),
            "recode kernel");
      DieIf(ApplyCodingKernel(recoded_gender, batch.num_rows(),
                              gender_dict->cardinality(), matrix,
                              DataType::kInt64, &coded),
            "coding kernel");
    }
    add("transform.kernel_ms", ElapsedMs(kernels));
  }

  const double rows = static_cast<double>(setup_.transformed_rows);
  if (streams) {
    Stopwatch transfer;
    StreamTransferResult streamed =
        Take(StreamingTransfer::Run(engine, "SELECT * FROM bench_transformed"),
             "transfer");
    const double transfer_ms = ElapsedMs(transfer);
    add("stream.transfer_ms", transfer_ms);
    isolated_ms += transfer_ms;
    if (streamed.dataset.TotalRows() != setup_.transformed_rows) {
      Die("streamed row count differs from the reference");
    }

    const StreamSinkOptions sink;
    const CodecTiming codec =
        RunCodec(ToFrames(*setup_.transformed, sink.send_buffer_bytes),
                 setup_.transformed->schema());
    if (codec.rows != setup_.transformed_rows) Die("codec lost rows");
    add("table.encode_ms", codec.encode_ms);
    add("table.decode_ms", codec.decode_ms);
    add("table.encoded_bytes_per_row", Ratio(codec.bytes, rows));
  } else {
    const DfsPtr& dfs = env.dfs();
    const std::string path = "probe" + std::to_string(attempted_);
    const uint64_t bytes_before = dfs->TotalBytesWritten();
    Stopwatch write;
    Take(WriteTableToDfs(dfs.get(), *setup_.transformed, path), "dfs write");
    const double write_ms = ElapsedMs(write);
    add("dfs.write_ms", write_ms);
    isolated_ms += write_ms;
    add("dfs.bytes_per_row",
        Ratio(static_cast<double>(dfs->TotalBytesWritten() - bytes_before), rows));

    ml::TextFileInputFormat format(dfs, path, setup_.transformed->schema());
    ml::JobContext context;
    context.cluster = env.cluster();
    context.metrics = engine->metrics();
    ml::MlJobRunner runner(context);
    Stopwatch ingest;
    ml::IngestResult ingested = Take(runner.Ingest(&format), "text ingest");
    const double ingest_ms = ElapsedMs(ingest);
    add("ml.text_ingest_ms", ingest_ms);
    isolated_ms += ingest_ms;
    if (ingested.dataset.TotalRows() != setup_.transformed_rows) {
      Die("ingested row count differs from the reference");
    }
    for (const std::string& file : dfs->List(path)) {
      DieIf(dfs->Delete(file), "dfs delete");
    }
  }
  add("pipeline.overlap_frac", 1.0 - Ratio(op.total_ms, isolated_ms));
}

RunResult PipelineRunner::Run() {
  RunResult result;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch watch;
    Setup();
    setup_s.push_back(watch.ElapsedSeconds());
  }

  RegistryResetter registry;
  std::vector<double> latencies_ms;
  double points = 0;
  Samples samples;
  Stopwatch wall;
  do {
    // Untraced operation; in a traced run it alternates with the traced one
    // and gives trace.overhead_frac its baseline.
    const OpOutcome op =
        RunOp(ExpectedSource(), attempted_++ == args_.corrupt_op);
    if (!op.ok) {
      ++failed_;
    } else {
      latencies_ms.push_back(op.total_ms);
      points += static_cast<double>(op.points);
    }
    if (args_.trace) TracedIteration(&registry, &samples);
  } while (wall.ElapsedSeconds() < args_.seconds);
  const double wall_s = wall.ElapsedSeconds();

  result.hygiene_ok = HygieneHolds(*setup_.env, registry);

  double op_sum_ms = 0;
  for (double ms : latencies_ms) op_sum_ms += ms;
  result.attempted = attempted_;
  result.failed = failed_;
  result.metrics["setup_s"] = Median(setup_s);
  result.metrics["latency_p50_ms"] = Median(latencies_ms);
  result.metrics["latency_p90_ms"] = Quantile(latencies_ms, 0.9);
  result.metrics["rows_per_s"] = Ratio(points, op_sum_ms / 1000.0);
  result.metrics["goodput_qps"] =
      Ratio(static_cast<double>(latencies_ms.size()), wall_s);
  result.metrics["peak_rss_mb"] = PeakRssMb();
  for (const auto& [name, values] : samples) {
    result.metrics[name] = Median(values);
  }
  if (args_.trace) {
    result.metrics["trace.overhead_frac"] =
        Ratio(Median(samples["pipeline.op_ms"]), Median(latencies_ms)) - 1.0;
  }
  const int64_t carts = args_.carts > 0 ? args_.carts : kPipelineCarts;
  result.meta["carts"] = std::to_string(carts);
  result.meta["users"] = std::to_string(UsersFor(carts));
  result.meta["labeled_points"] = std::to_string(setup_.reference.count);
  result.meta["timed_ops"] = std::to_string(latencies_ms.size());
  result.meta["setups"] = std::to_string(kSetups);
  return result;
}

// --- serve_4: the query server under 4 closed-loop clients --------------------

/// A seeded range-predicate GROUP BY over carts. Every range is wide enough
/// that all three years appear, so each result has three rows.
std::string ServeQuery(Random* rng) {
  const int lo = static_cast<int>(rng->UniformInt(0, 399));
  const int width = static_cast<int>(rng->UniformInt(40, 100));
  const int min_items = static_cast<int>(rng->UniformInt(1, 8));
  return "SELECT year, COUNT(*), SUM(amount), MAX(nitems) FROM carts "
         "WHERE amount BETWEEN " + std::to_string(lo) + " AND " +
         std::to_string(lo + width) + " AND nitems >= " +
         std::to_string(min_items) + " GROUP BY year";
}

struct QuerySample {
  size_t text = 0;  // Index into the query pool.
  double latency_ms = 0;
  double connect_ms = 0;
  bool traced = false;
};

class ServeRunner {
 public:
  explicit ServeRunner(const Args& args) : args_(args) {}
  ~ServeRunner() { Teardown(); }

  ServeRunner(const ServeRunner&) = delete;
  ServeRunner& operator=(const ServeRunner&) = delete;

  RunResult Run();

 private:
  void Setup();
  void Teardown() {
    if (server_) server_->Stop();
    server_.reset();
    env_.reset();
    texts_.clear();
    expected_.clear();
  }
  void Client(int id, double seconds, std::vector<QuerySample>* samples);

  const Args& args_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<QueryServer> server_;
  std::vector<std::string> texts_;
  std::vector<std::vector<Row>> expected_;  // ExecuteSql result per text.
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> rows_delivered_{0};
  std::atomic<int64_t> next_query_{0};
};

void ServeRunner::Setup() {
  const int64_t carts = args_.carts > 0 ? args_.carts : kServeCarts;
  Teardown();
  ReleaseFreedMemory();
  env_ = std::make_unique<Env>(args_.workdir + "/cluster", carts, args_.seed);
  Random rng(args_.seed * 0x9e3779b9ULL + 17);
  for (int i = 0; i < kServeQueryPool; ++i) {
    texts_.push_back(ServeQuery(&rng));
    TablePtr table =
        Take(env_->engine()->ExecuteSql(texts_.back()), "serve reference");
    expected_.push_back(table->GatherRows());
  }
  server_ = Take(QueryServer::Start(env_->engine(), {}), "server");
  auto client =
      Take(QueryClient::Connect("127.0.0.1", server_->port()), "warmup connect");
  auto response = Take(client.Execute(texts_[0]), "warmup query");
  if (!SameRows(response.rows, expected_[0])) Die("warmup result differs");
}

void ServeRunner::Client(int id, double seconds,
                         std::vector<QuerySample>* samples) {
  Random rng(args_.seed * 1000003ULL + static_cast<uint64_t>(id));
  const int port = server_->port();
  Stopwatch wall;
  bool traced = false;
  while (wall.ElapsedSeconds() < seconds) {
    traced = args_.trace && !traced;
    const size_t index = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(texts_.size()) - 1));
    const int64_t query_index = next_query_.fetch_add(1);
    ++attempted_;
    QuerySample sample;
    sample.text = index;
    sample.traced = traced;
    Stopwatch latency;
    auto client = QueryClient::Connect("127.0.0.1", port);
    if (traced) sample.connect_ms = ElapsedMs(latency);
    Result<QueryClient::Response> response =
        client.ok() ? client->Execute(texts_[index])
                    : Result<QueryClient::Response>(client.status());
    sample.latency_ms = ElapsedMs(latency);
    if (!response.ok()) {
      std::fprintf(stderr, "query %lld: %s\n",
                   static_cast<long long>(query_index),
                   response.status().ToString().c_str());
      ++failed_;
      continue;
    }
    if (query_index == args_.corrupt_op && !response->rows.empty() &&
        !response->rows[0].empty()) {
      response->rows[0][0] = Value::Int64(-1);
    }
    if (!SameRows(response->rows, expected_[index])) {
      std::fprintf(stderr, "query %lld: result differs from ExecuteSql\n",
                   static_cast<long long>(query_index));
      ++failed_;
      continue;
    }
    rows_delivered_ += static_cast<int64_t>(response->rows.size());
    samples->push_back(sample);
  }
}

RunResult ServeRunner::Run() {
  RunResult result;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch watch;
    Setup();
    setup_s.push_back(watch.ElapsedSeconds());
  }

  RegistryResetter registry;
  if (args_.trace) registry.Reset();
  std::vector<std::vector<QuerySample>> per_client(kServeClients);
  Stopwatch wall;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kServeClients; ++c) {
      clients.emplace_back(&ServeRunner::Client, this, c, args_.seconds,
                           &per_client[static_cast<size_t>(c)]);
    }
    for (std::thread& client : clients) client.join();
  }
  const double wall_s = wall.ElapsedSeconds();

  std::vector<double> latencies_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> connect_ms;
  std::vector<bool> text_used(texts_.size(), false);
  for (const auto& samples : per_client) {
    for (const QuerySample& sample : samples) {
      text_used[sample.text] = true;
      latencies_ms.push_back(sample.latency_ms);
      (sample.traced ? traced_ms : untraced_ms).push_back(sample.latency_ms);
      if (sample.traced) connect_ms.push_back(sample.connect_ms);
    }
  }

  result.hygiene_ok = HygieneHolds(*env_, registry);
  result.attempted = attempted_.load();
  result.failed = failed_.load();
  result.metrics["setup_s"] = Median(setup_s);
  result.metrics["latency_p50_ms"] = Median(latencies_ms);
  result.metrics["latency_p90_ms"] = Quantile(latencies_ms, 0.9);
  result.metrics["rows_per_s"] =
      Ratio(static_cast<double>(rows_delivered_.load()), wall_s);
  result.metrics["goodput_qps"] =
      Ratio(static_cast<double>(latencies_ms.size()), wall_s);
  result.metrics["peak_rss_mb"] = PeakRssMb();

  if (args_.trace) {
    MetricsRegistry& metrics = MetricsRegistry::Global();
    const double queries = static_cast<double>(latencies_ms.size());
    const double client_p50 = Median(traced_ms);
    const double server_sql_ms =
        metrics.GetHistogram("sql.query_micros")->GetSnapshot().p50 / 1000.0;
    result.metrics["sql.rows_emitted"] =
        Ratio(static_cast<double>(Count("sql.executor.rows_emitted")), queries);
    result.metrics["sql.misestimates"] =
        Ratio(static_cast<double>(Count("sql.planner.misestimates")), queries);
    result.metrics["serving.connect_ms"] = Median(connect_ms);
    result.metrics["serving.server_sql_ms"] = server_sql_ms;
    result.metrics["serving.queue_wait_ms"] =
        metrics.GetHistogram("serving.queue_wait_ms")->GetSnapshot().p50;
    result.metrics["serving.unattributed_ms"] =
        client_p50 - Median(connect_ms) - server_sql_ms;
    result.metrics["serving.rejected"] =
        static_cast<double>(Count("serving.rejected"));
    result.metrics["serving.repeat_frac"] =
        1.0 - Ratio(static_cast<double>(std::count(text_used.begin(),
                                                   text_used.end(), true)),
                    queries);
    result.metrics["serving.latency_p99_ms"] = Quantile(latencies_ms, 0.99);
    result.metrics["trace.overhead_frac"] =
        Ratio(client_p50, Median(untraced_ms)) - 1.0;
    std::vector<double> plan_ms;
    for (const std::string& text : texts_) {
      Stopwatch plan;
      Take(env_->engine()->Plan(text), "plan");
      plan_ms.push_back(ElapsedMs(plan));
    }
    result.metrics["sql.plan_ms"] = Median(plan_ms);
  }
  const int64_t carts = args_.carts > 0 ? args_.carts : kServeCarts;
  result.meta["carts"] = std::to_string(carts);
  result.meta["users"] = std::to_string(UsersFor(carts));
  result.meta["clients"] = std::to_string(kServeClients);
  result.meta["query_pool"] = std::to_string(kServeQueryPool);
  result.meta["timed_ops"] = std::to_string(latencies_ms.size());
  result.meta["setups"] = std::to_string(kSetups);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  SetLogLevel(LogLevel::kError);

  RunResult result;
  if (args.workload == "fig3_stream") {
    result = PipelineRunner(args, {ConnectApproach::kInSqlStream, false}).Run();
  } else if (args.workload == "fig3_dfs") {
    result = PipelineRunner(args, {ConnectApproach::kInSql, false}).Run();
  } else if (args.workload == "fig4_full_hit") {
    result = PipelineRunner(args, {ConnectApproach::kInSqlStream, true}).Run();
  } else if (args.workload == "serve_4") {
    result = ServeRunner(args).Run();
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  PrintResult(args, result);
  return result.failed == 0 && result.hygiene_ok ? 0 : 1;
}
