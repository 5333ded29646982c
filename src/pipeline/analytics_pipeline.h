#ifndef SQLINK_PIPELINE_ANALYTICS_PIPELINE_H_
#define SQLINK_PIPELINE_ANALYTICS_PIPELINE_H_

#include <memory>
#include <string>

#include "cache/transform_cache.h"
#include "common/result.h"
#include "dfs/dfs.h"
#include "ml/dataset.h"
#include "rewriter/query_rewriter.h"
#include "sql/engine.h"
#include "stream/streaming_transfer.h"

namespace sqlink {

/// Which of the paper's three ways of connecting big SQL with big ML to
/// use (Figure 3):
enum class ConnectApproach {
  /// SQL → materialize on DFS → external transform tool (extra job, two
  /// more DFS materializations) → ML reads DFS.
  kNaive,
  /// In-SQL transformation pipelined with the query → materialize on DFS →
  /// ML reads DFS.
  kInSql,
  /// In-SQL transformation + parallel streaming transfer, fully pipelined;
  /// the data never touches the filesystem.
  kInSqlStream,
};

std::string_view ConnectApproachToString(ConnectApproach approach);

struct PipelineOptions {
  ConnectApproach approach = ConnectApproach::kInSqlStream;
  /// Streaming-transfer knobs (kInSqlStream only).
  StreamTransferOptions stream;
  /// Consult / populate the transformation caches (§5).
  bool use_cache = true;
  /// Materialize and register the fully transformed result for §5.1 reuse.
  bool cache_full_result = false;
  /// DFS directory for intermediate files (unique per run).
  std::string scratch_path = "pipeline";
};

/// Wall-clock stage breakdown matching Figure 3's bar segments.
struct StageTimings {
  double prep_seconds = 0;            ///< "prep": SQL query (naive only).
  double transform_seconds = 0;       ///< "trsfm": external tool (naive only).
  double prep_transform_seconds = 0;  ///< "prep+trsfm" (insql approaches;
                                      ///< includes streaming for insql+stream).
  double ml_input_seconds = 0;        ///< "input for ml": DFS read into RDD.
  double total_seconds = 0;
};

struct PipelineResult {
  /// The transformed data in ML-side memory, one ColumnBatch per ML
  /// worker: every approach ingests columnar.
  ml::ColumnDataset dataset;
  RecodeMap recode_map;
  StageTimings timings;
  QueryRewriter::Source source = QueryRewriter::Source::kComputed;
  int64_t dfs_bytes_written = 0;  ///< Intermediate DFS traffic of this run.
};

/// The end-to-end integration pipeline: data preparation SQL → In-SQL
/// transformations (or the external tool) → handover to the ML system —
/// the full system of the paper, selectable per Figure 3's three
/// configurations, with §5 caching layered on top.
class AnalyticsPipeline {
 public:
  AnalyticsPipeline(SqlEnginePtr engine, DfsPtr dfs);

  /// Prepares the ML input for `request` using the chosen approach.
  Result<PipelineResult> Prepare(const TransformRequest& request,
                                 const PipelineOptions& options = {});

  /// Converts a prepared result into a labeled dataset: `label_column` as
  /// 0/1 labels (recoded categorical labels map code 1 → 0, others → 1),
  /// remaining numeric columns as features.
  static Result<ml::Dataset> ToDataset(const PipelineResult& result,
                                       const std::string& label_column);

  TransformCache* cache() { return &cache_; }
  const SqlEnginePtr& engine() const { return engine_; }
  const DfsPtr& dfs() const { return dfs_; }

 private:
  Result<PipelineResult> PrepareNaive(const TransformRequest& request,
                                      const PipelineOptions& options);
  Result<PipelineResult> PrepareInSql(const TransformRequest& request,
                                      const PipelineOptions& options,
                                      bool streaming);

  /// Unique DFS directory per invocation.
  std::string NextScratchDir(const std::string& base);

  SqlEnginePtr engine_;
  DfsPtr dfs_;
  TransformCache cache_;
  QueryRewriter rewriter_;
  int run_counter_ = 0;
  int materialized_counter_ = 0;
};

}  // namespace sqlink

#endif  // SQLINK_PIPELINE_ANALYTICS_PIPELINE_H_
