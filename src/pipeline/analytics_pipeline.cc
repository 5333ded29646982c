#include "pipeline/analytics_pipeline.h"

#include "common/logging.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "exttool/external_transform.h"
#include "ml/job.h"
#include "ml/text_input_format.h"
#include "pipeline/table_io.h"
#include "transform/udfs.h"

namespace sqlink {

std::string_view ConnectApproachToString(ConnectApproach approach) {
  switch (approach) {
    case ConnectApproach::kNaive:
      return "naive";
    case ConnectApproach::kInSql:
      return "insql";
    case ConnectApproach::kInSqlStream:
      return "insql+stream";
  }
  return "?";
}

AnalyticsPipeline::AnalyticsPipeline(SqlEnginePtr engine, DfsPtr dfs)
    : engine_(std::move(engine)),
      dfs_(std::move(dfs)),
      rewriter_(engine_, &cache_) {
  SQLINK_CHECK_OK(RegisterTransformUdfs(engine_.get()));
}

std::string AnalyticsPipeline::NextScratchDir(const std::string& base) {
  return base + "/run" + std::to_string(++run_counter_);
}

Result<PipelineResult> AnalyticsPipeline::Prepare(
    const TransformRequest& request, const PipelineOptions& options) {
  switch (options.approach) {
    case ConnectApproach::kNaive:
      return PrepareNaive(request, options);
    case ConnectApproach::kInSql:
      return PrepareInSql(request, options, /*streaming=*/false);
    case ConnectApproach::kInSqlStream:
      return PrepareInSql(request, options, /*streaming=*/true);
  }
  return Status::Internal("unknown approach");
}

Result<PipelineResult> AnalyticsPipeline::PrepareNaive(
    const TransformRequest& request, const PipelineOptions& options) {
  PipelineResult result;
  const std::string scratch = NextScratchDir(options.scratch_path);
  const uint64_t dfs_bytes_before = dfs_->TotalBytesWritten();
  Stopwatch total;
  TraceSpan pipeline_span("pipeline.prepare");
  pipeline_span.AddAttribute("approach", 0);  // kNaive
  ScopedAmbientTrace ambient(pipeline_span.context());

  // Stage "prep": run the SQL query and materialize its result on DFS.
  Stopwatch prep;
  TablePtr prep_table;
  {
    TraceSpan stage("pipeline.prep");
    ASSIGN_OR_RETURN(prep_table,
                     engine_->ExecuteSql(request.prep_sql, "prep_result"));
    ASSIGN_OR_RETURN(
        uint64_t unused_bytes,
        WriteTableToDfs(dfs_.get(), *prep_table, scratch + "/prep"));
    (void)unused_bytes;
  }
  result.timings.prep_seconds = prep.ElapsedSeconds();

  // Stage "trsfm": the external tool (Jaql stand-in) — a separate job with
  // another DFS read + write.
  Stopwatch transform;
  ExternalTransformTool tool(dfs_, engine_->cluster());
  std::map<std::string, CodingScheme> codings(request.codings.begin(),
                                              request.codings.end());
  ExternalTransformTool::Result_ transformed;
  {
    TraceSpan stage("pipeline.transform");
    ASSIGN_OR_RETURN(transformed,
                     tool.Run(scratch + "/prep", prep_table->schema(),
                              request.recode_columns, codings,
                              scratch + "/transformed"));
  }
  result.timings.transform_seconds = transform.ElapsedSeconds();
  result.recode_map = transformed.recode_map;

  // Stage "input for ml": the ML job reads the transformed files from DFS
  // into its in-memory dataset.
  Stopwatch input;
  ml::TextFileInputFormat format(dfs_, scratch + "/transformed",
                                 transformed.output_schema);
  ml::JobContext context;
  context.cluster = engine_->cluster();
  context.metrics = engine_->metrics();
  ml::MlJobRunner runner(context);
  ml::IngestResult ingest;
  {
    TraceSpan stage("pipeline.ml_input");
    ASSIGN_OR_RETURN(ingest, runner.Ingest(&format));
  }
  result.timings.ml_input_seconds = input.ElapsedSeconds();

  result.dataset = std::move(ingest.dataset);
  result.timings.total_seconds = total.ElapsedSeconds();
  result.dfs_bytes_written =
      static_cast<int64_t>(dfs_->TotalBytesWritten() - dfs_bytes_before);
  return result;
}

Result<PipelineResult> AnalyticsPipeline::PrepareInSql(
    const TransformRequest& request, const PipelineOptions& options,
    bool streaming) {
  PipelineResult result;
  const std::string scratch = NextScratchDir(options.scratch_path);
  const uint64_t dfs_bytes_before = dfs_->TotalBytesWritten();
  Stopwatch total;
  TraceSpan pipeline_span("pipeline.prepare");
  pipeline_span.AddAttribute("approach", streaming ? 2 : 1);  // kInSql[Stream]
  ScopedAmbientTrace ambient(pipeline_span.context());

  // Rewrite (§4), consulting the caches (§5) when enabled.
  Stopwatch prep_transform;
  QueryRewriter no_cache_rewriter(engine_, nullptr);
  QueryRewriter& rewriter = options.use_cache ? rewriter_ : no_cache_rewriter;
  ASSIGN_OR_RETURN(QueryRewriter::Rewrite rewrite,
                   rewriter.RewriteWithCache(request));
  result.source = rewrite.source;
  result.recode_map = rewrite.recode_map;

  std::string transformed_sql = rewrite.transformed_sql;
  if (options.cache_full_result &&
      rewrite.source != QueryRewriter::Source::kFullResultCache &&
      options.use_cache) {
    // §5.1: store the fully transformed data as a materialized table and
    // serve this run (and future matching ones) from it.
    const std::string name =
        "transformed_mv_" + std::to_string(++materialized_counter_);
    ASSIGN_OR_RETURN(TablePtr materialized,
                     engine_->MaterializeSql(transformed_sql, name));
    RETURN_IF_ERROR(
        rewriter.CacheFullResult(request, rewrite.recode_map, name));
    transformed_sql = "SELECT * FROM " + name;
  }

  if (streaming) {
    // insql+stream: prep + trsfm + ML input fully pipelined, no DFS. The
    // transfer's own root span ("stream.transfer") parents here through the
    // ambient context.
    TraceSpan stage("pipeline.stream_transfer");
    ASSIGN_OR_RETURN(StreamTransferResult transfer,
                     StreamingTransfer::Run(engine_.get(), transformed_sql,
                                            options.stream));
    result.dataset = std::move(transfer.dataset);
    result.timings.prep_transform_seconds = prep_transform.ElapsedSeconds();
    result.timings.total_seconds = total.ElapsedSeconds();
    result.dfs_bytes_written =
        static_cast<int64_t>(dfs_->TotalBytesWritten() - dfs_bytes_before);
    return result;
  }

  // insql: pipeline query+transform inside the engine, materialize once on
  // DFS, then the ML job reads it back.
  TablePtr transformed;
  {
    TraceSpan stage("pipeline.prep_transform");
    ASSIGN_OR_RETURN(transformed,
                     engine_->ExecuteSql(transformed_sql, "transformed"));
    ASSIGN_OR_RETURN(uint64_t unused_bytes,
                     WriteTableToDfs(dfs_.get(), *transformed,
                                     scratch + "/transformed"));
    (void)unused_bytes;
  }
  result.timings.prep_transform_seconds = prep_transform.ElapsedSeconds();

  Stopwatch input;
  ml::TextFileInputFormat format(dfs_, scratch + "/transformed",
                                 transformed->schema());
  ml::JobContext context;
  context.cluster = engine_->cluster();
  context.metrics = engine_->metrics();
  ml::MlJobRunner runner(context);
  ml::IngestResult ingest;
  {
    TraceSpan stage("pipeline.ml_input");
    ASSIGN_OR_RETURN(ingest, runner.Ingest(&format));
  }
  result.timings.ml_input_seconds = input.ElapsedSeconds();

  result.dataset = std::move(ingest.dataset);
  result.timings.total_seconds = total.ElapsedSeconds();
  result.dfs_bytes_written =
      static_cast<int64_t>(dfs_->TotalBytesWritten() - dfs_bytes_before);
  return result;
}

Result<ml::Dataset> AnalyticsPipeline::ToDataset(
    const PipelineResult& result, const std::string& label_column) {
  ASSIGN_OR_RETURN(
      ml::Dataset dataset,
      ml::Dataset::FromColumnsAutoFeatures(result.dataset, label_column));
  // Recoded labels are 1..K; fold to 0/1 for the binary classifiers
  // (code 1 → 0, everything else → 1).
  if (result.recode_map.Cardinality(label_column) > 0) {
    for (auto& partition : dataset.mutable_partitions()) {
      for (ml::LabeledPoint& point : partition) {
        point.label = point.label <= 1.0 ? 0.0 : 1.0;
      }
    }
  }
  return dataset;
}

}  // namespace sqlink
