#include "ml/job.h"

#include <optional>

#include "common/logging.h"
#include "common/retry_policy.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace sqlink::ml {

namespace {

/// Consumes one split into `partition`, truncating it first to the reader's
/// negotiated resume point (rows an earlier incarnation already applied and
/// the transport will not re-deliver). Whole batches are appended when the
/// reader supports batch delivery; otherwise rows are appended one at a
/// time into the same typed vectors.
Status ReadSplit(InputFormat* format, const JobContext& context,
                 const InputSplit& split, int index, ColumnBatch* partition) {
  if (partition->schema() == nullptr) partition->Reset(format->schema());
  ASSIGN_OR_RETURN(std::unique_ptr<RecordReader> reader,
                   format->CreateReader(context, split, index));
  RETURN_IF_ERROR(reader->Open());
  const uint64_t resume_rows = reader->resume_row_count();
  if (partition->num_rows() < resume_rows) {
    // Rows were acknowledged but never reached this buffer — replay cannot
    // reproduce them.
    return Status::DataLoss(
        "split " + std::to_string(index) + " resumes at row " +
        std::to_string(resume_rows) + " but only " +
        std::to_string(partition->num_rows()) + " rows were applied");
  }
  // The dead reader got further than its last ack; the suffix will be
  // replayed, so drop it to keep apply exactly-once.
  partition->Truncate(resume_rows);
  if (reader->SupportsBatches()) {
    ColumnBatch batch;
    for (;;) {
      ASSIGN_OR_RETURN(bool has, reader->NextBatch(&batch));
      if (!has) break;
      RETURN_IF_ERROR(partition->AppendBatch(batch));
    }
  } else {
    Row row;
    for (;;) {
      ASSIGN_OR_RETURN(bool has, reader->Next(&row));
      if (!has) break;
      RETURN_IF_ERROR(partition->AppendRow(row));
    }
  }
  return Status::OK();
}

/// The ingest phase's instruments, resolved once per ingest.
struct IngestInstruments {
  explicit IngestInstruments(MetricsRegistry* registry)
      : split_micros(registry->GetHistogram("ml.ingest.split_micros")),
        rows(registry->GetCounter("ml.ingest.rows")),
        splits(registry->GetCounter("ml.ingest.splits")),
        local_splits(registry->GetCounter("ml.ingest.local_splits")),
        recovered_splits(registry->GetCounter("ml.ingest.recovered_splits")) {}

  Histogram* split_micros;
  Counter* rows;
  Counter* splits;
  Counter* local_splits;
  Counter* recovered_splits;
};

/// The ingest phase: GetSplits → parallel read → §6 reassignment → stats.
Result<IngestStats> RunIngestPhases(InputFormat* format,
                                    const JobContext& context,
                                    std::vector<ColumnBatch>* partitions) {
  TraceSpan ingest_span("ml.ingest");
  const TraceContext ingest_ctx = ingest_span.context();
  ASSIGN_OR_RETURN(std::vector<InputSplitPtr> splits,
                   format->GetSplits(context));
  if (splits.empty()) {
    return Status::InvalidArgument("input format produced no splits");
  }
  const size_t m = splits.size();

  IngestStats stats;
  stats.num_splits = static_cast<int>(m);
  partitions->resize(m);

  // Worker i consumes split i. With a cluster, count how many workers run
  // local to their data (a worker's node is its split's first preferred
  // location when one exists — best-effort placement).
  if (context.cluster != nullptr) {
    for (const InputSplitPtr& split : splits) {
      for (const std::string& host : split->Locations()) {
        if (context.cluster->NodeFromHostName(host) >= 0) {
          ++stats.local_splits;
          break;
        }
      }
    }
  }

  const std::optional<IngestInstruments> instruments =
      context.metrics != nullptr
          ? std::optional<IngestInstruments>(std::in_place, context.metrics)
          : std::nullopt;
  std::vector<Status> statuses(m);
  ParallelFor(m, [&](size_t i) {
    // Pool threads have no open span; parent the per-split read ("one ML
    // iteration" of the ingest phase) to the ingest span explicitly. The
    // reader it wraps is destroyed before the span ends (LIFO nesting).
    TraceSpan split_span("ml.ingest.split", ingest_ctx);
    split_span.AddAttribute("split", static_cast<int64_t>(i));
    Stopwatch timer;
    statuses[i] = ReadSplit(format, context, *splits[i], static_cast<int>(i),
                            &(*partitions)[i]);
    if (!statuses[i].ok()) split_span.SetError();
    split_span.AddAttribute(
        "rows", static_cast<int64_t>((*partitions)[i].num_rows()));
    if (instruments) instruments->split_micros->Record(timer.ElapsedMicros());
  });

  // --- §6 split reassignment: failed splits are re-pulled from their
  // producers' frame logs by replacement readers. Sequential, and only
  // after every original reader has unwound: a fenced ("zombie") reader must
  // have stopped touching its partition before a replacement resumes it. ---
  size_t failed = 0;
  for (const Status& status : statuses) {
    if (!status.ok()) ++failed;
  }
  if (failed > 0 && !format->SupportsReassignment()) {
    // No replacement reader is coming: tell the producers, so a sink
    // waiting for this split's reconnect fails now with the reader's error
    // instead of sleeping out its reconnect window.
    for (const Status& status : statuses) {
      if (status.ok()) continue;
      format->AbortTransfer(status);
      return status;
    }
  }
  if (failed > 0) {
    RetryPolicy::Options poll_options;
    poll_options.initial_delay_ms = 5;
    poll_options.max_delay_ms = 100;
    poll_options.jitter = 0.0;
    poll_options.deadline_ms = static_cast<int>(EnvInt64(
        "SQLINK_RECOVERY_DEADLINE_MS", 30000));
    if (auto it = context.config.find("recovery_deadline_ms");
        it != context.config.end()) {
      if (Result<int64_t> ms = ParseInt64(it->second); ms.ok()) {
        poll_options.deadline_ms = static_cast<int>(*ms);
      }
    }
    RetryPolicy poll(poll_options);
    while (failed > 0) {
      Result<ReassignedSplit> acquired = format->AcquireReassigned();
      if (!acquired.ok()) return acquired.status();  // Typed abort.
      if (acquired->split == nullptr) {
        // Nothing reassignable yet — the coordinator may still be waiting
        // out a lease. Deadline-capped backoff, then give up loudly so
        // every participant stops waiting.
        if (!poll.Backoff()) {
          Status timeout = Status::Aborted(
              "split recovery timed out with " + std::to_string(failed) +
              " split(s) unrecovered");
          format->AbortTransfer(timeout);
          return timeout;
        }
        continue;
      }
      const auto idx = static_cast<size_t>(acquired->index);
      if (idx >= m) {
        return Status::Internal("reassigned split index out of range");
      }
      TraceSpan recover_span("recover_split", ingest_ctx);
      recover_span.AddAttribute("split", static_cast<int64_t>(idx));
      const bool was_failed = !statuses[idx].ok();
      statuses[idx] = ReadSplit(format, context, *acquired->split,
                                static_cast<int>(idx), &(*partitions)[idx]);
      if (statuses[idx].ok()) {
        if (was_failed) --failed;
        ++stats.recovered_splits;
        if (instruments) instruments->recovered_splits->Increment();
      } else {
        recover_span.SetError();
        if (!was_failed) ++failed;
        LOG_WARNING() << "reassigned split " << idx
                      << " failed again: " << statuses[idx];
      }
    }
  }
  for (const Status& status : statuses) {
    RETURN_IF_ERROR(status);
  }
  for (const ColumnBatch& partition : *partitions) {
    stats.rows += partition.num_rows();
  }
  if (instruments) {
    instruments->rows->Add(static_cast<int64_t>(stats.rows));
    instruments->splits->Add(stats.num_splits);
    instruments->local_splits->Add(stats.local_splits);
  }
  return stats;
}

}  // namespace

Result<IngestResult> MlJobRunner::Ingest(InputFormat* format) {
  IngestResult result;
  ASSIGN_OR_RETURN(result.stats, RunIngestPhases(format, context_,
                                                 &result.dataset.partitions));
  result.dataset.schema = format->schema();
  return result;
}

}  // namespace sqlink::ml
