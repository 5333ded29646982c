#ifndef SQLINK_SQL_EXECUTOR_H_
#define SQLINK_SQL_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/byte_budget.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "sql/batch_iterator.h"
#include "sql/plan.h"
#include "sql/query_stats.h"
#include "table/schema.h"

namespace sqlink {

/// A query result as the executor produces it: per SQL worker, the batches
/// that worker emitted (non-empty, of any size), in order.
using WorkerBatches = std::vector<std::vector<ColumnBatch>>;

/// Rows in every batch of `batches`.
size_t TotalRows(const WorkerBatches& batches);

/// Parallel plan executor. Each of the n SQL workers runs a pipelined
/// BatchIterator chain over its partition: the scan hands out the table's
/// stored chunks, then ColumnBatch operators with selection-vector filters
/// and gather-based joins, feeding table UDFs columns directly. Pipeline
/// breakers (join builds, repartition joins, DISTINCT, aggregation, sort,
/// limit) materialize and exchange ColumnBatches between workers; no
/// operator boxes rows. Table UDFs stay pipelined: each worker pumps its UDF on
/// a dedicated thread through a bounded queue, so a streaming-transfer UDF
/// overlaps with the upstream query work exactly as the paper's
/// insql+stream pipeline does. tests/sql_differential_test.cc holds results
/// to a single-threaded reference interpreter (tests/sql_reference.h).
class Executor {
 public:
  Executor(int num_workers, ClusterPtr cluster, MetricsRegistry* metrics);

  /// Runs the plan and returns its result, one batch list per worker.
  Result<WorkerBatches> Execute(const PlanPtr& plan);

  /// Per-operator stats collection target. When set (and the plan carries
  /// node ids), every operator accumulates rows/batches/time/peak memory
  /// into the matching slot. Not owned; must outlive Execute().
  void set_query_stats(QueryStats* stats) { stats_ = stats; }
  /// Id of the tracked query (flows to table UDFs via TableUdfContext).
  void set_query_id(uint64_t query_id) { query_id_ = query_id; }
  /// Cooperative cancellation source for this query. Worker loops poll it
  /// between batches and blocking operators check it up front, so a
  /// cancelled query unwinds promptly without disturbing neighbors. Not
  /// owned; must outlive Execute(). Also flows to table UDFs via
  /// TableUdfContext.
  void set_cancellation(Cancellation* cancellation) {
    cancellation_ = cancellation;
  }
  /// Per-query spill quota, handed to table UDFs (the streaming sink wires
  /// it into its frame logs). May be null (no quota).
  void set_spill_budget(ByteBudgetPtr budget) {
    spill_budget_ = std::move(budget);
  }

  int num_workers() const { return num_workers_; }

 private:
  struct PipelineState;

  /// The stats slot for `plan`, or nullptr when collection is off or the
  /// plan was never numbered.
  OperatorActuals* NodeActuals(const PlanPtr& plan) const {
    return stats_ == nullptr ? nullptr : stats_->actuals(plan->node_id);
  }

  /// A batch one worker pulled from its pipeline, valid until its next
  /// pull: a stored chunk or the worker's scratch batch.
  struct PulledBatch {
    const ColumnBatch* view;
    ColumnBatch* scratch;
    /// The batch as an owned value: moved out of the scratch batch, or a
    /// copy of the stored chunk.
    ColumnBatch Take() const {
      return view == scratch ? std::move(*scratch) : *view;
    }
  };
  /// Receives each pulled batch; returns whether its worker should pull
  /// more.
  using BatchConsumer =
      std::function<Result<bool>(int worker, const PulledBatch& batch)>;

  /// The one driver of a pipeline's workers: prepares `plan`'s blocking
  /// inputs, then pulls every worker's batches into `consume`, all workers
  /// in parallel or, when `sequential`, one after another until `consume`
  /// declines more (LIMIT's early stop). Before each batch it fires the
  /// `sql.exec.batch` failpoint and checks cancellation. It finishes the
  /// plan's table UDFs whatever happens and counts the rows pulled in
  /// `sql.executor.rows_emitted`.
  Status RunPipeline(const PlanPtr& plan, bool sequential,
                     const BatchConsumer& consume);

  Result<WorkerBatches> ExecuteNode(const PlanPtr& plan);
  Result<WorkerBatches> ExecutePipeline(const PlanPtr& plan);
  /// DISTINCT and aggregation, as two-phase batch hash grouping: each
  /// worker folds its child pipeline's batches into a typed group table,
  /// groups shuffle by key hash, and each target merges and finalizes its
  /// share. DISTINCT groups by every column and computes no aggregate.
  Result<WorkerBatches> ExecuteGrouping(const PlanPtr& plan);
  Result<WorkerBatches> ExecuteSort(const PlanPtr& plan);
  Result<WorkerBatches> ExecuteLimit(const PlanPtr& plan);

  /// Sort-merge equi join: repartition both sides by key, sort each
  /// worker's row-index permutation, merge equal-key runs. Chosen by the
  /// planner's cost model when the build side would blow the hash-build
  /// memory budget.
  Result<WorkerBatches> ExecuteMergeJoin(const PlanPtr& plan);

  Status Prepare(const PlanPtr& plan, PipelineState* state);
  Result<BatchIteratorPtr> BuildBatchPipeline(const PlanPtr& plan, int worker,
                                              PipelineState* state);
  /// Operator construction for one node, without the stats wrapper.
  Result<BatchIteratorPtr> BuildBatchPipelineNode(const PlanPtr& plan,
                                                  int worker,
                                                  PipelineState* state);

  /// Hash-partitions rows by key columns into `num_workers_` slices (with
  /// no keys, source worker p's rows go to p mod n).
  Result<WorkerBatches> Repartition(WorkerBatches input,
                                    const std::vector<int>& keys);

  int num_workers_;
  ClusterPtr cluster_;
  MetricsRegistry* metrics_;
  QueryStats* stats_ = nullptr;
  uint64_t query_id_ = 0;
  Cancellation* cancellation_ = nullptr;
  ByteBudgetPtr spill_budget_;

  /// OK while the query is live; the cancellation status once cancelled.
  Status CheckCancelled() const {
    return cancellation_ == nullptr ? Status::OK() : cancellation_->Check();
  }
};

}  // namespace sqlink

#endif  // SQLINK_SQL_EXECUTOR_H_
