#include "sql/executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/blocking_queue.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "sql/batch_kernels.h"

namespace sqlink {

size_t TotalRows(const WorkerBatches& batches) {
  size_t total = 0;
  for (const std::vector<ColumnBatch>& worker : batches) {
    for (const ColumnBatch& batch : worker) total += batch.num_rows();
  }
  return total;
}

namespace {

/// Runs fn(worker) on `n` threads; returns the first error.
Status ParallelWorkers(int n, const std::function<Status(int)>& fn) {
  std::vector<Status> statuses(static_cast<size_t>(n));
  ParallelFor(static_cast<size_t>(n), [&](size_t worker) {
    statuses[worker] = fn(static_cast<int>(worker));
  });
  for (const Status& status : statuses) {
    RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

/// Every batch of every worker, in worker order.
std::vector<ColumnBatch> Flatten(WorkerBatches batches) {
  std::vector<ColumnBatch> all;
  for (std::vector<ColumnBatch>& worker : batches) {
    for (ColumnBatch& batch : worker) all.push_back(std::move(batch));
  }
  return all;
}

/// `batches` as one batch of `schema`'s column types: a lone non-empty
/// batch is moved, several are appended in order.
Result<ColumnBatch> Concat(const SchemaPtr& schema,
                           std::vector<ColumnBatch> batches) {
  ColumnBatch* only = nullptr;
  size_t nonempty = 0;
  size_t total = 0;
  for (ColumnBatch& batch : batches) {
    if (batch.empty()) continue;
    only = &batch;
    ++nonempty;
    total += batch.num_rows();
  }
  if (nonempty == 1) return std::move(*only);
  ColumnBatch out(schema);
  out.Reserve(total);
  for (const ColumnBatch& batch : batches) {
    if (!batch.empty()) RETURN_IF_ERROR(out.AppendBatch(batch));
  }
  return out;
}

/// The columns of `batch` at `indices`.
std::vector<const Column*> KeyColumns(const ColumnBatch& batch,
                                      const std::vector<int>& indices) {
  std::vector<const Column*> columns;
  columns.reserve(indices.size());
  for (const int index : indices) {
    columns.push_back(&batch.column(static_cast<size_t>(index)));
  }
  return columns;
}

bool AnyNull(const std::vector<const Column*>& columns, size_t row) {
  for (const Column* column : columns) {
    if (column->IsNull(row)) return true;
  }
  return false;
}

bool KeysEqual(const std::vector<const Column*>& a, size_t ra,
               const std::vector<const Column*>& b, size_t rb) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (!CellsEqual(*a[k], ra, *b[k], rb)) return false;
  }
  return true;
}

/// Lexicographic three-way compare of two rows' key cells in Value's
/// cross-numeric, NULL-first order.
int CompareKeys(const std::vector<const Column*>& a, size_t ra,
                const std::vector<const Column*>& b, size_t rb) {
  for (size_t k = 0; k < a.size(); ++k) {
    const int cmp = CompareCells(*a[k], ra, *b[k], rb);
    if (cmp != 0) return cmp;
  }
  return 0;
}

/// Scrambles a key hash before it picks a hash-table slot or a shuffle
/// target (the murmur3 finalizer): HashColumns keeps an int64 key's low
/// bits, so strided keys would otherwise pile into a few slots.
inline uint64_t Scramble(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Build side of a hash equi join: the build rows as one ColumnBatch plus a
/// chained hash index over its key columns (a head per bucket, a link per
/// row). NULL keys never match; with no keys (cross join) every build row
/// matches every probe row.
class JoinHashTable {
 public:
  JoinHashTable(ColumnBatch build, std::vector<int> keys)
      : build_(std::move(build)), keys_(std::move(keys)) {
    if (keys_.empty()) return;
    const size_t n = build_.num_rows();
    const std::vector<const Column*> columns = KeyColumns(build_, keys_);
    HashColumns(columns, n, &hashes_);
    size_t buckets = 1;
    while (buckets < 2 * n) buckets <<= 1;
    mask_ = buckets - 1;
    heads_.assign(buckets, -1);
    next_.assign(n, -1);
    // Linked back to front, so each chain lists its rows in build order.
    for (size_t r = n; r-- > 0;) {
      if (AnyNull(columns, r)) continue;
      int32_t& head = heads_[Scramble(hashes_[r]) & mask_];
      next_[r] = head;
      head = static_cast<int32_t>(r);
    }
  }

  const ColumnBatch& batch() const { return build_; }
  size_t num_rows() const { return build_.num_rows(); }

  /// Appends (probe row, build row) to the selection vectors for every
  /// match of every row of `probe`, in probe order. `hashes` is scratch.
  void Probe(const ColumnBatch& probe, const std::vector<int>& probe_keys,
             std::vector<uint64_t>* hashes, std::vector<int32_t>* probe_sel,
             std::vector<int32_t>* build_sel) const {
    const size_t n = probe.num_rows();
    if (keys_.empty()) {
      for (size_t r = 0; r < n; ++r) {
        for (size_t b = 0; b < num_rows(); ++b) {
          probe_sel->push_back(static_cast<int32_t>(r));
          build_sel->push_back(static_cast<int32_t>(b));
        }
      }
      return;
    }
    if (num_rows() == 0) return;
    const std::vector<const Column*> probe_columns =
        KeyColumns(probe, probe_keys);
    const std::vector<const Column*> build_columns = KeyColumns(build_, keys_);
    HashColumns(probe_columns, n, hashes);
    for (size_t r = 0; r < n; ++r) {
      if (AnyNull(probe_columns, r)) continue;
      const uint64_t h = (*hashes)[r];
      for (int32_t b = heads_[Scramble(h) & mask_]; b >= 0;
           b = next_[static_cast<size_t>(b)]) {
        if (hashes_[static_cast<size_t>(b)] == h &&
            KeysEqual(probe_columns, r, build_columns,
                      static_cast<size_t>(b))) {
          probe_sel->push_back(static_cast<int32_t>(r));
          build_sel->push_back(b);
        }
      }
    }
  }

 private:
  ColumnBatch build_;
  std::vector<int> keys_;
  std::vector<uint64_t> hashes_;  ///< Key hash per build row.
  std::vector<int32_t> heads_;    ///< First build row per bucket, or -1.
  std::vector<int32_t> next_;     ///< Next build row in the chain, or -1.
  uint64_t mask_ = 0;
};

/// Assembles the matched pairs of an equi join into output batches and
/// applies the join's residual predicate; both the hash join probe and the
/// merge join use it.
class JoinedPairs {
 public:
  JoinedPairs(SchemaPtr schema, BoundExprPtr residual)
      : schema_(std::move(schema)), residual_(std::move(residual)) {}

  /// Sets `*out` to the pairs (left row left_sel[i], right row right_sel[i]),
  /// left columns first, that the residual (when set) accepts; false when
  /// it accepts none.
  Result<bool> Assemble(const ColumnBatch& left,
                        const std::vector<int32_t>& left_sel,
                        const ColumnBatch& right,
                        const std::vector<int32_t>& right_sel,
                        ColumnBatch* out) {
    joined_.Reset(schema_);
    const size_t left_width = left.num_columns();
    for (size_t c = 0; c < left_width; ++c) {
      AppendColumnGather(&joined_.column(c), 0, left.column(c),
                         left_sel.data(), left_sel.size());
    }
    for (size_t c = 0; c < right.num_columns(); ++c) {
      AppendColumnGather(&joined_.column(left_width + c), 0, right.column(c),
                         right_sel.data(), right_sel.size());
    }
    joined_.SetRowCountForDecode(left_sel.size());
    if (residual_ != nullptr) {
      ASSIGN_OR_RETURN(const Column* pred,
                       EvaluateBatchInPlace(*residual_, joined_, &pred_));
      FilterToSelection(*pred, joined_.num_rows(), &sel_);
      if (sel_.empty()) return false;
      if (sel_.size() < joined_.num_rows()) {
        out->Reset(schema_);
        RETURN_IF_ERROR(out->AppendGather(joined_, sel_.data(), sel_.size()));
        return true;
      }
    }
    *out = std::move(joined_);
    return true;
  }

 private:
  SchemaPtr schema_;
  BoundExprPtr residual_;
  ColumnBatch joined_;
  Column pred_;
  std::vector<int32_t> sel_;
};

// ---------------------------------------------------------------------------
// Pipeline operators (BatchIterator chains over ColumnBatch)

/// Rows a UDF pump may hold in flight between its thread and the consumer.
constexpr size_t kUdfQueueCapacity = 4096;

/// Vectorized filter: evaluates the predicate column-at-a-time, compacts
/// surviving rows through a selection vector. Batches where every row
/// passes go through whole.
class VectorizedFilterIterator final : public BatchIterator {
 public:
  VectorizedFilterIterator(BatchIteratorPtr child, BoundExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Result<bool> Next(ColumnBatch* out) override {
    for (;;) {
      const ColumnBatch* input = nullptr;
      ASSIGN_OR_RETURN(bool has, child_->NextView(&scratch_, &input));
      if (!has) return false;
      ASSIGN_OR_RETURN(const Column* pred,
                       EvaluateBatchInPlace(*predicate_, *input, &pred_));
      FilterToSelection(*pred, input->num_rows(), &sel_);
      if (sel_.empty()) continue;
      if (sel_.size() == input->num_rows()) {
        if (input == &scratch_) {
          *out = std::move(scratch_);
        } else {
          *out = *input;
        }
        return true;
      }
      out->Reset(input->schema());
      RETURN_IF_ERROR(out->AppendGather(*input, sel_.data(), sel_.size()));
      return true;
    }
  }

 private:
  BatchIteratorPtr child_;
  BoundExprPtr predicate_;
  ColumnBatch scratch_;
  Column pred_;
  std::vector<int32_t> sel_;
};

/// Vectorized project: one EvaluateBatch per output column.
class VectorizedProjectIterator final : public BatchIterator {
 public:
  VectorizedProjectIterator(BatchIteratorPtr child,
                            const std::vector<BoundExprPtr>* exprs,
                            SchemaPtr output_schema)
      : child_(std::move(child)),
        exprs_(exprs),
        output_schema_(std::move(output_schema)) {}

  Result<bool> Next(ColumnBatch* out) override {
    const ColumnBatch* input = nullptr;
    ASSIGN_OR_RETURN(bool has, child_->NextView(&scratch_, &input));
    if (!has) return false;
    out->Reset(output_schema_);
    for (size_t i = 0; i < exprs_->size(); ++i) {
      Column col;
      RETURN_IF_ERROR((*exprs_)[i]->EvaluateBatch(*input, &col));
      out->column(i) = std::move(col);
    }
    out->SetRowCountForDecode(input->num_rows());
    return true;
  }

 private:
  BatchIteratorPtr child_;
  const std::vector<BoundExprPtr>* exprs_;
  SchemaPtr output_schema_;
  ColumnBatch scratch_;
};

/// Vectorized probe side of the hash join: probe keys hash column-at-a-time
/// against the build index, and JoinedPairs gathers the matched probe and
/// build rows and runs the residual over them.
class VectorizedHashJoinIterator final : public BatchIterator {
 public:
  VectorizedHashJoinIterator(BatchIteratorPtr probe,
                             std::shared_ptr<const JoinHashTable> table,
                             const std::vector<int>* probe_keys,
                             BoundExprPtr residual, SchemaPtr output_schema)
      : probe_(std::move(probe)),
        table_(std::move(table)),
        probe_keys_(probe_keys),
        pairs_(std::move(output_schema), std::move(residual)) {}

  Result<bool> Next(ColumnBatch* out) override {
    for (;;) {
      const ColumnBatch* input = nullptr;
      ASSIGN_OR_RETURN(bool has, probe_->NextView(&scratch_, &input));
      if (!has) return false;
      probe_sel_.clear();
      build_sel_.clear();
      table_->Probe(*input, *probe_keys_, &hashes_, &probe_sel_, &build_sel_);
      if (probe_sel_.empty()) continue;
      ASSIGN_OR_RETURN(bool kept,
                       pairs_.Assemble(*input, probe_sel_, table_->batch(),
                                       build_sel_, out));
      if (kept) return true;
    }
  }

 private:
  BatchIteratorPtr probe_;
  std::shared_ptr<const JoinHashTable> table_;
  const std::vector<int>* probe_keys_;
  JoinedPairs pairs_;
  ColumnBatch scratch_;
  std::vector<uint64_t> hashes_;
  std::vector<int32_t> probe_sel_;
  std::vector<int32_t> build_sel_;
};

/// Pump-side output of a table UDF: whole batches pass through to the queue
/// untouched; rows from row-emitting UDFs (the sink's summary,
/// recode_assign) are packed into kSqlBatchRows batches first.
class BatchQueueSink final : public BatchSink {
 public:
  BatchQueueSink(BlockingQueue<ColumnBatch>* queue, SchemaPtr schema)
      : queue_(queue), schema_(std::move(schema)), pending_(schema_) {}

  Status Push(Row row) override {
    RETURN_IF_ERROR(pending_.AppendRow(row));
    if (pending_.num_rows() >= kSqlBatchRows) return FlushRows();
    return Status::OK();
  }

  Status PushBatch(ColumnBatch batch) override {
    RETURN_IF_ERROR(FlushRows());  // Keep push order.
    return Enqueue(std::move(batch));
  }

  /// Sends the partially packed row batch (end of partition, or before a
  /// whole batch).
  Status FlushRows() {
    if (pending_.empty()) return Status::OK();
    ColumnBatch packed(schema_);
    std::swap(packed, pending_);
    return Enqueue(std::move(packed));
  }

 private:
  Status Enqueue(ColumnBatch batch) {
    if (batch.empty()) return Status::OK();  // Emitted batches are non-empty.
    if (!queue_->Push(std::move(batch))) {
      return Status::Cancelled("downstream consumer closed");
    }
    return Status::OK();
  }

  BlockingQueue<ColumnBatch>* queue_;
  SchemaPtr schema_;
  ColumnBatch pending_;
};

/// Pipelines a table UDF: a pump thread runs ProcessPartition over the
/// columnar input and everything the UDF emits reaches this iterator as
/// ColumnBatches moved through a bounded queue — one handoff per batch, not
/// per row. The queue holds kUdfQueueCapacity / kSqlBatchRows batches.
/// Keeps UDFs with side effects (the streaming-transfer sink) overlapped
/// with upstream query execution.
class UdfBatchPartitionIterator final : public BatchIterator {
 public:
  UdfBatchPartitionIterator(TableUdfPtr udf, TableUdfContext context,
                            BatchIteratorPtr input, SchemaPtr output_schema)
      : udf_(std::move(udf)),
        context_(context),
        input_(std::move(input)),
        output_schema_(std::move(output_schema)),
        queue_(kUdfQueueCapacity / kSqlBatchRows) {
    pump_ = std::thread([this] {
      BatchQueueSink sink(&queue_, output_schema_);
      Status status =
          udf_->ProcessPartition(context_, input_.get(), &sink);
      if (status.ok()) status = sink.FlushRows();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!status.ok() && !status.IsCancelled()) pump_status_ = status;
      }
      queue_.Close();
    });
  }

  ~UdfBatchPartitionIterator() override {
    queue_.Close();
    if (pump_.joinable()) pump_.join();
  }

  Result<bool> Next(ColumnBatch* out) override {
    std::optional<ColumnBatch> batch = queue_.Pop();
    if (!batch.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      RETURN_IF_ERROR(pump_status_);
      return false;
    }
    *out = std::move(*batch);
    return true;
  }

 private:
  TableUdfPtr udf_;
  TableUdfContext context_;
  BatchIteratorPtr input_;
  SchemaPtr output_schema_;
  BlockingQueue<ColumnBatch> queue_;
  std::thread pump_;
  std::mutex mu_;
  Status pump_status_;
};

/// Running state of one aggregate, one slot per group.
struct AggregateColumn {
  std::vector<int64_t> count;  ///< Rows (COUNT(*)) or non-NULL arguments.
  std::vector<int64_t> int_sum;
  std::vector<double> double_sum;
  /// MIN/MAX: the value so far, typed as the argument; NULL until a group
  /// sees its first non-NULL argument.
  Column extreme;
};

/// Group table of DISTINCT and the batch hash aggregate: the distinct
/// group keys as typed key columns (one row per group, NULL a key value like
/// any other, equality as CellsEqual) found through an open-addressing
/// index, and each aggregate's running state by group id. Phase 1 folds
/// input batches into a worker's table, phase 2 merges the partial tables'
/// groups and finalizes them.
class GroupTable {
 public:
  /// Groups by the first `num_keys` columns of `schema` (the output schema,
  /// whose later columns are the aggregates) and computes `specs`.
  GroupTable(const Schema& schema, size_t num_keys,
             const std::vector<AggregateSpec>* specs)
      : specs_(specs) {
    keys_.resize(num_keys);
    for (size_t k = 0; k < num_keys; ++k) {
      keys_[k].type = schema.field(static_cast<int>(k)).type;
    }
    aggs_.resize(specs_->size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      aggs_[a].extreme.type = (*specs_)[a].output_type;
    }
    slots_.assign(16, -1);
    mask_ = slots_.size() - 1;
  }

  size_t num_groups() const { return hashes_.size(); }
  uint64_t hash(size_t group) const { return hashes_[group]; }

  /// Phase 1: folds `n` input rows into the table, given the evaluated
  /// group-key columns and one argument column per aggregate (nullptr for
  /// COUNT(*)).
  Status Accumulate(const std::vector<const Column*>& keys,
                    const std::vector<const Column*>& args, size_t n) {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (keys[k]->type != keys_[k].type) {
        return Status::Internal("group key type differs from the plan");
      }
    }
    group_ids_.resize(n);
    if (keys.empty()) {
      std::fill(group_ids_.begin(), group_ids_.end(), FindOrInsert(0, keys, 0));
    } else {
      HashColumns(keys, n, &row_hashes_);
      for (size_t r = 0; r < n; ++r) {
        group_ids_[r] = FindOrInsert(row_hashes_[r], keys, r);
      }
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      RETURN_IF_ERROR(Fold((*specs_)[a], args[a], n, &aggs_[a]));
    }
    return Status::OK();
  }

  /// Phase 2: merges the listed groups of a partial table into this one.
  void Merge(const GroupTable& other, const std::vector<int32_t>& groups) {
    std::vector<const Column*> keys;
    for (const Column& key : other.keys_) keys.push_back(&key);
    for (const int32_t source : groups) {
      const auto from = static_cast<size_t>(source);
      const auto to = static_cast<size_t>(
          FindOrInsert(other.hashes_[from], keys, from));
      for (size_t a = 0; a < aggs_.size(); ++a) {
        MergeState((*specs_)[a], other.aggs_[a], from, &aggs_[a], to);
      }
    }
  }

  /// Adds the one group a global aggregate reports over zero rows.
  void AddEmptyGroup() { FindOrInsert(0, {}, 0); }

  /// The finalized groups as one batch of `schema`: the key columns, then
  /// one column per aggregate. Consumes the table.
  ColumnBatch Finish(const SchemaPtr& schema) {
    ColumnBatch out(schema);
    const size_t groups = num_groups();
    for (size_t k = 0; k < keys_.size(); ++k) {
      out.column(k) = std::move(keys_[k]);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      out.column(keys_.size() + a) =
          FinalizeColumn((*specs_)[a], &aggs_[a], groups);
    }
    out.SetRowCountForDecode(groups);
    return out;
  }

 private:
  int32_t FindOrInsert(uint64_t hash, const std::vector<const Column*>& keys,
                       size_t row) {
    size_t slot = Scramble(hash) & mask_;
    for (int32_t g = slots_[slot]; g >= 0; g = slots_[slot]) {
      if (hashes_[static_cast<size_t>(g)] == hash &&
          KeysMatch(static_cast<size_t>(g), keys, row)) {
        return g;
      }
      slot = (slot + 1) & mask_;
    }
    const size_t group = hashes_.size();
    const auto index = static_cast<int32_t>(row);
    for (size_t k = 0; k < keys_.size(); ++k) {
      AppendColumnGather(&keys_[k], group, *keys[k], &index, 1);
    }
    hashes_.push_back(hash);
    for (AggregateColumn& agg : aggs_) {
      agg.count.push_back(0);
      agg.int_sum.push_back(0);
      agg.double_sum.push_back(0);
      (void)AppendColumnValue(&agg.extreme, group, Value::Null(), "extreme");
    }
    slots_[slot] = static_cast<int32_t>(group);
    if (2 * hashes_.size() > slots_.size()) Grow();
    return static_cast<int32_t>(group);
  }

  bool KeysMatch(size_t group, const std::vector<const Column*>& keys,
                 size_t row) const {
    for (size_t k = 0; k < keys_.size(); ++k) {
      if (!CellsEqual(keys_[k], group, *keys[k], row)) return false;
    }
    return true;
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), -1);
    mask_ = slots_.size() - 1;
    for (size_t g = 0; g < hashes_.size(); ++g) {
      size_t slot = Scramble(hashes_[g]) & mask_;
      while (slots_[slot] >= 0) slot = (slot + 1) & mask_;
      slots_[slot] = static_cast<int32_t>(g);
    }
  }

  /// Sets cell `row` of `dst` to the non-NULL cell `src_row` of `src` (same
  /// type).
  static void SetCell(Column* dst, size_t row, const Column& src,
                      size_t src_row) {
    dst->null_words[row >> 6] &= ~(uint64_t{1} << (row & 63));
    switch (dst->type) {
      case DataType::kBool:
        dst->bools[row] = src.bools[src_row];
        break;
      case DataType::kInt64:
        dst->ints[row] = src.ints[src_row];
        break;
      case DataType::kDouble:
        dst->doubles[row] = src.doubles[src_row];
        break;
      case DataType::kString:
        dst->codes[row] = dst->dict.GetOrAdd(src.dict[src.codes[src_row]]);
        break;
    }
  }

  /// Whether `value` (cell `row` of a column) replaces `extreme`'s cell
  /// `group`: the group has none yet, or it orders before (MIN) / after
  /// (MAX) it in Value's order.
  static bool Replaces(bool is_min, const Column& value, size_t row,
                       const Column& extreme, size_t group) {
    if (extreme.IsNull(group)) return true;
    return (is_min ? CompareCells(value, row, extreme, group)
                   : CompareCells(extreme, group, value, row)) < 0;
  }

  /// Folds one batch's argument column into an aggregate's state; SUM/AVG
  /// sum INT64 exactly when the output is INT64 and in double otherwise,
  /// and every aggregate but COUNT(*) skips NULLs.
  Status Fold(const AggregateSpec& spec, const Column* arg, size_t n,
              AggregateColumn* agg) const {
    const int32_t* group = group_ids_.data();
    int64_t* count = agg->count.data();
    if (spec.func == AggFunc::kCountStar) {
      for (size_t r = 0; r < n; ++r) ++count[group[r]];
      return Status::OK();
    }
    const Column& col = *arg;
    const bool nulls = col.has_nulls();
    switch (spec.func) {
      case AggFunc::kCount:
        for (size_t r = 0; r < n; ++r) {
          if (!nulls || !col.IsNull(r)) ++count[group[r]];
        }
        return Status::OK();
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        int64_t* int_sum = agg->int_sum.data();
        double* double_sum = agg->double_sum.data();
        const bool exact = spec.output_type == DataType::kInt64;
        if (col.type == DataType::kInt64) {
          for (size_t r = 0; r < n; ++r) {
            if (nulls && col.IsNull(r)) continue;
            const int32_t g = group[r];
            ++count[g];
            if (exact) {
              int_sum[g] += col.ints[r];
            } else {
              double_sum[g] += static_cast<double>(col.ints[r]);
            }
          }
        } else if (col.type == DataType::kDouble) {
          for (size_t r = 0; r < n; ++r) {
            if (nulls && col.IsNull(r)) continue;
            ++count[group[r]];
            double_sum[group[r]] += col.doubles[r];
          }
        } else {
          return Status::InvalidArgument("SUM/AVG over a non-numeric value");
        }
        return Status::OK();
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (col.type != agg->extreme.type) {
          return Status::Internal("MIN/MAX argument type differs from plan");
        }
        const bool is_min = spec.func == AggFunc::kMin;
        for (size_t r = 0; r < n; ++r) {
          if (nulls && col.IsNull(r)) continue;
          const auto g = static_cast<size_t>(group[r]);
          if (Replaces(is_min, col, r, agg->extreme, g)) {
            SetCell(&agg->extreme, g, col, r);
          }
          ++count[g];
        }
        return Status::OK();
      }
      case AggFunc::kCountStar:
        break;
    }
    return Status::OK();
  }

  static void MergeState(const AggregateSpec& spec, const AggregateColumn& from,
                         size_t source, AggregateColumn* to, size_t group) {
    if ((spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) &&
        !from.extreme.IsNull(source) &&
        Replaces(spec.func == AggFunc::kMin, from.extreme, source,
                 to->extreme, group)) {
      SetCell(&to->extreme, group, from.extreme, source);
    }
    to->count[group] += from.count[source];
    to->int_sum[group] += from.int_sum[source];
    to->double_sum[group] += from.double_sum[source];
  }

  /// The output column of one aggregate over `groups` groups. COUNT is
  /// never NULL; SUM, AVG, MIN and MAX over no value are.
  static Column FinalizeColumn(const AggregateSpec& spec,
                               AggregateColumn* agg, size_t groups) {
    if (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) {
      return std::move(agg->extreme);
    }
    const bool counts =
        spec.func == AggFunc::kCount || spec.func == AggFunc::kCountStar;
    Column out;
    out.type = spec.output_type;
    for (size_t g = 0; g < groups; ++g) {
      const int64_t count = agg->count[g];
      const bool null = count == 0 && !counts;
      out.AppendNullBit(g, null);
      if (counts) {
        out.ints.push_back(count);
      } else if (spec.output_type == DataType::kInt64) {
        out.ints.push_back(null ? 0 : agg->int_sum[g]);
      } else {
        const double sum =
            agg->double_sum[g] + static_cast<double>(agg->int_sum[g]);
        out.doubles.push_back(null ? 0
                              : spec.func == AggFunc::kAvg
                                  ? sum / static_cast<double>(count)
                                  : sum);
      }
    }
    return out;
  }

  const std::vector<AggregateSpec>* specs_;
  std::vector<Column> keys_;
  std::vector<uint64_t> hashes_;  ///< Key hash per group.
  std::vector<int32_t> slots_;    ///< Open addressing: group id or -1.
  size_t mask_ = 0;
  std::vector<AggregateColumn> aggs_;
  std::vector<int32_t> group_ids_;    ///< Scratch: group of each input row.
  std::vector<uint64_t> row_hashes_;  ///< Scratch: key hash per input row.
};

// ---------------------------------------------------------------------------
// Per-operator stats wrappers (EXPLAIN ANALYZE / the /queries endpoint).
// Counts and time accumulate in locals and flush to the shared atomics once,
// in the destructor, so the per-batch hot loop pays no atomics.

/// Crude in-memory size of `rows` rows of `schema` — the same fixed
/// per-value width the planner's cost model assumes, so estimate and actual
/// memory numbers are comparable.
int64_t ApproxRowsBytes(const SchemaPtr& schema, int64_t rows) {
  const int64_t width =
      schema == nullptr ? 1 : std::max(1, schema->num_fields());
  return rows * width * 16;
}

class StatsBatchIterator final : public BatchIterator {
 public:
  StatsBatchIterator(BatchIteratorPtr child, OperatorActuals* actuals)
      : child_(std::move(child)), actuals_(actuals) {}

  ~StatsBatchIterator() override {
    actuals_->AddRows(rows_);
    actuals_->AddBatches(batches_);
    actuals_->AddMicros(micros_);
    actuals_->AddInvocation();
  }

  Result<bool> Next(ColumnBatch* out) override {
    Stopwatch watch;
    auto has = child_->Next(out);
    Count(watch, has, out);
    return has;
  }

  Result<bool> NextView(ColumnBatch* scratch,
                        const ColumnBatch** view) override {
    Stopwatch watch;
    auto has = child_->NextView(scratch, view);
    Count(watch, has, *view);
    return has;
  }

 private:
  void Count(const Stopwatch& watch, const Result<bool>& has,
             const ColumnBatch* batch) {
    micros_ += watch.ElapsedMicros();
    if (has.ok() && *has) {
      ++batches_;
      rows_ += static_cast<int64_t>(batch->num_rows());
    }
  }

  BatchIteratorPtr child_;
  OperatorActuals* actuals_;
  int64_t rows_ = 0;
  int64_t batches_ = 0;
  int64_t micros_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// PipelineState

struct Executor::PipelineState {
  struct JoinArtifact {
    bool broadcast = true;
    std::shared_ptr<const JoinHashTable> broadcast_table;
    // Repartition mode: per-worker probe slices and hash tables.
    WorkerBatches probe_partitions;
    std::vector<std::shared_ptr<const JoinHashTable>> worker_tables;
  };

  // Keyed by plan node identity.
  std::unordered_map<const PlanNode*, JoinArtifact> joins;
  std::unordered_map<const PlanNode*, WorkerBatches> materialized;
  std::vector<TableUdfPtr> udfs_to_finish;
};

// ---------------------------------------------------------------------------
// Executor

Executor::Executor(int num_workers, ClusterPtr cluster,
                   MetricsRegistry* metrics)
    : num_workers_(num_workers),
      cluster_(std::move(cluster)),
      metrics_(metrics != nullptr ? metrics : &MetricsRegistry::Global()) {
  SQLINK_CHECK(num_workers_ > 0);
}

Result<WorkerBatches> Executor::Execute(const PlanPtr& plan) {
  // Blocking operators never flow through the pipeline stats wrappers, so
  // their actuals are recorded here, around the full (inclusive) execution.
  OperatorActuals* actuals = nullptr;
  switch (plan->kind) {
    case PlanKind::kDistinct:
    case PlanKind::kAggregate:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      actuals = NodeActuals(plan);
      break;
    default:
      break;
  }
  if (actuals == nullptr) return ExecuteNode(plan);
  Stopwatch watch;
  Result<WorkerBatches> result = ExecuteNode(plan);
  actuals->AddMicros(watch.ElapsedMicros());
  actuals->AddInvocation();
  if (result.ok()) {
    const auto produced = static_cast<int64_t>(TotalRows(*result));
    actuals->AddRows(produced);
    if (plan->kind == PlanKind::kDistinct) {
      // The dedup set peaks at exactly the unique-row count.
      actuals->AddBuildRows(produced);
      actuals->MaxPeakBytes(ApproxRowsBytes(plan->output_schema, produced));
    }
  }
  return result;
}

Result<WorkerBatches> Executor::ExecuteNode(const PlanPtr& plan) {
  // Blocking operators (join builds, DISTINCT, aggregation, sort, limit)
  // materialize whole inputs; refuse to start one for a cancelled query.
  RETURN_IF_ERROR(CheckCancelled());
  switch (plan->kind) {
    case PlanKind::kDistinct:
    case PlanKind::kAggregate:
      return ExecuteGrouping(plan);
    case PlanKind::kSort:
      return ExecuteSort(plan);
    case PlanKind::kLimit:
      return ExecuteLimit(plan);
    default:
      return ExecutePipeline(plan);
  }
}

Result<WorkerBatches> Executor::Repartition(WorkerBatches input,
                                            const std::vector<int>& keys) {
  const size_t n = static_cast<size_t>(num_workers_);
  // Per source worker, in parallel: route each row by key hash and gather
  // it into that (source, target) pair's batch.
  std::vector<std::vector<ColumnBatch>> local(input.size());
  std::vector<Status> statuses(input.size());
  ParallelFor(input.size(), [&](size_t p) {
    statuses[p] = [&]() -> Status {
      std::vector<ColumnBatch>& out = local[p];
      out.resize(n);
      std::vector<uint64_t> hashes;
      std::vector<std::vector<int32_t>> routed(n);
      for (ColumnBatch& batch : input[p]) {
        if (batch.empty()) continue;
        for (std::vector<int32_t>& rows : routed) rows.clear();
        if (keys.empty()) {
          routed[p % n].resize(batch.num_rows());
          std::iota(routed[p % n].begin(), routed[p % n].end(), 0);
        } else {
          HashColumns(KeyColumns(batch, keys), batch.num_rows(), &hashes);
          for (size_t r = 0; r < batch.num_rows(); ++r) {
            routed[Scramble(hashes[r]) % n].push_back(static_cast<int32_t>(r));
          }
        }
        for (size_t t = 0; t < n; ++t) {
          if (routed[t].empty()) continue;
          if (out[t].num_columns() == 0) out[t].Reset(batch.schema());
          RETURN_IF_ERROR(
              out[t].AppendGather(batch, routed[t].data(), routed[t].size()));
        }
        batch = ColumnBatch();  // Release the input as it is consumed.
      }
      return Status::OK();
    }();
  });
  for (const Status& status : statuses) RETURN_IF_ERROR(status);
  WorkerBatches output(n);
  for (size_t t = 0; t < n; ++t) {
    for (std::vector<ColumnBatch>& source : local) {
      if (!source[t].empty()) output[t].push_back(std::move(source[t]));
    }
  }
  return output;
}

Status Executor::Prepare(const PlanPtr& plan, PipelineState* state) {
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kMaterialized:
      return Status::OK();
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return Prepare(plan->children[0], state);
    case PlanKind::kTableUdf:
      state->udfs_to_finish.push_back(plan->udf);
      if (!plan->children.empty()) {
        return Prepare(plan->children[0], state);
      }
      return Status::OK();
    case PlanKind::kHashJoin: {
      // Sort-merge choice (cost-based, equi keys only): materialize the
      // merged result here and pipeline over it.
      if (plan->join_algo == JoinAlgo::kSortMerge && !plan->left_keys.empty()) {
        Stopwatch merge_watch;
        ASSIGN_OR_RETURN(WorkerBatches merged, ExecuteMergeJoin(plan));
        if (OperatorActuals* actuals = NodeActuals(plan)) {
          actuals->AddMicros(merge_watch.ElapsedMicros());
          actuals->AddRows(static_cast<int64_t>(TotalRows(merged)));
          actuals->AddInvocation();
        }
        state->materialized.emplace(plan.get(), std::move(merged));
        return Status::OK();
      }
      PipelineState::JoinArtifact artifact;
      artifact.broadcast = plan->broadcast_build;
      const SchemaPtr& build_schema = plan->children[1]->output_schema;
      ASSIGN_OR_RETURN(WorkerBatches build, Execute(plan->children[1]));
      if (plan->broadcast_build) {
        ASSIGN_OR_RETURN(ColumnBatch build_batch,
                         Concat(build_schema, Flatten(std::move(build))));
        artifact.broadcast_table = std::make_shared<const JoinHashTable>(
            std::move(build_batch), plan->right_keys);
        if (OperatorActuals* actuals = NodeActuals(plan)) {
          const auto build_rows =
              static_cast<int64_t>(artifact.broadcast_table->num_rows());
          actuals->AddBuildRows(build_rows);
          actuals->MaxPeakBytes(ApproxRowsBytes(build_schema, build_rows));
        }
        state->joins.emplace(plan.get(), std::move(artifact));
        return Prepare(plan->children[0], state);
      }
      // Repartition join: both sides materialize and shuffle by key hash.
      ASSIGN_OR_RETURN(WorkerBatches probe, Execute(plan->children[0]));
      ASSIGN_OR_RETURN(artifact.probe_partitions,
                       Repartition(std::move(probe), plan->left_keys));
      ASSIGN_OR_RETURN(WorkerBatches build_parts,
                       Repartition(std::move(build), plan->right_keys));
      const size_t n = static_cast<size_t>(num_workers_);
      artifact.worker_tables.resize(n);
      std::vector<Status> statuses(n);
      ParallelFor(n, [&](size_t w) {
        auto batch = Concat(build_schema, std::move(build_parts[w]));
        if (!batch.ok()) {
          statuses[w] = batch.status();
          return;
        }
        artifact.worker_tables[w] = std::make_shared<const JoinHashTable>(
            std::move(batch).value(), plan->right_keys);
      });
      for (const Status& s : statuses) RETURN_IF_ERROR(s);
      if (OperatorActuals* actuals = NodeActuals(plan)) {
        int64_t build_rows = 0;
        for (const auto& table : artifact.worker_tables) {
          build_rows += static_cast<int64_t>(table->num_rows());
        }
        actuals->AddBuildRows(build_rows);
        actuals->MaxPeakBytes(ApproxRowsBytes(build_schema, build_rows));
      }
      state->joins.emplace(plan.get(), std::move(artifact));
      return Status::OK();
    }
    default: {
      // A blocking operator inside a pipeline: execute it fully and expose
      // its batches as a pipeline source.
      ASSIGN_OR_RETURN(WorkerBatches batches, Execute(plan));
      state->materialized.emplace(plan.get(), std::move(batches));
      return Status::OK();
    }
  }
}

Result<BatchIteratorPtr> Executor::BuildBatchPipeline(const PlanPtr& plan,
                                                      int worker,
                                                      PipelineState* state) {
  ASSIGN_OR_RETURN(BatchIteratorPtr it,
                   BuildBatchPipelineNode(plan, worker, state));
  OperatorActuals* actuals = NodeActuals(plan);
  // Materialized nodes recorded their actuals on the blocking Execute path;
  // wrapping the replay iterator would double-count them.
  if (actuals == nullptr || state->materialized.count(plan.get()) > 0) {
    return it;
  }
  return BatchIteratorPtr(new StatsBatchIterator(std::move(it), actuals));
}

Result<BatchIteratorPtr> Executor::BuildBatchPipelineNode(
    const PlanPtr& plan, int worker, PipelineState* state) {
  const auto w = static_cast<size_t>(worker);
  // A node pre-materialized by Prepare (blocking op inside the pipeline).
  auto materialized = state->materialized.find(plan.get());
  if (materialized != state->materialized.end()) {
    return BatchIteratorPtr(new BatchListIterator(&materialized->second[w]));
  }
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kMaterialized: {
      if (w >= plan->table->num_partitions()) {
        return BatchIteratorPtr(new EmptyBatchIterator());
      }
      return BatchIteratorPtr(new BatchListIterator(&plan->table->batches(w)));
    }
    case PlanKind::kFilter: {
      ASSIGN_OR_RETURN(BatchIteratorPtr child,
                       BuildBatchPipeline(plan->children[0], worker, state));
      return BatchIteratorPtr(
          new VectorizedFilterIterator(std::move(child), plan->predicate));
    }
    case PlanKind::kProject: {
      ASSIGN_OR_RETURN(BatchIteratorPtr child,
                       BuildBatchPipeline(plan->children[0], worker, state));
      return BatchIteratorPtr(new VectorizedProjectIterator(
          std::move(child), &plan->projections, plan->output_schema));
    }
    case PlanKind::kHashJoin: {
      auto it = state->joins.find(plan.get());
      if (it == state->joins.end()) {
        return Status::Internal("join not prepared");
      }
      PipelineState::JoinArtifact& artifact = it->second;
      if (artifact.broadcast) {
        ASSIGN_OR_RETURN(BatchIteratorPtr probe,
                         BuildBatchPipeline(plan->children[0], worker, state));
        return BatchIteratorPtr(new VectorizedHashJoinIterator(
            std::move(probe), artifact.broadcast_table, &plan->left_keys,
            plan->residual, plan->output_schema));
      }
      BatchIteratorPtr probe(
          new BatchListIterator(&artifact.probe_partitions[w]));
      return BatchIteratorPtr(new VectorizedHashJoinIterator(
          std::move(probe), artifact.worker_tables[w], &plan->left_keys,
          plan->residual, plan->output_schema));
    }
    case PlanKind::kTableUdf: {
      BatchIteratorPtr input;
      if (!plan->children.empty()) {
        ASSIGN_OR_RETURN(input,
                         BuildBatchPipeline(plan->children[0], worker, state));
      }
      TableUdfContext context;
      context.worker_id = worker;
      context.num_workers = num_workers_;
      context.cluster = cluster_;
      context.metrics = metrics_;
      context.query_id = query_id_;
      context.cancellation = cancellation_;
      context.spill_budget = spill_budget_;
      return BatchIteratorPtr(new UdfBatchPartitionIterator(
          plan->udf, context, std::move(input), plan->output_schema));
    }
    default:
      return Status::Internal("unexpected plan kind in batch pipeline: " +
                              plan->ToString());
  }
}

Status Executor::RunPipeline(const PlanPtr& plan, bool sequential,
                             const BatchConsumer& consume) {
  TraceSpan span("sql.execute");
  span.AddAttribute("workers", num_workers_);
  Stopwatch timer;
  PipelineState state;
  std::vector<int64_t> rows(static_cast<size_t>(num_workers_), 0);
  std::atomic<bool> stopped{false};
  auto pull = [&](int worker) -> Status {
    ASSIGN_OR_RETURN(BatchIteratorPtr it,
                     BuildBatchPipeline(plan, worker, &state));
    ColumnBatch scratch;
    for (;;) {
      // `sql.exec.batch` paces the pipeline (delay actions) so tests can
      // hold a query in-flight deterministically; shares the cancellation
      // poll cadence.
      (void)SQLINK_FAILPOINT("sql.exec.batch");
      RETURN_IF_ERROR(CheckCancelled());
      const ColumnBatch* view = nullptr;
      ASSIGN_OR_RETURN(bool has, it->NextView(&scratch, &view));
      if (!has) return Status::OK();
      rows[static_cast<size_t>(worker)] +=
          static_cast<int64_t>(view->num_rows());
      ASSIGN_OR_RETURN(bool more, consume(worker, PulledBatch{view, &scratch}));
      if (!more) {
        stopped = true;
        return Status::OK();
      }
    }
  };

  Status run_status = Prepare(plan, &state);
  if (run_status.ok() && sequential) {
    for (int worker = 0; worker < num_workers_ && !stopped && run_status.ok();
         ++worker) {
      run_status = pull(worker);
    }
  } else if (run_status.ok()) {
    run_status = ParallelWorkers(num_workers_, pull);
  }
  // UDF epilogue runs regardless of success so resources are released; its
  // error surfaces only when the run itself succeeded. A UDF interrupted by
  // an early stop may report a cancelled epilogue; that is expected.
  for (const TableUdfPtr& udf : state.udfs_to_finish) {
    const Status finish_status = udf->Finish();
    if (run_status.ok() && !finish_status.ok() &&
        !(stopped && finish_status.IsCancelled())) {
      run_status = finish_status;
    }
  }
  const int64_t rows_emitted =
      std::accumulate(rows.begin(), rows.end(), int64_t{0});
  span.AddAttribute("rows", rows_emitted);
  metrics_->GetHistogram("sql.executor.pipeline_micros")
      ->Record(timer.ElapsedMicros());
  if (!run_status.ok()) span.SetError();
  RETURN_IF_ERROR(run_status);
  metrics_->GetCounter("sql.executor.rows_emitted")->Add(rows_emitted);
  return Status::OK();
}

Result<WorkerBatches> Executor::ExecutePipeline(const PlanPtr& plan) {
  WorkerBatches output(static_cast<size_t>(num_workers_));
  RETURN_IF_ERROR(RunPipeline(
      plan, /*sequential=*/false,
      [&](int worker, const PulledBatch& batch) -> Result<bool> {
        output[static_cast<size_t>(worker)].push_back(batch.Take());
        return true;
      }));
  return output;
}

Result<WorkerBatches> Executor::ExecuteMergeJoin(const PlanPtr& plan) {
  // Repartition both sides by key so equal keys land on the same worker,
  // sort each worker's row-index permutation, then merge equal-key runs.
  // NULL keys never match (left out of the permutation), and emitted pairs
  // are guarded by the exact KeysEqual check so ordering-equal but
  // type-distinct numeric keys (1 vs 1.0) behave exactly like the hash
  // join.
  ASSIGN_OR_RETURN(WorkerBatches probe, Execute(plan->children[0]));
  ASSIGN_OR_RETURN(WorkerBatches build, Execute(plan->children[1]));
  ASSIGN_OR_RETURN(WorkerBatches probe_parts,
                   Repartition(std::move(probe), plan->left_keys));
  ASSIGN_OR_RETURN(WorkerBatches build_parts,
                   Repartition(std::move(build), plan->right_keys));

  WorkerBatches output(static_cast<size_t>(num_workers_));
  Status run_status = ParallelWorkers(num_workers_, [&](int worker) -> Status {
    const auto w = static_cast<size_t>(worker);
    ASSIGN_OR_RETURN(ColumnBatch left,
                     Concat(plan->children[0]->output_schema,
                            std::move(probe_parts[w])));
    ASSIGN_OR_RETURN(ColumnBatch right,
                     Concat(plan->children[1]->output_schema,
                            std::move(build_parts[w])));
    const std::vector<const Column*> left_keys =
        KeyColumns(left, plan->left_keys);
    const std::vector<const Column*> right_keys =
        KeyColumns(right, plan->right_keys);
    auto sorted_rows = [](const ColumnBatch& batch,
                          const std::vector<const Column*>& keys) {
      std::vector<int32_t> rows;
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        if (!AnyNull(keys, r)) rows.push_back(static_cast<int32_t>(r));
      }
      std::sort(rows.begin(), rows.end(), [&](int32_t a, int32_t b) {
        return CompareKeys(keys, static_cast<size_t>(a), keys,
                           static_cast<size_t>(b)) < 0;
      });
      return rows;
    };
    const std::vector<int32_t> lrows = sorted_rows(left, left_keys);
    const std::vector<int32_t> rrows = sorted_rows(right, right_keys);

    std::vector<int32_t> left_sel;
    std::vector<int32_t> right_sel;
    auto key_cmp = [](const std::vector<const Column*>& a, int32_t ra,
                      const std::vector<const Column*>& b, int32_t rb) {
      return CompareKeys(a, static_cast<size_t>(ra), b,
                         static_cast<size_t>(rb));
    };
    size_t li = 0;
    size_t ri = 0;
    while (li < lrows.size() && ri < rrows.size()) {
      const int cmp = key_cmp(left_keys, lrows[li], right_keys, rrows[ri]);
      if (cmp < 0) {
        ++li;
        continue;
      }
      if (cmp > 0) {
        ++ri;
        continue;
      }
      // Equal-key runs on both sides; pair up the cross product of the runs.
      size_t lend = li + 1;
      while (lend < lrows.size() &&
             key_cmp(left_keys, lrows[lend], left_keys, lrows[li]) == 0) {
        ++lend;
      }
      size_t rend = ri + 1;
      while (rend < rrows.size() &&
             key_cmp(right_keys, rrows[rend], right_keys, rrows[ri]) == 0) {
        ++rend;
      }
      for (size_t l = li; l < lend; ++l) {
        for (size_t r = ri; r < rend; ++r) {
          // Ordering-equal is weaker than join equality: re-check exactly.
          if (KeysEqual(left_keys, static_cast<size_t>(lrows[l]), right_keys,
                        static_cast<size_t>(rrows[r]))) {
            left_sel.push_back(lrows[l]);
            right_sel.push_back(rrows[r]);
          }
        }
      }
      li = lend;
      ri = rend;
    }
    if (left_sel.empty()) return Status::OK();
    JoinedPairs pairs(plan->output_schema, plan->residual);
    ColumnBatch joined;
    ASSIGN_OR_RETURN(bool kept,
                     pairs.Assemble(left, left_sel, right, right_sel, &joined));
    if (kept) output[w].push_back(std::move(joined));
    return Status::OK();
  });
  RETURN_IF_ERROR(run_status);
  metrics_->GetCounter("sql.executor.merge_joins")->Add(1);
  return output;
}

Result<WorkerBatches> Executor::ExecuteGrouping(const PlanPtr& plan) {
  const PlanPtr& child = plan->children[0];
  const size_t n = static_cast<size_t>(num_workers_);
  const bool distinct = plan->kind == PlanKind::kDistinct;
  const size_t num_keys =
      distinct ? static_cast<size_t>(plan->output_schema->num_fields())
               : plan->group_by.size();
  const size_t num_aggs = plan->aggregates.size();
  auto make_table = [&] {
    return std::make_unique<GroupTable>(*plan->output_schema, num_keys,
                                        &plan->aggregates);
  };

  // Phase 1: each worker folds its child pipeline's batches into a local
  // group table; keys and arguments evaluate column-at-a-time.
  struct Partial {
    std::unique_ptr<GroupTable> table;
    std::vector<Column> key_scratch;
    std::vector<Column> arg_scratch;
    std::vector<const Column*> keys;
    std::vector<const Column*> args;
  };
  std::vector<Partial> partials(n);
  for (Partial& partial : partials) {
    partial.table = make_table();
    partial.key_scratch.resize(num_keys);
    partial.arg_scratch.resize(num_aggs);
    partial.keys.resize(num_keys);
    partial.args.assign(num_aggs, nullptr);
  }
  RETURN_IF_ERROR(RunPipeline(
      child, /*sequential=*/false,
      [&](int worker, const PulledBatch& pulled) -> Result<bool> {
        Partial& partial = partials[static_cast<size_t>(worker)];
        const ColumnBatch& batch = *pulled.view;
        for (size_t k = 0; k < num_keys; ++k) {
          if (distinct) {
            partial.keys[k] = &batch.column(k);
            continue;
          }
          ASSIGN_OR_RETURN(partial.keys[k],
                           EvaluateBatchInPlace(*plan->group_by[k], batch,
                                                &partial.key_scratch[k]));
        }
        for (size_t a = 0; a < num_aggs; ++a) {
          const BoundExprPtr& argument = plan->aggregates[a].argument;
          if (argument == nullptr) continue;
          ASSIGN_OR_RETURN(partial.args[a],
                           EvaluateBatchInPlace(*argument, batch,
                                                &partial.arg_scratch[a]));
        }
        RETURN_IF_ERROR(partial.table->Accumulate(partial.keys, partial.args,
                                                  batch.num_rows()));
        return true;
      }));

  // Phase 2: route every partial group to a target by key hash (a global
  // aggregate merges on worker 0), then each target merges and finalizes.
  std::vector<std::vector<std::vector<int32_t>>> routed(
      n, std::vector<std::vector<int32_t>>(n));
  for (size_t w = 0; w < n; ++w) {
    const GroupTable& partial = *partials[w].table;
    for (size_t g = 0; g < partial.num_groups(); ++g) {
      const size_t target = num_keys == 0 ? 0 : Scramble(partial.hash(g)) % n;
      routed[w][target].push_back(static_cast<int32_t>(g));
    }
  }
  WorkerBatches output(n);
  ParallelFor(n, [&](size_t t) {
    std::unique_ptr<GroupTable> merged = make_table();
    for (size_t w = 0; w < n; ++w) {
      merged->Merge(*partials[w].table, routed[w][t]);
    }
    // A global aggregate over zero rows still yields one output row.
    if (num_keys == 0 && t == 0 && merged->num_groups() == 0) {
      merged->AddEmptyGroup();
    }
    if (merged->num_groups() > 0) {
      output[t].push_back(merged->Finish(plan->output_schema));
    }
  });
  return output;
}

Result<WorkerBatches> Executor::ExecuteSort(const PlanPtr& plan) {
  // One global order: concatenate every worker's batches, stable-sort a
  // row-index permutation in Value's NULL-first, cross-numeric order, and
  // gather it into kSqlBatchRows batches on worker 0.
  ASSIGN_OR_RETURN(WorkerBatches input, Execute(plan->children[0]));
  ASSIGN_OR_RETURN(ColumnBatch all,
                   Concat(plan->output_schema, Flatten(std::move(input))));
  std::vector<int32_t> order(all.num_rows());
  std::iota(order.begin(), order.end(), 0);
  const std::vector<const Column*> keys = KeyColumns(all, plan->sort_keys);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const int cmp = CompareCells(*keys[i], static_cast<size_t>(a), *keys[i],
                                   static_cast<size_t>(b));
      if (cmp != 0) return plan->sort_descending[i] ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  WorkerBatches output(static_cast<size_t>(num_workers_));
  for (size_t begin = 0; begin < order.size(); begin += kSqlBatchRows) {
    ColumnBatch chunk(plan->output_schema);
    const size_t n = std::min(kSqlBatchRows, order.size() - begin);
    RETURN_IF_ERROR(chunk.AppendGather(all, order.data() + begin, n));
    output[0].push_back(std::move(chunk));
  }
  return output;
}

Result<WorkerBatches> Executor::ExecuteLimit(const PlanPtr& plan) {
  const PlanPtr& child = plan->children[0];
  WorkerBatches output(static_cast<size_t>(num_workers_));
  auto remaining = static_cast<size_t>(std::max<int64_t>(plan->limit, 0));
  // Keeps the first `remaining` rows of `batch`, on worker 0; returns
  // whether more are wanted. A cut batch is sliced into a fresh one, which
  // keeps only the dictionary entries its rows use.
  auto take = [&](const PulledBatch& batch) -> Result<bool> {
    const size_t rows = batch.view->num_rows();
    if (rows <= remaining) {
      output[0].push_back(batch.Take());
      remaining -= rows;
      return remaining > 0;
    }
    ColumnBatch head(batch.view->schema());
    RETURN_IF_ERROR(head.AppendSlice(*batch.view, 0, remaining));
    output[0].push_back(std::move(head));
    remaining = 0;
    return false;
  };
  if (remaining == 0) return output;

  // Early termination: when the child is pipelinable, pull batches worker
  // by worker and stop as soon as the limit is met, instead of computing
  // the full child result.
  const bool pipelinable = child->kind == PlanKind::kScan ||
                           child->kind == PlanKind::kMaterialized ||
                           child->kind == PlanKind::kFilter ||
                           child->kind == PlanKind::kProject ||
                           child->kind == PlanKind::kHashJoin ||
                           child->kind == PlanKind::kTableUdf;
  if (pipelinable) {
    RETURN_IF_ERROR(RunPipeline(
        child, /*sequential=*/true,
        [&](int, const PulledBatch& batch) { return take(batch); }));
    return output;
  }

  ASSIGN_OR_RETURN(WorkerBatches input, Execute(child));
  for (std::vector<ColumnBatch>& worker : input) {
    for (ColumnBatch& batch : worker) {
      ASSIGN_OR_RETURN(bool more, take(PulledBatch{&batch, &batch}));
      if (!more) return output;
    }
  }
  return output;
}

}  // namespace sqlink
