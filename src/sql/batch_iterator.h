#ifndef SQLINK_SQL_BATCH_ITERATOR_H_
#define SQLINK_SQL_BATCH_ITERATOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "table/column_batch.h"
#include "table/schema.h"

namespace sqlink {

/// Pull-based columnar operator interface, the execution interface between
/// physical operators within one worker's pipeline: Next fills `*out`
/// (contents replaced) with the next batch and returns false at end of
/// stream. Emitted batches are non-empty.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;
  virtual Result<bool> Next(ColumnBatch* out) = 0;

  /// Next for consumers that only read the batch: points `*view` at it,
  /// valid until the following call. A leaf over stored batches (a table
  /// scan) hands out its own batches without copying them; every other
  /// iterator fills `*scratch` through Next.
  virtual Result<bool> NextView(ColumnBatch* scratch,
                                const ColumnBatch** view) {
    *view = scratch;
    return Next(scratch);
  }
};

using BatchIteratorPtr = std::unique_ptr<BatchIterator>;

/// Scan leaf over stored batches (a table partition's chunks, a
/// materialized intermediate result). Borrows the batches — the caller
/// keeps them alive for the iterator's lifetime. Empty batches are skipped.
class BatchListIterator final : public BatchIterator {
 public:
  explicit BatchListIterator(const std::vector<ColumnBatch>* batches)
      : batches_(batches) {}

  Result<bool> Next(ColumnBatch* out) override {
    const ColumnBatch* view = nullptr;
    if (!NextStored(&view)) return false;
    *out = *view;
    return true;
  }
  Result<bool> NextView(ColumnBatch*, const ColumnBatch** view) override {
    return NextStored(view);
  }

 private:
  bool NextStored(const ColumnBatch** view) {
    while (pos_ < batches_->size()) {
      const ColumnBatch& batch = (*batches_)[pos_++];
      if (batch.empty()) continue;
      *view = &batch;
      return true;
    }
    return false;
  }

  const std::vector<ColumnBatch>* batches_;
  size_t pos_ = 0;
};

/// A batch stream with no rows.
class EmptyBatchIterator final : public BatchIterator {
 public:
  Result<bool> Next(ColumnBatch*) override { return false; }
};

/// Reads a batch pipeline one row at a time, for table UDFs whose logic is
/// per row (recode_assign, the MQ sink): Next fills `*row` with the next
/// row and returns false at end of stream.
class BatchToRowIterator {
 public:
  explicit BatchToRowIterator(BatchIterator* child) : child_(child) {}
  Result<bool> Next(Row* row);

 private:
  BatchIterator* child_;  // Borrowed.
  ColumnBatch scratch_;
  const ColumnBatch* batch_ = nullptr;  ///< The child's batch or scratch_.
  size_t pos_ = 0;
  bool done_ = false;
};

/// Push-based consumer of a table UDF's output. Batch-native UDFs hand over
/// whole ColumnBatches (PushBatch, moved, with the UDF's bound output
/// schema); row-emitting UDFs use Push and the sink packs their rows into
/// batches. A UDF may mix both; output order is push order.
class BatchSink {
 public:
  virtual ~BatchSink() = default;
  virtual Status Push(Row row) = 0;
  virtual Status PushBatch(ColumnBatch batch) = 0;
};

}  // namespace sqlink

#endif  // SQLINK_SQL_BATCH_ITERATOR_H_
