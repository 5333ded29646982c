#ifndef SQLINK_MQ_MQ_TRANSFER_H_
#define SQLINK_MQ_MQ_TRANSFER_H_

#include <memory>
#include <string>

#include "ml/input_format.h"
#include "ml/job.h"
#include "mq/broker.h"
#include "sql/engine.h"

namespace sqlink {

/// Broker-mediated SQL→ML transfer — the paper's §8 alternative to direct
/// sockets. Each SQL worker publishes its rows (batched into frames) to k
/// topic partitions; ML workers consume partitions at their own pace and
/// resume from committed offsets after a failure, so recovery re-reads
/// only the uncommitted tail instead of replaying the whole stream (the
/// "at least one read" guarantee), and a slow consumer simply lags against
/// the broker's retained log.
/// Fault injection lives in the failpoint registry (common/failpoint.h):
/// arm "mq.reader.crash.p<ID>" to make partition ID's consumer "crash"
/// after a delivered row and resume from its last committed offset, or
/// "mq.broker.produce" / "mq.broker.poll" for broker-side faults.
struct MqTransferOptions {
  int partitions_per_worker = 1;  ///< k; topic has n·k partitions.
  size_t batch_bytes = 4096;      ///< Frame batching, as the socket path.
  std::string consumer_group = "ml-ingest";
};

struct MqTransferResult {
  ml::ColumnDataset dataset;
  int64_t rows_published = 0;
  int64_t messages_published = 0;
  /// Messages re-read after the injected failure (recovery tail; compare
  /// with the direct transfer's full replay).
  int64_t messages_reread = 0;
};

/// Registers the "mq_stream_sink" table UDF bound to `broker` on the
/// engine. SQL: TABLE(mq_stream_sink((<query>), '<topic>', <k>, <batch>)).
/// Idempotent per engine/broker pair (re-registration with a different
/// broker fails).
Status RegisterMqSinkUdf(SqlEngine* engine, MessageBrokerPtr broker);

/// An ml::InputFormat over a broker topic: one split per partition, each
/// located at the producing SQL worker's host.
class MqInputFormat final : public ml::InputFormat {
 public:
  MqInputFormat(MessageBrokerPtr broker, std::string topic, SchemaPtr schema,
                MqTransferOptions options);

  Result<std::vector<ml::InputSplitPtr>> GetSplits(
      const ml::JobContext& context) override;
  Result<std::unique_ptr<ml::RecordReader>> CreateReader(
      const ml::JobContext& context, const ml::InputSplit& split,
      int worker_id) override;
  SchemaPtr schema() const override { return schema_; }

  int64_t messages_reread() const;

 private:
  MessageBrokerPtr broker_;
  std::string topic_;
  SchemaPtr schema_;
  MqTransferOptions options_;
  std::shared_ptr<std::atomic<int64_t>> reread_counter_;
};

/// Runs the whole broker-mediated pipeline for one query: creates the
/// topic, executes the query with the mq sink UDF (publishing), and
/// concurrently ingests the topic into a ColumnDataset.
class MqTransfer {
 public:
  static Result<MqTransferResult> Run(SqlEngine* engine,
                                      MessageBrokerPtr broker,
                                      const std::string& query_sql,
                                      const MqTransferOptions& options = {});
};

}  // namespace sqlink

#endif  // SQLINK_MQ_MQ_TRANSFER_H_
