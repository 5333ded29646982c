#include <gtest/gtest.h>
#include <sys/resource.h>

#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "sql/engine.h"
#include "stream/coordinator.h"
#include "stream/frame_log.h"
#include "stream/socket.h"
#include "stream/stream_sink_udf.h"
#include "stream/streaming_transfer.h"
#include "stream/wire.h"
#include "frame_log_util.h"

namespace sqlink {
namespace {

// --- Sockets and wire format ---

TEST(SocketTest, RoundTripOverLoopback) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    std::string data;
    ASSERT_TRUE(conn->RecvExactly(5, &data).ok());
    EXPECT_EQ(data, "hello");
    ASSERT_TRUE(conn->SendAll("world!").ok());
  });
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->SendAll("hello").ok());
  std::string reply;
  ASSERT_TRUE(client->RecvExactly(6, &reply).ok());
  EXPECT_EQ(reply, "world!");
  server.join();
}

TEST(SocketTest, NodeHostnamesResolveToLoopback) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] { (void)listener->Accept(); });
  auto client = TcpConnect("node2", listener->port());
  EXPECT_TRUE(client.ok()) << client.status();
  server.join();
}

TEST(SocketTest, RecvOnClosedPeerReportsClosed) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    // Close immediately.
  });
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok());
  server.join();
  std::string data;
  auto status = client->RecvExactly(1, &data);
  EXPECT_TRUE(status.IsNetworkError());
}

TEST(WireTest, FrameRoundTrip) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = RecvFrame(&*conn);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kColData);
    EXPECT_EQ(frame->payload, "payload-bytes");
    ASSERT_TRUE(SendFrame(&*conn, FrameType::kEnd, "").ok());
  });
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(SendFrame(&*client, FrameType::kColData, "payload-bytes").ok());
  auto end = RecvFrame(&*client);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->type, FrameType::kEnd);
  EXPECT_TRUE(end->payload.empty());
  server.join();
}

// A peer that claims a 512 MiB frame, sends 16 bytes and hangs up must get
// a typed error without the receiver committing the claimed length.
TEST(WireTest, ForgedFrameLengthDoesNotAllocateClaimedSize) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread peer([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(header, FrameType::kColData, 512u << 20, /*seq=*/0,
                      /*channel=*/0, TraceContext{});
    ASSERT_TRUE(
        conn->SendAll(std::string_view(header, kFrameHeaderBytes)).ok());
    ASSERT_TRUE(conn->SendAll(std::string(16, 'x')).ok());
  });  // The peer's socket closes when the thread ends.
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok());
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  auto frame = RecvFrame(&*client);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  peer.join();
  EXPECT_TRUE(frame.status().IsNetworkError()) << frame.status();
  const long rise_kib = after.ru_maxrss - before.ru_maxrss;  // KiB on Linux.
  EXPECT_LT(rise_kib, 64 * 1024);
}

TEST(WireTest, SchemaSerializationRoundTrip) {
  Schema schema({{"age", DataType::kInt64},
                 {"gender", DataType::kString},
                 {"amount", DataType::kDouble},
                 {"flag", DataType::kBool}});
  std::string encoded;
  EncodeSchema(schema, &encoded);
  Decoder decoder(encoded);
  auto decoded = DecodeSchema(&decoder);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(**decoded, schema);
}

TEST(WireTest, ControlMessagesRoundTrip) {
  RegisterSqlMessage reg;
  reg.worker_id = 2;
  reg.num_workers = 4;
  reg.host = "node2";
  reg.port = 12345;
  reg.command = "svm";
  reg.args = {"--iterations", "10"};
  reg.schema = Schema::Make({{"x", DataType::kDouble}});
  auto reg2 = RegisterSqlMessage::Decode(reg.Encode());
  ASSERT_TRUE(reg2.ok());
  EXPECT_EQ(reg2->worker_id, 2);
  EXPECT_EQ(reg2->args, reg.args);
  EXPECT_EQ(*reg2->schema, *reg.schema);

  SplitsMessage splits;
  splits.schema = reg.schema;
  splits.splits = {{0, 0, "node0", 1111}, {1, 0, "node0", 1111},
                   {2, 1, "node1", 2222}};
  auto splits2 = SplitsMessage::Decode(splits.Encode());
  ASSERT_TRUE(splits2.ok());
  ASSERT_EQ(splits2->splits.size(), 3u);
  EXPECT_EQ(splits2->splits[2].host, "node1");

  HelloMessage hello{7, true};
  auto hello2 = HelloMessage::Decode(hello.Encode());
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->split_id, 7);
  EXPECT_TRUE(hello2->restart);
}

// --- Frame log ---

class FrameLogTest : public ::testing::Test {
 protected:
  FrameLog::Options SpillOptions(size_t send_buffer_bytes,
                                 const std::string& name) {
    FrameLog::Options options;
    options.send_buffer_bytes = send_buffer_bytes;
    options.spill_enabled = true;
    options.spill_path = temp_.path() + "/" + name;
    return options;
  }

  /// Sends every remaining frame without acking; returns them in order.
  static std::vector<std::pair<uint64_t, std::string>> SendAll(FrameLog* log) {
    std::vector<std::pair<uint64_t, std::string>> sent;
    for (;;) {
      auto more = log->SendNext([&](uint64_t seq, const std::string& frame) {
        sent.emplace_back(seq, frame);
        return Status::OK();
      });
      EXPECT_TRUE(more.ok()) << more.status();
      if (!more.ok() || !*more) return sent;
    }
  }

  ScopedTempDir temp_{"frame_log_test"};
};

TEST_F(FrameLogTest, FifoWithinMemory) {
  FrameLog::Options options;
  options.send_buffer_bytes = 1 << 20;
  options.spill_enabled = false;
  FrameLog log(options);
  ASSERT_TRUE(log.Append("a", 1).ok());
  ASSERT_TRUE(log.Append("bb", 2).ok());
  log.CloseProducer();
  std::string frame;
  ASSERT_TRUE(*PopFrame(&log, &frame));
  EXPECT_EQ(frame, "a");
  ASSERT_TRUE(*PopFrame(&log, &frame));
  EXPECT_EQ(frame, "bb");
  EXPECT_FALSE(*PopFrame(&log, &frame));
  EXPECT_EQ(log.last_seq(), 2u);
  EXPECT_EQ(log.total_rows(), 3u);
}

TEST_F(FrameLogTest, SpillsWhenFullAndPreservesOrder) {
  FrameLog log(SpillOptions(32, "spill"));
  // Fill memory then overflow to disk with nobody sending.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(log.Append("frame-" + std::to_string(i), 1).ok());
  }
  EXPECT_GT(log.spilled_frames(), 0);
  log.CloseProducer();
  std::string frame;
  for (int i = 0; i < 50; ++i) {
    auto got = PopFrame(&log, &frame);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(*got);
    EXPECT_EQ(frame, "frame-" + std::to_string(i));
  }
  EXPECT_FALSE(*PopFrame(&log, &frame));
}

TEST_F(FrameLogTest, UsesMemoryAgainOnceTheSendBufferHasRoom) {
  FrameLog log(SpillOptions(16, "spill2"));
  ASSERT_TRUE(log.Append(std::string(10, 'a'), 1).ok());
  ASSERT_TRUE(log.Append(std::string(10, 'b'), 1).ok());  // Spills.
  EXPECT_EQ(log.spilled_frames(), 1);
  std::string frame;
  ASSERT_TRUE(*PopFrame(&log, &frame));
  EXPECT_EQ(frame.front(), 'a');
  // 'b' is still on disk, yet 'c' fits the emptied send buffer: frames are
  // ordered by sequence, not by where they live, so it goes to memory.
  ASSERT_TRUE(log.Append(std::string(10, 'c'), 1).ok());
  EXPECT_EQ(log.spilled_frames(), 1);
  ASSERT_TRUE(*PopFrame(&log, &frame));
  EXPECT_EQ(frame.front(), 'b');  // From disk.
  ASSERT_TRUE(*PopFrame(&log, &frame));
  EXPECT_EQ(frame.front(), 'c');
}

TEST_F(FrameLogTest, BackpressureBlocksProducerUntilSend) {
  FrameLog::Options options;
  options.send_buffer_bytes = 8;
  options.spill_enabled = false;
  FrameLog log(options);
  ASSERT_TRUE(log.Append(std::string(8, 'x'), 1).ok());
  std::atomic<bool> appended{false};
  std::thread producer([&] {
    ASSERT_TRUE(log.Append(std::string(8, 'y'), 1).ok());
    appended.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(appended.load());  // Blocked: no room, no spill.
  std::string frame;
  EXPECT_TRUE(*PopFrame(&log, &frame));
  producer.join();
  EXPECT_TRUE(appended.load());
}

TEST_F(FrameLogTest, CancelUnblocksBothSides) {
  FrameLog::Options options;
  options.send_buffer_bytes = 4;
  options.spill_enabled = false;
  FrameLog log(options);
  ASSERT_TRUE(log.Append("full", 1).ok());
  std::string frame;
  ASSERT_TRUE(*PopFrame(&log, &frame));
  ASSERT_TRUE(log.Append("full", 1).ok());
  std::thread producer([&] {
    EXPECT_TRUE(log.Append("more", 1).IsCancelled());  // Parked, then woken.
  });
  FrameLog empty(options);
  std::thread sender([&] {
    EXPECT_TRUE(PopFrame(&empty, &frame).status().IsCancelled());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.Cancel();
  empty.Cancel();
  producer.join();
  sender.join();
  EXPECT_TRUE(log.Append("x", 1).IsCancelled());
}

TEST_F(FrameLogTest, ConcurrentProducerSenderWithSpill) {
  FrameLog log(SpillOptions(64, "spill3"));
  constexpr int kFrames = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(log.Append("frame-" + std::to_string(i), 1).ok());
    }
    log.CloseProducer();
  });
  int count = 0;
  std::string frame;
  for (;;) {
    auto got = PopFrame(&log, &frame);
    ASSERT_TRUE(got.ok());
    if (!*got) break;
    EXPECT_EQ(frame, "frame-" + std::to_string(count));
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kFrames);
}

TEST_F(FrameLogTest, AbortLeavesNoSpillFilesBehind) {
  const FrameLog::Options options = SpillOptions(32, "abort_spill");
  {
    FrameLog log(options);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(log.Append(std::string(24, 'x'), 1).ok());
    }
    ASSERT_GT(log.spilled_frames(), 0);
    EXPECT_TRUE(std::filesystem::exists(options.spill_path + ".spill"));
    // Abort mid-drain: nothing was ever sent, yet Cancel must delete the
    // on-disk backlog immediately, not wait for process exit.
    log.Cancel();
    EXPECT_FALSE(std::filesystem::exists(options.spill_path + ".spill"));
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp_.path()));
}

TEST_F(FrameLogTest, DestructorLeavesNoSpillFilesBehind) {
  {
    FrameLog log(SpillOptions(32, "drop_spill"));
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(log.Append(std::string(24, 'x'), 1).ok());
    }
    ASSERT_GT(log.spilled_frames(), 0);
    // Half sent and never acked: destruction alone must clean the dir.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(*log.SendNext([](uint64_t, const std::string&) {
        return Status::OK();
      }));
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp_.path()));
}

TEST_F(FrameLogTest, ReplaysUnackedSuffixFromMemoryAndDisk) {
  MetricsRegistry::Global().Reset();
  FrameLog log(SpillOptions(16, "window"));  // Frames 2.. go to disk.
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(log.Append("frame" + std::to_string(seq), seq).ok());
  }
  log.CloseProducer();
  EXPECT_GT(log.spilled_frames(), 0);
  EXPECT_EQ(SendAll(&log).size(), 6u);
  log.Ack(2);
  // A reader resuming from frame 3 gets exactly 4, 5, 6 — in order, with
  // content intact whether the frame lived in memory or on disk.
  const FrameLog::ResumePoint resume = log.Rewind(3);
  EXPECT_EQ(resume.seq, 3u);
  EXPECT_EQ(resume.rows, 6u);  // 1 + 2 + 3
  const auto replayed = SendAll(&log);
  ASSERT_EQ(replayed.size(), 3u);
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].first, 4 + i);
    EXPECT_EQ(replayed[i].second, "frame" + std::to_string(4 + i));
  }
  EXPECT_EQ(MetricsRegistry::Global().Get("transfer.frames_replayed"), 3);
  // The resume point never precedes the ack nor passes the last sent frame.
  EXPECT_EQ(log.Rewind(-1).seq, 2u);
  EXPECT_EQ(log.Rewind(1).seq, 2u);
  EXPECT_EQ(log.Rewind(99).seq, 6u);
  EXPECT_EQ(log.Rewind(99).rows, 21u);  // 1 + ... + 6
  log.Ack(6);
  EXPECT_EQ(log.retained_memory_bytes(), 0u);
}

TEST_F(FrameLogTest, SentFramesOverflowTheRetentionCapIntoTheOneSpillFile) {
  MetricsRegistry::Global().Reset();
  constexpr size_t kFrameBytes = FrameLog::kRetainedMemoryBytes / 4;
  {
    FrameLog log(SpillOptions(kFrameBytes, "retain"));
    std::vector<std::string> frames;
    for (int i = 0; i < 6; ++i) {
      frames.push_back(std::string(kFrameBytes, static_cast<char>('a' + i)));
      ASSERT_TRUE(log.Append(frames.back(), 1).ok());
      ASSERT_TRUE(*log.SendNext([](uint64_t, const std::string&) {
        return Status::OK();
      }));
      EXPECT_LE(log.retained_memory_bytes(), FrameLog::kRetainedMemoryBytes);
    }
    log.CloseProducer();
    EXPECT_EQ(log.spilled_frames(), 0);  // Nothing overflowed the send buffer.
    EXPECT_EQ(log.retention_spilled_frames(), 2);  // 6 x 1/4 cap: 2 overflow.
    EXPECT_EQ(MetricsRegistry::Global().Get("stream.replay_window.spilled_frames"),
              2);
    // One file per channel, each overflowed frame written once.
    EXPECT_EQ(std::filesystem::file_size(temp_.path() + "/retain.spill"),
              2 * (4 + kFrameBytes));
    log.Rewind(0);
    const auto replayed = SendAll(&log);
    ASSERT_EQ(replayed.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(replayed[i].second, frames[i]) << "frame " << i;
    }
    // Never acked, never finished: an aborted transfer drops the log.
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp_.path()));
}

TEST_F(FrameLogTest, SpillFileEmptiesOnceEveryDiskFrameIsAcked) {
  constexpr size_t kFrameBytes = FrameLog::kRetainedMemoryBytes / 4;
  FrameLog log(SpillOptions(kFrameBytes, "bounded"));
  const std::string path = temp_.path() + "/bounded.spill";
  auto send = [](uint64_t, const std::string&) { return Status::OK(); };
  // Six sent frames of a quarter cap each: the two oldest overflow to disk.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(log.Append(std::string(kFrameBytes, 'a'), 1).ok());
    ASSERT_TRUE(*log.SendNext(send));
  }
  ASSERT_EQ(log.retention_spilled_frames(), 2);
  EXPECT_EQ(std::filesystem::file_size(path), 2 * (4 + kFrameBytes));
  // Acking one disk frame leaves the other live: the file keeps its bytes.
  log.Ack(1);
  EXPECT_EQ(std::filesystem::file_size(path), 2 * (4 + kFrameBytes));
  // Acking everything leaves nothing live on disk: the file is emptied.
  log.Ack(6);
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  // Spill again: the file holds only the live records, written from
  // offset 0, and they read back intact.
  std::vector<std::string> frames;
  for (int i = 0; i < 5; ++i) {
    frames.push_back(std::string(kFrameBytes, static_cast<char>('k' + i)));
    ASSERT_TRUE(log.Append(frames.back(), 1).ok());
    ASSERT_TRUE(*log.SendNext(send));
  }
  ASSERT_EQ(log.retention_spilled_frames(), 3);
  EXPECT_EQ(std::filesystem::file_size(path), 1 * (4 + kFrameBytes));
  log.CloseProducer();
  log.Rewind(6);
  const auto replayed = SendAll(&log);
  ASSERT_EQ(replayed.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(replayed[i].second, frames[i]) << "frame " << i;
  }
}

// --- End-to-end streaming transfer ---

class StreamingTransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("stream_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);

    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"feature", DataType::kDouble},
                                {"label", DataType::kInt64}});
    auto table = engine_->MakeTable("points", schema);
    Random rng(23);
    for (int64_t i = 0; i < 1000; ++i) {
      table->AppendRow(
          static_cast<size_t>(i) % 4,
          Row{Value::Int64(i), Value::Double(rng.NextDouble()),
              Value::Int64(i % 2)});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(StreamingTransferTest, DeliversEveryRowExactlyOnce) {
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  EXPECT_EQ(result->rows_sent, 1000);
  EXPECT_GT(result->bytes_sent, 0);
  EXPECT_EQ(result->stats.num_splits, 4);  // k=1, n=4.
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition.ToRows()) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second);
    }
  }
  EXPECT_EQ(ids.size(), 1000u);
  // Schema crossed the wire.
  EXPECT_EQ(result->dataset.schema->ToString(),
            "id:INT64, feature:DOUBLE, label:INT64");
}

TEST_F(StreamingTransferTest, FilteredQueryStreamsFilteredRows) {
  auto result = StreamingTransfer::Run(
      engine_.get(), "SELECT id, label FROM points WHERE id < 100");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 100u);
  EXPECT_EQ(result->dataset.schema->num_fields(), 2);
}

TEST_F(StreamingTransferTest, MultipleSplitsPerWorker) {
  StreamTransferOptions options;
  options.splits_per_worker = 3;  // m = 12 ML workers.
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.num_splits, 12);
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  // Round-robin keeps split sizes balanced.
  for (const auto& partition : result->dataset.partitions) {
    EXPECT_GT(partition.num_rows(), 0u);
  }
}

TEST_F(StreamingTransferTest, TinyBufferForcesManyFrames) {
  StreamTransferOptions options;
  options.sink.send_buffer_bytes = 64;
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
}

TEST_F(StreamingTransferTest, ResilientModeDeliversSameData) {
  StreamTransferOptions options;
  options.sink.resilient = true;
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
}

TEST_F(StreamingTransferTest, RecoversFromInjectedFailure) {
  StreamTransferOptions options;
  options.sink.resilient = true;  // SQL side retains a replayable log.
  options.reader.recovery_enabled = true;
  // Split 1's reader drops its connection once, right after its first
  // delivered batch — before that frame is committed, so the replay must
  // be recognized and not applied twice.
  ScopedFailpoint fault("stream.reader.row.split1", "error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Despite the mid-stream failure, exactly-once delivery holds.
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition.ToRows()) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second)
          << "duplicate row " << row[0].int64_value();
    }
  }
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_GT(engine_->metrics()->Get("stream.reconnects"), 0);
  EXPECT_EQ(fault.fires(), 1);
  EXPECT_EQ(MetricsRegistry::Global().Get(
                "failpoint.stream.reader.row.split1.fired"),
            1);
}

TEST_F(StreamingTransferTest, RecoversWithMultipleSplitsPerWorker) {
  // k = 2 and a failure on a non-first split of a worker: the slot routing
  // (split_id mod k) must deliver the reconnect to the right sender.
  StreamTransferOptions options;
  options.splits_per_worker = 2;
  options.sink.resilient = true;
  options.reader.recovery_enabled = true;
  // Split 5 = worker 2, slot 1: fails once after its first delivered batch.
  ScopedFailpoint fault("stream.reader.row.split5", "error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition.ToRows()) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second);
    }
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST_F(StreamingTransferTest, ReaderGivesUpAfterMaxReconnects) {
  StreamTransferOptions options;
  options.sink.resilient = true;  // Default 30 s reconnect window.
  options.reader.recovery_enabled = true;
  options.reader.max_reconnects = 0;  // Recovery enabled but exhausted.
  ScopedFailpoint fault("stream.reader.row.split0", "error(1)");
  const int64_t abort_replies_before =
      MetricsRegistry::Global().Get("coordinator.abort_replies");
  Stopwatch timer;
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_FALSE(result.ok());
  // Without heartbeats no replacement reader comes, so the job aborts the
  // transfer and the sink waiting for split 0's reconnect ends at once with
  // the typed status instead of sleeping out its reconnect window.
  EXPECT_LT(timer.ElapsedMicros(), 5000 * 1000);
  EXPECT_TRUE(result.status().IsAborted() ||
              result.status().message().find("injected connection failure") !=
                  std::string::npos)
      << result.status();
  // The RPCs answered with the abort status after the abort are counted
  // (the cause is logged once, not once per reply).
  EXPECT_GT(MetricsRegistry::Global().Get("coordinator.abort_replies"),
            abort_replies_before);
}

TEST_F(StreamingTransferTest, FailureWithoutRecoveryFailsThePipeline) {
  StreamTransferOptions options;
  options.reader.recovery_enabled = false;
  ScopedFailpoint fault("stream.reader.row.split0", "error(1)");
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  EXPECT_FALSE(result.ok());
}

TEST_F(StreamingTransferTest, SinkRejectsAnExtraTrailingArgument) {
  SqlStreamSinkUdf sink;
  std::vector<Value> args = {Value::String("localhost"), Value::Int64(1),
                             Value::String("svm"),       Value::Int64(4096),
                             Value::Int64(1),            Value::Int64(0),
                             Value::Int64(1000),         Value::Int64(0)};
  ASSERT_TRUE(sink.Bind(SqlStreamSinkUdf::SummarySchema(), args).ok());
  args.push_back(Value::Int64(1 << 20));
  EXPECT_TRUE(
      sink.Bind(SqlStreamSinkUdf::SummarySchema(), args).status().IsInvalidArgument());
}

TEST_F(StreamingTransferTest, BadQuerySurfacesSqlError) {
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT nope FROM missing");
  EXPECT_FALSE(result.ok());
}

TEST_F(StreamingTransferTest, SinkSqlRendersRoundTrippableQuery) {
  StreamSinkOptions sink;
  const std::string sql = StreamingTransfer::BuildSinkSql(
      "SELECT * FROM points", "localhost", 9999, "svm", sink);
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
  EXPECT_EQ(stmt->from[0].kind, TableRef::Kind::kTableFunction);
  EXPECT_EQ(stmt->from[0].name, "sql_stream_sink");
}

TEST_F(StreamingTransferTest, OneTraceCoversSinkCoordinatorReaderAndIngest) {
  Tracer::Global().Reset();
  Tracer::Global().set_sample_probability(1.0);
  Tracer::Global().set_enabled(true);
  auto result = StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  Tracer::Global().set_enabled(false);
  ASSERT_TRUE(result.ok()) << result.status();

  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  auto find = [&spans](const std::string& name) -> const SpanRecord* {
    for (const SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const SpanRecord* root = find("stream.transfer");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_span_id, 0u);

  // Every stage of the pipeline — SQL executor, sink UDF, coordinator
  // handlers, ML split fetch, per-connection reader streams, ML ingest —
  // lands in the root's trace: the end-to-end invariant the wire-header
  // propagation plus ambient context exist for.
  for (const char* name :
       {"sql.execute", "sink.partition", "sink.register", "sink.send",
        "coordinator.register_sql", "coordinator.get_splits",
        "reader.get_splits", "reader.stream", "ml.ingest",
        "ml.ingest.split"}) {
    const SpanRecord* span = find(name);
    ASSERT_NE(span, nullptr) << name << " span missing";
    EXPECT_EQ(span->trace_id, root->trace_id) << name;
    EXPECT_NE(span->parent_span_id, 0u) << name;
    EXPECT_FALSE(span->error) << name;
  }

  // Cross-wire link: each reader.stream span's parent is the sink-side span
  // that sent the schema frame (a span of the same trace, recorded on the
  // SQL-worker thread).
  const SpanRecord* reader_stream = find("reader.stream");
  bool parent_found = false;
  for (const SpanRecord& span : spans) {
    if (span.span_id == reader_stream->parent_span_id) {
      parent_found = true;
      EXPECT_EQ(span.trace_id, root->trace_id);
    }
  }
  EXPECT_TRUE(parent_found) << "reader.stream parent span not recorded";

  // Thread-crossing link: per-split ingest spans are children of ml.ingest.
  const SpanRecord* ingest = find("ml.ingest");
  int split_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != "ml.ingest.split") continue;
    ++split_spans;
    EXPECT_EQ(span.parent_span_id, ingest->span_id);
  }
  EXPECT_EQ(split_spans, 4);  // One per split (k=1, n=4).
}

// --- Coordinator-level behaviours ---

TEST(CoordinatorTest, SplitsGroupedPerSqlWorker) {
  StreamCoordinator::Options options;
  options.splits_per_worker = 2;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());

  auto schema = Schema::Make({{"x", DataType::kInt64}});
  // Register two fake SQL workers.
  for (int w = 0; w < 2; ++w) {
    auto control = TcpConnect("localhost", (*coordinator)->port());
    ASSERT_TRUE(control.ok());
    RegisterSqlMessage reg;
    reg.worker_id = w;
    reg.num_workers = 2;
    reg.host = "node" + std::to_string(w);
    reg.port = 5000 + w;
    reg.command = "test";
    reg.schema = schema;
    ASSERT_TRUE(
        SendFrame(&*control, FrameType::kRegisterSql, reg.Encode()).ok());
    auto ack = RecvFrame(&*control);
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->type, FrameType::kAck);
  }
  // Fetch splits like an ML job would.
  auto control = TcpConnect("localhost", (*coordinator)->port());
  ASSERT_TRUE(control.ok());
  ASSERT_TRUE(SendFrame(&*control, FrameType::kGetSplits, "").ok());
  auto frame = RecvFrame(&*control);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, FrameType::kSplits);
  auto splits = SplitsMessage::Decode(frame->payload);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->splits.size(), 4u);  // m = n*k = 2*2.
  // Grouped: splits 0,1 -> worker 0; splits 2,3 -> worker 1.
  EXPECT_EQ(splits->splits[0].sql_worker, 0);
  EXPECT_EQ(splits->splits[1].sql_worker, 0);
  EXPECT_EQ(splits->splits[2].sql_worker, 1);
  EXPECT_EQ(splits->splits[3].sql_worker, 1);
  // Locality: each split advertises its SQL worker's host.
  EXPECT_EQ(splits->splits[0].host, "node0");
  EXPECT_EQ(splits->splits[3].host, "node1");
  EXPECT_EQ((*coordinator)->registered_sql_workers(), 2);
  (*coordinator)->Stop();
}

TEST(CoordinatorTest, MatchmakingReturnsSqlEndpoint) {
  StreamCoordinator::Options options;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  {
    auto control = TcpConnect("localhost", (*coordinator)->port());
    ASSERT_TRUE(control.ok());
    RegisterSqlMessage reg;
    reg.worker_id = 0;
    reg.num_workers = 1;
    reg.host = "node0";
    reg.port = 7777;
    reg.command = "test";
    reg.schema = Schema::Make({{"x", DataType::kInt64}});
    ASSERT_TRUE(
        SendFrame(&*control, FrameType::kRegisterSql, reg.Encode()).ok());
    ASSERT_TRUE(RecvFrame(&*control).ok());
  }
  auto control = TcpConnect("localhost", (*coordinator)->port());
  ASSERT_TRUE(control.ok());
  RegisterMlMessage reg_ml;
  reg_ml.split_id = 0;
  ASSERT_TRUE(
      SendFrame(&*control, FrameType::kRegisterMl, reg_ml.Encode()).ok());
  auto match_frame = RecvFrame(&*control);
  ASSERT_TRUE(match_frame.ok());
  ASSERT_EQ(match_frame->type, FrameType::kMatch);
  auto match = MatchMessage::Decode(match_frame->payload);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->host, "node0");
  EXPECT_EQ(match->port, 7777);
  EXPECT_EQ((*coordinator)->registered_ml_workers(), 1);
}

TEST(CoordinatorTest, CheckpointResumeServesMatchmaking) {
  // §6: the coordinator itself must be resilient (the paper suggests
  // ZooKeeper). Simulate a failover: checkpoint after SQL registration,
  // kill the coordinator, resume a replacement from the checkpoint, and
  // verify an ML worker can still register and be matched.
  std::string checkpoint;
  {
    StreamCoordinator::Options options;
    options.splits_per_worker = 2;
    auto coordinator = StreamCoordinator::Start(std::move(options));
    ASSERT_TRUE(coordinator.ok());
    auto control = TcpConnect("localhost", (*coordinator)->port());
    ASSERT_TRUE(control.ok());
    RegisterSqlMessage reg;
    reg.worker_id = 0;
    reg.num_workers = 1;
    reg.host = "node0";
    reg.port = 4242;
    reg.command = "svm";
    reg.schema = Schema::Make({{"x", DataType::kInt64}});
    ASSERT_TRUE(
        SendFrame(&*control, FrameType::kRegisterSql, reg.Encode()).ok());
    ASSERT_TRUE(RecvFrame(&*control).ok());
    checkpoint = (*coordinator)->Checkpoint();
    (*coordinator)->Stop();  // The "crash".
  }
  StreamCoordinator::Options options;
  options.splits_per_worker = 2;
  auto resumed = StreamCoordinator::Resume(std::move(options), checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  // Splits survive the failover.
  auto control = TcpConnect("localhost", (*resumed)->port());
  ASSERT_TRUE(control.ok());
  ASSERT_TRUE(SendFrame(&*control, FrameType::kGetSplits, "").ok());
  auto frame = RecvFrame(&*control);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, FrameType::kSplits);
  auto splits = SplitsMessage::Decode(frame->payload);
  ASSERT_TRUE(splits.ok());
  EXPECT_EQ(splits->splits.size(), 2u);

  // Matchmaking works against the resumed coordinator.
  auto ml_control = TcpConnect("localhost", (*resumed)->port());
  ASSERT_TRUE(ml_control.ok());
  RegisterMlMessage reg_ml;
  reg_ml.split_id = 1;
  ASSERT_TRUE(
      SendFrame(&*ml_control, FrameType::kRegisterMl, reg_ml.Encode()).ok());
  auto match_frame = RecvFrame(&*ml_control);
  ASSERT_TRUE(match_frame.ok());
  ASSERT_EQ(match_frame->type, FrameType::kMatch);
  auto match = MatchMessage::Decode(match_frame->payload);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->port, 4242);
}

TEST(CoordinatorTest, BarrierTimesOutWithoutFullRegistration) {
  StreamCoordinator::Options options;
  options.barrier_timeout_ms = 200;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  // No SQL worker ever registers, so the splits barrier cannot complete;
  // a GetSplits request must fail after barrier_timeout_ms, not hang.
  auto control = TcpConnect("localhost", (*coordinator)->port());
  ASSERT_TRUE(control.ok());
  ASSERT_TRUE(SendFrame(&*control, FrameType::kGetSplits, "").ok());
  auto reply = RecvFrame(&*control);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->payload.find("timed out"), std::string::npos)
      << reply->payload;
}

TEST(CoordinatorTest, ResumeRejectsCorruptCheckpoint) {
  StreamCoordinator::Options options;
  EXPECT_FALSE(StreamCoordinator::Resume(std::move(options), "garbage").ok());
}

TEST(CoordinatorTest, UnknownSplitRejected) {
  StreamCoordinator::Options options;
  options.barrier_timeout_ms = 500;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  {
    auto control = TcpConnect("localhost", (*coordinator)->port());
    ASSERT_TRUE(control.ok());
    RegisterSqlMessage reg;
    reg.worker_id = 0;
    reg.num_workers = 1;
    reg.host = "node0";
    reg.port = 1;
    reg.command = "t";
    reg.schema = Schema::Make({{"x", DataType::kInt64}});
    ASSERT_TRUE(
        SendFrame(&*control, FrameType::kRegisterSql, reg.Encode()).ok());
    ASSERT_TRUE(RecvFrame(&*control).ok());
  }
  auto control = TcpConnect("localhost", (*coordinator)->port());
  ASSERT_TRUE(control.ok());
  RegisterMlMessage bad;
  bad.split_id = 99;
  ASSERT_TRUE(SendFrame(&*control, FrameType::kRegisterMl, bad.Encode()).ok());
  auto reply = RecvFrame(&*control);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kError);
}

}  // namespace
}  // namespace sqlink
