// Unit tests for the multiplexed transfer fabric (src/net): channel
// framing and FIFO isolation on a shared connection, per-channel credit
// flow control (a starved channel parks alone), close/failure semantics
// (channel close never touches the shared socket; connection death fails
// every channel), the reader-side connection pool bound, sink-key routing
// on the process-wide sink server, the shared heartbeat bus, the send_data
// fault point's match on kColData only, and a stream reader's rejection of
// the retired row-data frame type.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "net/conn_pool.h"
#include "net/mux.h"
#include "stream/heartbeat.h"
#include "stream/socket.h"
#include "stream/sql_stream_input_format.h"
#include "stream/wire.h"

namespace sqlink {
namespace {

/// Channels handed to the server side's open handler, in arrival order.
struct OpenedChannels {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<MuxChannelPtr> channels;
  std::vector<OpenChannelMessage> opens;

  void Add(MuxChannelPtr channel, const OpenChannelMessage& msg) {
    std::lock_guard<std::mutex> lock(mu);
    channels.push_back(std::move(channel));
    opens.push_back(msg);
    cv.notify_all();
  }

  MuxChannelPtr Wait(size_t index) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return channels.size() > index; });
    return channels[index];
  }
};

/// One client↔server mux connection pair over loopback.
struct MuxPair {
  std::shared_ptr<OpenedChannels> opened = std::make_shared<OpenedChannels>();
  std::shared_ptr<MuxConn> client;
  std::shared_ptr<MuxConn> server;

  static MuxPair Make() {
    MuxPair pair;
    auto listener = TcpListener::Listen(0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    auto dialed = TcpConnect("localhost", listener->port());
    EXPECT_TRUE(dialed.ok()) << dialed.status();
    auto accepted = listener->Accept();
    EXPECT_TRUE(accepted.ok()) << accepted.status();
    auto opened = pair.opened;
    pair.server = MuxConn::Spawn(
        std::move(*accepted),
        [opened](MuxChannelPtr channel, const OpenChannelMessage& msg) {
          opened->Add(std::move(channel), msg);
        });
    pair.client = MuxConn::Spawn(std::move(*dialed), /*on_open=*/nullptr);
    return pair;
  }

  ~MuxPair() {
    if (client != nullptr) client->Shutdown(Status::Cancelled("test done"));
    if (server != nullptr) server->Shutdown(Status::Cancelled("test done"));
  }
};

OpenChannelMessage OpenMsg(uint64_t window_bytes) {
  OpenChannelMessage msg;
  msg.sink_key = 7;
  msg.window_bytes = window_bytes;
  msg.hello.split_id = 1;
  return msg;
}

TEST(MuxTest, InterleavedChannelsKeepPerChannelFifoOrder) {
  MuxPair pair = MuxPair::Make();
  constexpr int kChannels = 3;
  constexpr int kFrames = 20;

  std::vector<MuxChannelPtr> senders;
  for (int c = 0; c < kChannels; ++c) {
    auto channel = pair.client->OpenChannel(OpenMsg(1 << 20));
    ASSERT_TRUE(channel.ok()) << channel.status();
    senders.push_back(*channel);
  }

  // All channels send concurrently: their frames interleave arbitrarily on
  // the shared socket, but each channel's stream must stay FIFO and never
  // leak into a sibling's inbox.
  std::vector<std::thread> threads;
  for (int c = 0; c < kChannels; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kFrames; ++i) {
        const std::string payload =
            "ch" + std::to_string(c) + ":" + std::to_string(i);
        ASSERT_TRUE(senders[c]
                        ->Send(FrameType::kColData, payload,
                               static_cast<uint64_t>(i + 1))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kChannels; ++c) {
    MuxChannelPtr receiver = pair.opened->Wait(static_cast<size_t>(c));
    // Channel c's open message carried the embedded HELLO.
    EXPECT_EQ(pair.opened->opens[static_cast<size_t>(c)].hello.split_id, 1);
    // Identify which client channel this is by its first frame's payload.
    Frame frame;
    ASSERT_TRUE(receiver->Recv(&frame).ok());
    ASSERT_EQ(frame.type, FrameType::kColData);
    ASSERT_EQ(frame.payload.substr(0, 2), "ch");
    const std::string prefix = frame.payload.substr(0, frame.payload.find(':'));
    EXPECT_EQ(frame.seq, 1u);
    for (int i = 1; i < kFrames; ++i) {
      ASSERT_TRUE(receiver->Recv(&frame).ok());
      EXPECT_EQ(frame.payload, prefix + ":" + std::to_string(i));
      EXPECT_EQ(frame.seq, static_cast<uint64_t>(i + 1));
    }
  }
}

TEST(MuxTest, WindowExhaustionParksOnlyTheStarvedChannel) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t stalls_before = metrics.Get("net.mux.window_stalls");
  MuxPair pair = MuxPair::Make();
  const std::string payload(32, 'x');

  // Channel A gets a 64-byte window and a server that never reads: the
  // third data frame must park the sender.
  auto starved = pair.client->OpenChannel(OpenMsg(64));
  ASSERT_TRUE(starved.ok());
  // Channel B shares the socket but has a reader, so it must keep flowing
  // while A is parked.
  auto flowing = pair.client->OpenChannel(OpenMsg(64));
  ASSERT_TRUE(flowing.ok());
  MuxChannelPtr starved_rx = pair.opened->Wait(0);
  MuxChannelPtr flowing_rx = pair.opened->Wait(1);

  std::atomic<int> starved_sent{0};
  std::thread starved_sender([&] {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*starved)
                      ->Send(FrameType::kColData, payload,
                             static_cast<uint64_t>(i + 1))
                      .ok());
      starved_sent.fetch_add(1);
    }
  });

  // The third frame parks A only once the sender thread gets that far: wait
  // (deadline-capped) for the stall before B starts, so B's round trips run
  // while A is provably parked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metrics.Get("net.mux.window_stalls") == stalls_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(metrics.Get("net.mux.window_stalls"), stalls_before);

  // B makes 20 full round trips on the shared connection while A is stuck.
  Frame frame;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*flowing)
                    ->Send(FrameType::kColData, payload,
                           static_cast<uint64_t>(i + 1))
                    .ok());
    ASSERT_TRUE(flowing_rx->Recv(&frame).ok());
    EXPECT_EQ(frame.seq, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(starved_sent.load(), 2);  // Third frame is parked on credit.
  EXPECT_GT(metrics.Get("net.mux.window_stalls"), stalls_before);

  // Draining A's inbox replenishes its window (kChannelWindow) and releases
  // the parked sender.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(starved_rx->Recv(&frame).ok());
    EXPECT_EQ(frame.seq, static_cast<uint64_t>(i + 1));
  }
  starved_sender.join();
  EXPECT_EQ(starved_sent.load(), 3);
}

TEST(MuxTest, ShutdownWakesAParkedSenderWithoutTouchingTheSocket) {
  MuxPair pair = MuxPair::Make();
  auto starved = pair.client->OpenChannel(OpenMsg(16));
  ASSERT_TRUE(starved.ok());
  auto healthy = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(healthy.ok());
  MuxChannelPtr healthy_rx = pair.opened->Wait(1);

  const std::string payload(32, 'x');
  ASSERT_TRUE((*starved)->Send(FrameType::kColData, payload, 1).ok());
  std::atomic<bool> woke{false};
  Status parked_status;
  std::thread parked([&] {
    parked_status = (*starved)->Send(FrameType::kColData, payload, 2);
    woke.store(true);
  });
  // Replay-abort while the sender is parked on an empty window (the serving
  // layer's cancel path): the channel must wake with the abort status.
  while (!woke.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (*starved)->Shutdown(Status::Aborted("transfer aborted"));
  }
  parked.join();
  ASSERT_FALSE(parked_status.ok());
  EXPECT_TRUE(parked_status.IsAborted()) << parked_status;

  // The shared socket survived the channel close: its socket-mate still
  // makes full round trips.
  Frame frame;
  ASSERT_TRUE((*healthy)->Send(FrameType::kColData, "still alive", 1).ok());
  ASSERT_TRUE(healthy_rx->Recv(&frame).ok());
  EXPECT_EQ(frame.payload, "still alive");
  EXPECT_FALSE(pair.client->dead());
  EXPECT_FALSE(pair.server->dead());
}

TEST(MuxTest, RemoteCloseSurfacesStatusToPeerSendAndRecv) {
  MuxPair pair = MuxPair::Make();
  auto channel = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(channel.ok());
  MuxChannelPtr server_side = pair.opened->Wait(0);

  server_side->Shutdown(Status::Unavailable("sink not serving"));
  // The close races the open in the demux pipeline; both Send and Recv must
  // eventually report the peer's reason.
  Frame frame;
  Status status = (*channel)->Recv(&frame);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status;
  status = (*channel)->Send(FrameType::kColData, "late", 1);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status;
}

TEST(MuxTest, ConnectionDeathFailsEveryChannel) {
  MuxPair pair = MuxPair::Make();
  auto a = pair.client->OpenChannel(OpenMsg(1 << 20));
  auto b = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  (void)pair.opened->Wait(1);

  pair.server->Shutdown(Status::NetworkError("chaos: connection killed"));
  Frame frame;
  EXPECT_FALSE((*a)->Recv(&frame).ok());
  EXPECT_FALSE((*b)->Recv(&frame).ok());
  // The client side notices the dead socket and fails too.
  for (int i = 0; i < 1000 && !pair.client->dead(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pair.client->dead());
}

TEST(MuxTest, SinkServerRoutesBySinkKeyAndRejectsUnknownKeys) {
  auto port = MuxSinkServer::Global().EnsureStarted();
  ASSERT_TRUE(port.ok()) << port.status();
  auto opened = std::make_shared<OpenedChannels>();
  const uint64_t key = MuxSinkServer::Global().Register(
      [opened](MuxChannelPtr channel, const OpenChannelMessage& msg) {
        opened->Add(std::move(channel), msg);
      });
  ASSERT_NE(key, 0u);

  HelloMessage hello;
  hello.split_id = 3;
  auto routed = MuxConnPool::Global().OpenChannel("localhost", *port, key,
                                                  /*affinity=*/3, hello);
  ASSERT_TRUE(routed.ok()) << routed.status();
  MuxChannelPtr sink_side = opened->Wait(0);
  EXPECT_EQ(opened->opens[0].hello.split_id, 3);
  ASSERT_TRUE(sink_side->Send(FrameType::kResume, "", 0).ok());
  Frame frame;
  ASSERT_TRUE((*routed)->Recv(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kResume);

  // A key nobody registered is rejected per-channel with a retryable
  // status; the shared connection stays up.
  auto rejected = MuxConnPool::Global().OpenChannel(
      "localhost", *port, key + 999, /*affinity=*/3, hello);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  Status status = (*rejected)->Recv(&frame);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status;
  ASSERT_TRUE(sink_side->Send(FrameType::kColData, "alive", 1).ok());
  ASSERT_TRUE((*routed)->Recv(&frame).ok());
  EXPECT_EQ(frame.payload, "alive");

  MuxSinkServer::Global().Unregister(key);
  MuxConnPool::Global().ResetForTest();
}

TEST(MuxTest, PoolCapsSharedConnectionsPerPeer) {
  SetMuxConnsPerPeerForTest(2);
  MuxConnPool::Global().ResetForTest();
  auto port = MuxSinkServer::Global().EnsureStarted();
  ASSERT_TRUE(port.ok()) << port.status();
  auto opened = std::make_shared<OpenedChannels>();
  const uint64_t key = MuxSinkServer::Global().Register(
      [opened](MuxChannelPtr channel, const OpenChannelMessage& msg) {
        opened->Add(std::move(channel), msg);
      });

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t dials_before = metrics.Get("stream.reader.data_dials");
  std::vector<MuxChannelPtr> channels;
  for (uint64_t affinity = 0; affinity < 16; ++affinity) {
    HelloMessage hello;
    hello.split_id = static_cast<int>(affinity);
    auto channel = MuxConnPool::Global().OpenChannel("localhost", *port, key,
                                                     affinity, hello);
    ASSERT_TRUE(channel.ok()) << channel.status();
    channels.push_back(*channel);
  }
  // 16 logical streams, at most 2 sockets: that is the whole point.
  EXPECT_LE(metrics.Get("stream.reader.data_dials") - dials_before, 2);

  // Same affinity lands on the same connection, so a reconnecting reader
  // re-multiplexes instead of dialing.
  HelloMessage hello;
  auto again = MuxConnPool::Global().OpenChannel("localhost", *port, key,
                                                 /*affinity=*/5, hello);
  ASSERT_TRUE(again.ok());
  EXPECT_LE(metrics.Get("stream.reader.data_dials") - dials_before, 2);

  channels.clear();
  MuxSinkServer::Global().Unregister(key);
  MuxConnPool::Global().ResetForTest();
  SetMuxConnsPerPeerForTest(0);
}

TEST(MuxTest, StreamReaderRejectsRetiredRowDataFrame) {
  // Type 2 carried row-encoded data batches before kColData became the only
  // data encoding. A peer that still sends one must get a typed error from
  // the reader, not a hang or a crash.
  constexpr auto kRetiredRowData = static_cast<FrameType>(2);
  auto port = MuxSinkServer::Global().EnsureStarted();
  ASSERT_TRUE(port.ok()) << port.status();
  auto opened = std::make_shared<OpenedChannels>();
  const uint64_t key = MuxSinkServer::Global().Register(
      [opened](MuxChannelPtr channel, const OpenChannelMessage& msg) {
        opened->Add(std::move(channel), msg);
      });

  // A sink that answers the HELLO like the real one, then sends the
  // retired frame type in place of a kColData frame.
  const SchemaPtr schema = Schema::Make({{"id", DataType::kInt64}});
  std::thread sink([&] {
    MuxChannelPtr channel = opened->Wait(0);
    EXPECT_TRUE(
        channel->Send(FrameType::kResume, ResumeMessage{}.Encode(), 0).ok());
    std::string schema_payload;
    EncodeSchema(*schema, &schema_payload);
    EXPECT_TRUE(channel->Send(FrameType::kSchema, schema_payload, 0).ok());
    EXPECT_TRUE(channel->Send(kRetiredRowData, "rows", 1).ok());
  });

  StreamSplitInfo info;
  info.host = "localhost";
  info.port = *port;
  info.sink_key = key;
  // Recovery is off, so the reader never contacts the coordinator.
  SqlStreamInputFormat format("localhost", /*coordinator_port=*/0);
  auto reader = format.CreateReader(ml::JobContext{}, StreamSplit(info),
                                    /*worker_id=*/0);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE((*reader)->Open().ok());
  Stopwatch timer;
  ColumnBatch batch;
  auto next = (*reader)->NextBatch(&batch);
  EXPECT_TRUE(next.status().IsDataLoss()) << next.status();
  EXPECT_LT(timer.ElapsedMicros(), 5 * 1000 * 1000);
  sink.join();

  reader->reset();
  MuxSinkServer::Global().Unregister(key);
  MuxConnPool::Global().ResetForTest();
}

TEST(MuxTest, SendDataFailpointMatchesColumnarFramesOnly) {
  // kColData is the only data frame: the send_data fault point must skip
  // control-plane frames and the retired row-data type alike.
  MuxPair pair = MuxPair::Make();
  auto channel = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(channel.ok()) << channel.status();
  MuxChannelPtr server_side = pair.opened->Wait(0);
  ScopedFailpoint fault("stream.wire.send_data", "error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();

  ASSERT_TRUE((*channel)->Send(FrameType::kSchema, "schema", 0).ok());
  ASSERT_TRUE((*channel)->Send(static_cast<FrameType>(2), "rows", 1).ok());
  ASSERT_TRUE((*channel)->Send(FrameType::kEnd, "end", 2).ok());
  EXPECT_EQ(fault.hits(), 0);

  const Status status = (*channel)->Send(FrameType::kColData, "cols", 3);
  EXPECT_TRUE(status.IsNetworkError()) << status;
  EXPECT_EQ(fault.hits(), 1);
  EXPECT_EQ(fault.fires(), 1);

  // Only the three unfaulted frames reached the peer, in order.
  Frame frame;
  for (FrameType type :
       {FrameType::kSchema, static_cast<FrameType>(2), FrameType::kEnd}) {
    ASSERT_TRUE(server_side->Recv(&frame).ok());
    EXPECT_EQ(frame.type, type);
  }
}

TEST(MuxTest, HeartbeatBusSharesOneConnectionPerPeer) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t before = metrics.GetGauge("stream.heartbeat.conns")->value();
  auto first = HeartbeatBus::Global().Acquire("localhost", 19876);
  auto second = HeartbeatBus::Global().Acquire("localhost", 19876);
  // Same peer → same shared connection, counted once.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(metrics.GetGauge("stream.heartbeat.conns")->value(), before + 1);
  auto other = HeartbeatBus::Global().Acquire("localhost", 19877);
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(metrics.GetGauge("stream.heartbeat.conns")->value(), before + 2);
  first.reset();
  second.reset();
  other.reset();
  // Last holder dropped the connection.
  EXPECT_EQ(metrics.GetGauge("stream.heartbeat.conns")->value(), before);
}

}  // namespace
}  // namespace sqlink
