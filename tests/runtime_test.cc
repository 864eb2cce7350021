// Tests for the real-thread runtime: completion of every accepted request, the §4.3
// per-connection ordering guarantee under stealing, exclusive socket ownership
// (handlers for one flow never run concurrently), work stealing under skewed RSS
// layouts, no-steal isolation, the idle loop's own-queue-only peeks, frame
// reassembly, and clean shutdown — all exercised through the Transport interface with
// BOTH backends: LoopbackTransport (in-process rings) and TcpTransport (real epoll
// sockets over the loopback interface). The TCP tests assert that stealing and remote
// batched syscalls remain observable in WorkerStats when traffic arrives from real
// I/O, and that pathological 1-byte segmentation cannot reorder a flow's responses.
//
// All assertions are functional (counts, orderings, invariants), never timing-based —
// the host may have a single hardware thread.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/message.h"
#include "src/runtime/client.h"
#include "src/runtime/loopback_transport.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"

namespace zygos {
namespace {

RequestHandler EchoHandler() {
  return [](uint64_t flow_id, const std::string& request) {
    (void)flow_id;
    return "echo:" + request;
  };
}

// Collects completions per flow, preserving per-flow arrival order of responses.
class CompletionLog {
 public:
  CompletionHandler Handler() {
    return [this](uint64_t flow_id, uint64_t request_id, std::string_view response,
                  Nanos arrival, bool shed) {
      (void)arrival;
      (void)shed;
      std::lock_guard<std::mutex> guard(mutex_);
      per_flow_[flow_id].push_back(request_id);
      responses_[request_id] = std::string(response);  // the view dies with the frame
      total_++;
    };
  }

  std::vector<uint64_t> FlowOrder(uint64_t flow_id) {
    std::lock_guard<std::mutex> guard(mutex_);
    return per_flow_[flow_id];
  }
  std::string ResponseFor(uint64_t request_id) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = responses_.find(request_id);
    return it == responses_.end() ? "" : it->second;
  }
  uint64_t total() {
    std::lock_guard<std::mutex> guard(mutex_);
    return total_;
  }

 private:
  std::mutex mutex_;
  std::map<uint64_t, std::vector<uint64_t>> per_flow_;
  std::map<uint64_t, std::string> responses_;
  uint64_t total_ = 0;
};

RuntimeOptions SmallOptions(int workers = 3, int flows = 16) {
  RuntimeOptions options;
  options.num_workers = workers;
  options.num_flows = flows;
  return options;
}

// A handler busy enough that the home core cannot drain its backlog alone, forcing
// the shuffle layer's steal path under skewed layouts.
RequestHandler BusyEchoHandler(int spins = 2000) {
  return [spins](uint64_t, const std::string& request) {
    volatile int sink = 0;
    for (int i = 0; i < spins; ++i) {
      sink = sink + i;
    }
    return request;
  };
}

// --- TCP backend test support ----------------------------------------------------------

// Builds a Runtime on a TcpTransport listening on an ephemeral loopback port.
// `transport_out` stays valid for the runtime's lifetime (the runtime owns it).
std::unique_ptr<Runtime> MakeTcpRuntime(RuntimeOptions options, RequestHandler handler,
                                        CompletionHandler on_complete,
                                        TcpTransport** transport_out) {
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  *transport_out = transport.get();
  transport->set_on_complete(std::move(on_complete));
  return std::make_unique<Runtime>(options, std::move(transport), std::move(handler));
}

// Minimal blocking TCP client speaking the framed RPC protocol.
class TestTcpClient {
 public:
  // `rcvbuf` > 0 clamps SO_RCVBUF before connect (fixes the advertised window and
  // disables autotuning) — the deaf-peer stall test needs a small, known backlog cap.
  explicit TestTcpClient(uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~TestTcpClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  TestTcpClient(const TestTcpClient&) = delete;
  TestTcpClient& operator=(const TestTcpClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool SendBytes(const char* data, size_t len) {
    size_t sent = 0;
    while (sent < len) {
      ssize_t w = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) {
        continue;
      }
      if (w <= 0) {
        return false;
      }
      sent += static_cast<size_t>(w);
    }
    return true;
  }
  bool SendRequest(uint64_t request_id, const std::string& payload) {
    std::string frame;
    EncodeMessage(request_id, payload, frame);
    return SendBytes(frame.data(), frame.size());
  }
  // Sends one frame a single byte at a time: pathological segmentation on the wire.
  bool SendRequestByteByByte(uint64_t request_id, const std::string& payload) {
    std::string frame;
    EncodeMessage(request_id, payload, frame);
    for (char byte : frame) {
      if (!SendBytes(&byte, 1)) {
        return false;
      }
    }
    return true;
  }

  // Blocks until one complete response frame is available.
  bool RecvMessage(Message* out) {
    while (inbox_.empty()) {
      char buf[4096];
      ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r < 0 && errno == EINTR) {
        continue;
      }
      if (r <= 0) {
        return false;
      }
      if (!parser_.Feed(buf, static_cast<size_t>(r))) {
        return false;
      }
      for (Message& msg : parser_.TakeMessages()) {
        inbox_.push_back(std::move(msg));
      }
    }
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

 private:
  int fd_ = -1;
  FrameParser parser_;
  std::deque<Message> inbox_;
};

// Closed-loop pipelined echo exchange on one connection; returns false on any
// transport failure or out-of-order / corrupted response.
bool RunEchoExchange(TestTcpClient& client, uint64_t requests, int window,
                     const std::string& payload_prefix) {
  uint64_t sent = 0;
  uint64_t received = 0;
  while (received < requests) {
    while (sent < requests && sent - received < static_cast<uint64_t>(window)) {
      if (!client.SendRequest(sent, payload_prefix + std::to_string(sent))) {
        return false;
      }
      sent++;
    }
    Message response;
    if (!client.RecvMessage(&response)) {
      return false;
    }
    if (response.request_id != received ||
        response.payload != payload_prefix + std::to_string(received)) {
      return false;
    }
    received++;
  }
  return true;
}

TEST(RuntimeTest, EchoesEveryRequestExactlyOnce) {
  CompletionLog log;
  Runtime runtime(SmallOptions(), EchoHandler(), log.Handler());
  runtime.Start();
  constexpr uint64_t kRequests = 2000;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(runtime.Inject(i % 16, i, "r" + std::to_string(i)));
  }
  runtime.Shutdown();
  EXPECT_EQ(runtime.Completed(), kRequests);
  EXPECT_EQ(log.total(), kRequests);
  EXPECT_EQ(log.ResponseFor(7), "echo:r7");
  EXPECT_EQ(log.ResponseFor(kRequests - 1), "echo:r" + std::to_string(kRequests - 1));
  EXPECT_EQ(runtime.NicDrops(), 0u);
}

TEST(RuntimeTest, PerFlowResponsesStayInOrderUnderStealing) {
  CompletionLog log;
  // A slow-ish handler plus a single hot flow maximizes steal interleavings.
  RequestHandler handler = [](uint64_t, const std::string& request) {
    volatile int sink = 0;
    for (int i = 0; i < 500; ++i) {
      sink = sink + i;
    }
    return request;
  };
  Runtime runtime(SmallOptions(/*workers=*/4, /*flows=*/4), handler, log.Handler());
  runtime.Start();
  constexpr uint64_t kPerFlow = 500;
  for (uint64_t i = 0; i < kPerFlow; ++i) {
    for (uint64_t flow = 0; flow < 4; ++flow) {
      ASSERT_TRUE(runtime.Inject(flow, flow * kPerFlow + i, "x"));
    }
  }
  runtime.Shutdown();
  for (uint64_t flow = 0; flow < 4; ++flow) {
    auto order = log.FlowOrder(flow);
    ASSERT_EQ(order.size(), kPerFlow) << "flow " << flow;
    for (uint64_t i = 0; i < kPerFlow; ++i) {
      EXPECT_EQ(order[i], flow * kPerFlow + i)
          << "flow " << flow << " response " << i << " out of order";
    }
  }
}

TEST(RuntimeTest, HandlersForOneFlowNeverRunConcurrently) {
  // Exclusive socket ownership (§4.3): per-flow execution is mutually exclusive even
  // when different cores steal the connection at different times.
  constexpr int kFlows = 4;
  std::array<std::atomic<int>, kFlows> in_flight{};
  std::atomic<int> violations{0};
  RequestHandler handler = [&](uint64_t flow_id, const std::string& request) {
    int now = in_flight[flow_id].fetch_add(1) + 1;
    if (now > 1) {
      violations.fetch_add(1);
    }
    std::this_thread::yield();  // widen the race window
    in_flight[flow_id].fetch_sub(1);
    return request;
  };
  CompletionLog log;
  Runtime runtime(SmallOptions(/*workers=*/4, kFlows), handler, log.Handler());
  runtime.Start();
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(runtime.Inject(i % kFlows, i, "x"));
  }
  runtime.Shutdown();
  EXPECT_EQ(violations.load(), 0);
}

TEST(RuntimeTest, SkewedRssTriggersStealing) {
  // Home every flow group on core 0: without stealing, cores 1..3 would stay idle.
  RuntimeOptions options = SmallOptions(/*workers=*/4, /*flows=*/32);
  CompletionLog log;
  // Busy-ish handler so core 0 cannot drain everything between injections.
  Runtime runtime(options, BusyEchoHandler(), log.Handler());
  runtime.mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime.Start();
  // Keep a continuous backlog on core 0 until the first steal is claimed (time-capped,
  // not timing-asserted): on a loaded single-hardware-thread host a fixed batch can be
  // drained run-to-completion inside core 0's scheduling quantum, but under sustained
  // ring back-pressure every slice another worker gets is a steal opportunity. A
  // broken steal path simply exhausts the cap and fails the assertion below.
  uint64_t injected = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (runtime.TotalShuffleStats().steals == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int burst = 0; burst < 500; ++burst) {
      if (runtime.Inject(injected % 32, injected, "x")) {
        injected++;
      } else {
        std::this_thread::yield();  // ring full: let the workers run, keep the backlog
      }
    }
  }
  runtime.Shutdown();
  // Every flow is homed on core 0...
  for (uint64_t flow = 0; flow < 32; ++flow) {
    EXPECT_EQ(runtime.HomeCoreOf(flow), 0);
  }
  // ...yet remote cores executed a share of the events.
  WorkerStats total = runtime.TotalStats();
  EXPECT_EQ(total.app_events, injected);
  EXPECT_GT(total.stolen_events, 0u) << "no steals despite a fully skewed layout";
  // Each shuffle-layer steal claims one connection, which may batch several pipelined
  // events; so event count >= claim count > 0.
  ShuffleStats shuffle = runtime.TotalShuffleStats();
  EXPECT_GT(shuffle.steals, 0u);
  EXPECT_GE(total.stolen_events, shuffle.steals);
  // Stolen responses were shipped home: remote syscalls executed on core 0.
  EXPECT_GT(runtime.StatsFor(0).remote_syscalls, 0u);
}

// The no-steal ablation knob (RuntimeOptions::enable_stealing = false) must keep the
// idle loop from ever claiming remote work, even under the most steal-inviting layout
// possible: every flow group homed on core 0 with a busy handler and a sustained
// backlog. This is what bench/fig6_live_runtime.cc's "no-steal" configuration runs,
// and the runtime's only shared-nothing mode: every event runs on its home core.
TEST(RuntimeTest, StealingDisabledRecordsZeroStealsUnderSkewedRss) {
  RuntimeOptions options = SmallOptions(/*workers=*/4, /*flows=*/32);
  options.enable_stealing = false;
  CompletionLog log;
  Runtime runtime(options, BusyEchoHandler(), log.Handler());
  runtime.mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime.Start();
  // Sustained injection waves (same shape as SkewedRssTriggersStealing, which proves
  // this workload *does* provoke steals when the knob is on).
  uint64_t injected = 0;
  for (int wave = 0; wave < 12; ++wave) {
    for (int burst = 0; burst < 500; ++burst) {
      if (runtime.Inject(injected % 32, injected, "x")) {
        injected++;
      } else {
        std::this_thread::yield();
      }
    }
  }
  runtime.Shutdown();
  WorkerStats total = runtime.TotalStats();
  EXPECT_EQ(total.app_events, injected);
  EXPECT_EQ(total.stolen_events, 0u) << "enable_stealing=false still stole work";
  EXPECT_EQ(runtime.TotalShuffleStats().steals, 0u);
  EXPECT_EQ(runtime.StatsFor(0).app_events, injected) << "all events on the home core";
  EXPECT_EQ(total.remote_syscalls, 0u) << "no thieves, so nothing to ship home";
  EXPECT_EQ(log.total(), injected);
}

// Forwards to a LoopbackTransport and records which thread polls each queue (a worker
// polls exactly its own). Each ApproxNonEmpty(q) is counted as an own peek when q's
// poller makes it and as a foreign peek (a worker peeking another core's receive
// queue) otherwise.
class PeekRecordingTransport final : public Transport {
 public:
  PeekRecordingTransport(int queues, int flow_groups, size_t ring_capacity)
      : inner_(queues, flow_groups, ring_capacity),
        pollers_(static_cast<size_t>(queues)) {}

  int num_queues() const override { return inner_.num_queues(); }
  int QueueOf(uint64_t flow_id) const override { return inner_.QueueOf(flow_id); }
  const RssTable& rss() const override { return inner_.rss(); }
  RssTable& mutable_rss() override { return inner_.mutable_rss(); }
  size_t PollBatch(int queue, std::span<Segment> out,
                   std::vector<ControlEvent>& control) override {
    pollers_[static_cast<size_t>(queue)].store(std::this_thread::get_id());
    return inner_.PollBatch(queue, out, control);
  }
  size_t TransmitBatch(int queue, std::span<TxSegment> batch) override {
    return inner_.TransmitBatch(queue, batch);
  }
  bool ApproxNonEmpty(int queue) const override {
    bool own = pollers_[static_cast<size_t>(queue)].load() == std::this_thread::get_id();
    (own ? own_peeks_ : foreign_peeks_).fetch_add(1);
    return inner_.ApproxNonEmpty(queue);
  }
  bool Inject(Segment segment) override { return inner_.Inject(std::move(segment)); }

  uint64_t own_peeks() const { return own_peeks_.load(); }
  uint64_t foreign_peeks() const { return foreign_peeks_.load(); }

 private:
  LoopbackTransport inner_;
  std::vector<std::atomic<std::thread::id>> pollers_;
  mutable std::atomic<uint64_t> own_peeks_{0};
  mutable std::atomic<uint64_t> foreign_peeks_{0};
};

// The idle loop reads only its own receive queue (§5 step (a), ahead of any steal) and
// remote shuffle queues: a worker never peeks another core's receive queue, even while
// every flow is homed on core 0 and the other three workers idle-loop and steal.
TEST(RuntimeTest, IdleWorkersNeverPeekRemoteReceiveQueues) {
  RuntimeOptions options = SmallOptions(/*workers=*/4, /*flows=*/32);
  auto owned = std::make_unique<PeekRecordingTransport>(
      options.num_workers, options.num_flow_groups, options.ring_capacity);
  PeekRecordingTransport* transport = owned.get();
  Runtime runtime(options, std::move(owned), BusyEchoHandler());
  runtime.mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime.Start();
  uint64_t injected = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  for (int wave = 0; wave < 12 || (runtime.TotalShuffleStats().steals == 0 &&
                                   std::chrono::steady_clock::now() < deadline);
       ++wave) {
    for (int burst = 0; burst < 500; ++burst) {
      if (runtime.Inject(injected % 32, injected, "x")) {
        injected++;
      } else {
        std::this_thread::yield();
      }
    }
  }
  runtime.Shutdown();
  EXPECT_EQ(runtime.TotalStats().app_events, injected);
  EXPECT_GT(runtime.TotalShuffleStats().steals, 0u) << "the idle loop never ran a steal";
  EXPECT_GT(transport->own_peeks(), 0u) << "idle workers skipped their own-queue peek";
  EXPECT_EQ(transport->foreign_peeks(), 0u)
      << "a worker peeked a receive queue it does not poll";
}

TEST(RuntimeTest, FramesSplitAcrossSegmentsReassemble) {
  CompletionLog log;
  Runtime runtime(SmallOptions(/*workers=*/2, /*flows=*/2),
                  EchoHandler(), log.Handler());
  runtime.Start();

  // One message split into three segments, plus two messages coalesced into one
  // segment — both on the same flow, in order.
  std::string split;
  EncodeMessage(Message{100, "split-payload"}, split);
  std::string coalesced;
  EncodeMessage(Message{101, "first"}, coalesced);
  EncodeMessage(Message{102, "second"}, coalesced);

  ASSERT_TRUE(runtime.InjectBytes(0, split.substr(0, 5), 0));
  ASSERT_TRUE(runtime.InjectBytes(0, split.substr(5, 9), 0));
  ASSERT_TRUE(runtime.InjectBytes(0, split.substr(14), 1));
  ASSERT_TRUE(runtime.InjectBytes(0, coalesced, 2));
  runtime.Shutdown();

  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.ResponseFor(100), "echo:split-payload");
  EXPECT_EQ(log.ResponseFor(101), "echo:first");
  EXPECT_EQ(log.ResponseFor(102), "echo:second");
  auto order = log.FlowOrder(0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 100u);
  EXPECT_EQ(order[1], 101u);
  EXPECT_EQ(order[2], 102u);
}

TEST(RuntimeTest, PipelinedBurstsAreImplicitlyBatched) {
  // Back-to-back requests on one flow are claimed together under one ownership grab
  // (the §6.2 implicit batching); functionally: all complete, in order.
  CompletionLog log;
  Runtime runtime(SmallOptions(/*workers=*/2, /*flows=*/1),
                  EchoHandler(), log.Handler());
  runtime.Start();
  std::string burst;
  for (uint64_t i = 0; i < 4; ++i) {
    EncodeMessage(Message{i, "burst"}, burst);
  }
  ASSERT_TRUE(runtime.InjectBytes(0, burst, 4));
  runtime.Shutdown();
  auto order = log.FlowOrder(0);
  ASSERT_EQ(order.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(RuntimeTest, ShutdownWithNoTrafficIsClean) {
  Runtime runtime(SmallOptions(), EchoHandler(), nullptr);
  runtime.Start();
  runtime.Shutdown();
  EXPECT_EQ(runtime.Completed(), 0u);
}

TEST(RuntimeTest, ConcurrentInjectorsAreSafe) {
  CompletionLog log;
  Runtime runtime(SmallOptions(/*workers=*/2, /*flows=*/64),
                  EchoHandler(), log.Handler());
  runtime.Start();
  constexpr int kInjectors = 3;
  constexpr uint64_t kPerInjector = 600;
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> injectors;
  for (int t = 0; t < kInjectors; ++t) {
    injectors.emplace_back([&runtime, &accepted, t] {
      for (uint64_t i = 0; i < kPerInjector; ++i) {
        uint64_t id = static_cast<uint64_t>(t) * kPerInjector + i;
        if (runtime.Inject(id % 64, id, "x")) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (auto& injector : injectors) {
    injector.join();
  }
  runtime.Shutdown();
  EXPECT_EQ(runtime.Completed(), accepted.load());
  EXPECT_EQ(log.total(), accepted.load());
}

TEST(RuntimeTest, LatencyCollectorRecordsEveryCompletion) {
  LatencyCollector collector;
  Runtime runtime(SmallOptions(/*workers=*/2, /*flows=*/8),
                  EchoHandler(), collector.Handler());
  runtime.Start();
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(runtime.Inject(i % 8, i, "x"));
  }
  runtime.Shutdown();
  LatencyHistogram histogram = collector.Snapshot();
  EXPECT_EQ(histogram.Count(), 500u);
  EXPECT_GT(histogram.Mean(), 0.0);
  EXPECT_GE(histogram.P99(), histogram.P50());
}

TEST(RuntimeTest, RingBackpressureDropsAreCountedNotLost) {
  // A tiny ring with a stalled runtime (not started yet) must reject the overflow and
  // report it, mirroring NIC drop counters.
  RuntimeOptions options = SmallOptions(/*workers=*/1, /*flows=*/1);
  options.ring_capacity = 8;
  Runtime runtime(options, EchoHandler(), nullptr);
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    if (runtime.Inject(0, i, "x")) {
      accepted++;
    }
  }
  EXPECT_LE(accepted, 8u);
  EXPECT_EQ(runtime.NicDrops(), 64 - accepted);
  runtime.Start();
  runtime.Shutdown();
  EXPECT_EQ(runtime.Completed(), accepted);
}

// --- The transport seam: satellite guarantees that hold across backends ----------------

TEST(RuntimeTest, MutableRssRequiresQuiescence) {
  // Reprogramming before Start is the supported path...
  Runtime runtime(SmallOptions(), EchoHandler(), nullptr);
  runtime.mutable_rss().SetGroupCore(0, 1);
  // ...and doing it while the runtime is live must abort rather than race Inject.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime live(SmallOptions(/*workers=*/1), EchoHandler(),
                     nullptr);
        live.Start();
        live.mutable_rss();
      },
      "quiescent");
}

TEST(RuntimeTest, MutableRssUsableAgainAfterShutdown) {
  Runtime runtime(SmallOptions(/*workers=*/2), EchoHandler(),
                  nullptr);
  runtime.Start();
  ASSERT_TRUE(runtime.Inject(0, 0, "x"));
  runtime.Shutdown();
  runtime.mutable_rss().SetGroupCore(0, 1);  // stopped == quiescent again
  EXPECT_EQ(runtime.mutable_rss().GroupCore(0), 1);
}

TEST(RuntimeTest, LatencyCollectorShardsMergeAcrossThreads) {
  // The sharded collector must lose nothing when many threads record concurrently
  // (the 8+ worker completion-callback pattern that used to serialize on one lock).
  LatencyCollector collector;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.Record(/*arrival=*/0);  // latency = now, always positive
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  LatencyHistogram merged = collector.Snapshot();
  EXPECT_EQ(merged.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(merged.Mean(), 0.0);
}

TEST(RuntimeTest, OneByteSegmentsStayOrderedUnderStealingLoopback) {
  // §4.3 under the worst framing the transport seam allows: every byte of the probe
  // flow arrives as its own segment while bulk flows force the steal path (all flow
  // groups homed on core 0).
  RuntimeOptions options = SmallOptions(/*workers=*/3, /*flows=*/8);
  CompletionLog log;
  Runtime runtime(options, BusyEchoHandler(), log.Handler());
  runtime.mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime.Start();

  // Continuous bulk back-pressure (same single-hardware-thread rationale as
  // SkewedRssTriggersStealing): sustain a backlog on core 0 until a steal is claimed,
  // then dribble the probe frames byte-by-byte with bulk interleaved so stolen
  // executions keep overlapping half-received frames.
  uint64_t bulk_sent = 0;
  auto inject_bulk = [&runtime, &bulk_sent](int count) {
    for (int k = 0; k < count; ++k) {
      uint64_t flow = 1 + (bulk_sent % 7);
      if (runtime.Inject(flow, 1'000'000 + bulk_sent, "bulk")) {
        bulk_sent++;
      } else {
        std::this_thread::yield();  // ring full: keep the backlog, let workers run
      }
    }
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (runtime.TotalShuffleStats().steals == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    inject_bulk(200);
  }
  constexpr uint64_t kProbeMessages = 60;
  uint64_t probe_sent = 0;
  for (uint64_t i = 0; i < kProbeMessages; ++i) {
    std::string frame;
    EncodeMessage(Message{probe_sent, "probe" + std::to_string(probe_sent)}, frame);
    for (size_t b = 0; b < frame.size(); ++b) {
      // Only the frame's last byte completes a message (Shutdown accounting).
      uint64_t completes = (b + 1 == frame.size()) ? 1 : 0;
      while (!runtime.InjectBytes(0, frame.substr(b, 1), completes)) {
        std::this_thread::yield();
      }
    }
    probe_sent++;
    inject_bulk(20);  // keep the steal pressure alive across the probe
  }
  runtime.Shutdown();

  auto order = log.FlowOrder(0);
  ASSERT_EQ(order.size(), probe_sent);
  for (uint64_t i = 0; i < probe_sent; ++i) {
    EXPECT_EQ(order[i], i) << "probe response " << i << " out of order";
    EXPECT_EQ(log.ResponseFor(i), "probe" + std::to_string(i));
  }
  EXPECT_GT(runtime.TotalStats().stolen_events, 0u)
      << "skew produced no steals; the ordering guarantee was not stressed";
}

// --- The allocation-free data plane -----------------------------------------------------

TEST(RuntimeTest, ZeroCopyHandlerServesRequests) {
  // The ViewHandler contract end to end: request arrives as a view into pooled RX
  // memory, response is written straight into the pooled TX frame.
  CompletionLog log;
  ViewHandler handler = [](uint64_t, std::string_view request, ResponseBuilder& out) {
    out.Append("echo:");
    out.Append(request);
  };
  Runtime runtime(SmallOptions(), std::move(handler), log.Handler());
  runtime.Start();
  constexpr uint64_t kRequests = 1000;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(runtime.Inject(i % 16, i, "v" + std::to_string(i)));
  }
  runtime.Shutdown();
  EXPECT_EQ(runtime.Completed(), kRequests);
  EXPECT_EQ(log.ResponseFor(3), "echo:v3");
  EXPECT_EQ(log.ResponseFor(kRequests - 1), "echo:v" + std::to_string(kRequests - 1));
  // The pool counters flowed into WorkerStats (workers allocate TX frames).
  EXPECT_GT(runtime.TotalStats().pool_hits + runtime.TotalStats().pool_misses, 0u);
}

TEST(RuntimeTest, SteadyStateEchoPerformsZeroPoolMissesPerRequest) {
  // THE regression gate for this refactor: after warmup, the loopback echo workload
  // must serve requests without per-request heap allocations in the buffer
  // subsystem — every RX segment, reassembly buffer and TX frame comes from a pool
  // freelist. (The strictly-deterministic zero-allocs/op assertion lives in
  // bench/micro_dataplane, which CI gates; this multi-threaded variant bounds the
  // miss RATE instead, because a pool's working set is its max in-flight depth and
  // which worker's pool serves a request shifts with scheduling — a descheduled
  // worker or a fresh steal legitimately grows a pool once, which is warmup, not a
  // leak-per-request.)
  ViewHandler handler = [](uint64_t, std::string_view request, ResponseBuilder& out) {
    out.Append(request);
  };
  Runtime runtime(SmallOptions(/*workers=*/2, /*flows=*/16),
                  std::move(handler), nullptr);
  runtime.Start();
  uint64_t sent = 0;
  // Closed-ish loop with a bounded in-flight window, so the pools' working sets
  // reach their stationary size during warmup instead of depending on how far the
  // injector outruns the workers on a loaded host.
  constexpr uint64_t kWindow = 64;
  auto run_burst = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      while (!runtime.Inject(sent % 16, sent, "steady-state-payload")) {
        std::this_thread::yield();
      }
      sent++;
      while (sent - runtime.Completed() > kWindow) {
        std::this_thread::yield();
      }
    }
    while (runtime.Completed() < sent) {
      std::this_thread::yield();
    }
  };
  run_burst(3000);  // warmup: pools grow to the workload's working set
  BufferPoolStats warmed = BufferPool::GlobalSnapshot();
  constexpr int kMeasured = 3000;
  run_burst(kMeasured);
  BufferPoolStats after = BufferPool::GlobalSnapshot();
  runtime.Shutdown();
  // A per-request allocation regression costs >= kMeasured misses (2 buffers move
  // per echo, so really >= 2x); residual pool growth is bounded by a few in-flight
  // windows. kMeasured/10 sits an order of magnitude below the former and well
  // above the latter.
  uint64_t miss_delta = after.misses() - warmed.misses();
  EXPECT_LT(miss_delta, static_cast<uint64_t>(kMeasured) / 10)
      << "the steady-state echo path allocates per request (" << miss_delta
      << " misses over " << kMeasured << " requests)";
  // And the work actually went through the pools, not around them.
  EXPECT_GE(after.freelist_hits - warmed.freelist_hits,
            static_cast<uint64_t>(kMeasured) * 2 - kMeasured / 10)
      << "fewer pooled allocations than RX+TX buffers for the burst";
}

// --- TcpTransport: the runtime through the Transport seam on real sockets --------------

TEST(RuntimeTcpTest, EchoRoundTripOverRealSockets) {
  TcpTransport* transport = nullptr;
  auto runtime = MakeTcpRuntime(SmallOptions(/*workers=*/2),
                                BusyEchoHandler(/*spins=*/0), nullptr, &transport);
  runtime->Start();
  ASSERT_GT(transport->port(), 0);

  constexpr int kConnections = 3;
  constexpr uint64_t kRequests = 50;
  std::vector<std::unique_ptr<TestTcpClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<TestTcpClient>(transport->port()));
    ASSERT_TRUE(clients.back()->ok()) << "connect failed";
  }
  for (auto& client : clients) {
    EXPECT_TRUE(RunEchoExchange(*client, kRequests, /*window=*/8, "req"));
  }
  clients.clear();  // hang up before shutdown
  runtime->Shutdown();
  EXPECT_EQ(runtime->Completed(), kConnections * kRequests);
  EXPECT_EQ(runtime->Accepted(), kConnections * kRequests);
  EXPECT_EQ(transport->AcceptedConnections(), static_cast<uint64_t>(kConnections));
}

TEST(RuntimeTcpTest, SkewedRssStealsAndShipsRemoteSyscallsOverTcp) {
  // The acceptance bar for the transport refactor: with every connection homed on
  // core 0, stealing and remote batched syscalls must both remain observable in
  // WorkerStats when the traffic arrives over real TCP.
  RuntimeOptions options = SmallOptions(/*workers=*/4);
  TcpTransport* transport = nullptr;
  auto runtime =
      MakeTcpRuntime(options, BusyEchoHandler(), nullptr, &transport);
  runtime->mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime->Start();

  constexpr int kConnections = 8;
  constexpr uint64_t kPerConnection = 250;
  std::atomic<int> failures{0};
  uint64_t total_requests = 0;
  // Rounds, not one shot: on a loaded single-hardware-thread host one round can be
  // served run-to-completion by core 0 alone; each round is a fresh chance for the
  // thieves to interleave. A broken steal path still fails after the bounded retries.
  for (int round = 0; round < 10 && runtime->TotalStats().stolen_events == 0; ++round) {
    std::vector<std::thread> drivers;
    for (int c = 0; c < kConnections; ++c) {
      drivers.emplace_back([&, c] {
        TestTcpClient client(transport->port());
        if (!client.ok() ||
            !RunEchoExchange(client, kPerConnection, /*window=*/8,
                             "c" + std::to_string(c) + "-")) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& driver : drivers) {
      driver.join();
    }
    total_requests += kConnections * kPerConnection;
  }
  EXPECT_EQ(failures.load(), 0);
  runtime->Shutdown();

  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.app_events, total_requests);
  EXPECT_GT(total.stolen_events, 0u) << "no steals despite a fully skewed layout";
  EXPECT_GT(runtime->TotalShuffleStats().steals, 0u);
  EXPECT_GT(runtime->StatsFor(0).remote_syscalls, 0u)
      << "stolen responses were not shipped home";
  // Every connection was homed on core 0: remote cores never polled segments.
  EXPECT_EQ(runtime->StatsFor(0).rx_segments, total.rx_segments);
}

TEST(RuntimeTcpTest, OneByteWireSegmentsStayOrderedUnderStealing) {
  // The §4.3 test at the real socket boundary: one probe connection dribbles its
  // requests a byte per send() while bulk connections keep the (skewed) home core
  // saturated, so stolen executions interleave with half-received frames.
  RuntimeOptions options = SmallOptions(/*workers=*/3);
  TcpTransport* transport = nullptr;
  auto runtime = MakeTcpRuntime(options, BusyEchoHandler(), nullptr, &transport);
  runtime->mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime->Start();

  std::atomic<int> failures{0};
  std::atomic<bool> stop_bulk{false};
  std::vector<std::thread> bulk;
  for (int c = 0; c < 3; ++c) {
    bulk.emplace_back([&, c] {
      TestTcpClient client(transport->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t id = 0;
      while (!stop_bulk.load(std::memory_order_acquire)) {
        // Bursts of 4 pipelined requests keep the home core's shuffle queue deep
        // enough that idle cores must steal.
        constexpr uint64_t kBurst = 4;
        for (uint64_t k = 0; k < kBurst; ++k) {
          std::string payload = "b" + std::to_string(c) + "-" + std::to_string(id + k);
          if (!client.SendRequest(id + k, payload)) {
            failures.fetch_add(1);
            return;
          }
        }
        for (uint64_t k = 0; k < kBurst; ++k) {
          Message response;
          if (!client.RecvMessage(&response) || response.request_id != id + k) {
            failures.fetch_add(1);
            return;
          }
        }
        id += kBurst;
      }
    });
  }

  constexpr uint64_t kProbePerRound = 40;
  {
    TestTcpClient probe(transport->port());
    ASSERT_TRUE(probe.ok());
    uint64_t sent = 0;
    uint64_t received = 0;
    // Probe in rounds (same connection, continuing ids) until a steal has actually
    // interleaved with the dribbled frames — one round can be served by core 0 alone
    // on a loaded single-hardware-thread host.
    for (int round = 0; round < 10; ++round) {
      uint64_t target = received + kProbePerRound;
      while (received < target) {
        // Window of 4 in-flight, every frame split into 1-byte wire segments.
        while (sent < target && sent - received < 4) {
          ASSERT_TRUE(probe.SendRequestByteByByte(sent, "p" + std::to_string(sent)));
          sent++;
        }
        Message response;
        ASSERT_TRUE(probe.RecvMessage(&response));
        EXPECT_EQ(response.request_id, received) << "probe response out of order";
        EXPECT_EQ(response.payload, "p" + std::to_string(received));
        received++;
      }
      if (runtime->TotalStats().stolen_events > 0) {
        break;
      }
    }
  }
  stop_bulk.store(true, std::memory_order_release);
  for (auto& thread : bulk) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  runtime->Shutdown();
  EXPECT_GT(runtime->TotalStats().stolen_events, 0u)
      << "skew produced no steals; the wire-segmentation ordering was not stressed";
}

TEST(RuntimeTcpTest, MalformedFrameSeversOnlyTheOffendingConnection) {
  // A frame whose length field exceeds FrameParser::kMaxPayload poisons the parser;
  // the runtime must drop that connection at the transport (remote garbage cannot pin
  // a core or hold a socket open forever) while other connections keep being served.
  TcpTransport* transport = nullptr;
  auto runtime = MakeTcpRuntime(SmallOptions(/*workers=*/2),
                                BusyEchoHandler(/*spins=*/0), nullptr, &transport);
  runtime->Start();

  TestTcpClient good(transport->port());
  TestTcpClient bad(transport->port());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(RunEchoExchange(good, /*requests=*/5, /*window=*/2, "g"));

  std::string poison(16, '\xFF');  // length field 0xFFFFFFFF >> kMaxPayload
  ASSERT_TRUE(bad.SendBytes(poison.data(), poison.size()));
  Message never;
  EXPECT_FALSE(bad.RecvMessage(&never)) << "poisoned connection must be severed";

  EXPECT_TRUE(RunEchoExchange(good, /*requests=*/5, /*window=*/2, "h"))
      << "healthy connection must survive a neighbour's garbage";
  runtime->Shutdown();
  EXPECT_GT(runtime->NicDrops(), 0u) << "the severance is accounted as a drop";
}

TEST(RuntimeTcpTest, RefusesConnectionsBeyondFlowCap) {
  // max_flows caps *concurrent* connections: while both live connections hold their
  // ids, a third must be refused (closed at accept) instead of overrunning the
  // runtime's table — and the refusal lands in CapacityRefusals(), not StallDrops().
  RuntimeOptions options = SmallOptions(/*workers=*/2);
  options.num_flows = 2;
  options.max_flows = 2;
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* raw = transport.get();
  Runtime runtime(options, std::move(transport), BusyEchoHandler(/*spins=*/0));
  runtime.Start();

  TestTcpClient first(raw->port());
  TestTcpClient second(raw->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(RunEchoExchange(first, /*requests=*/5, /*window=*/2, "a"));
  EXPECT_TRUE(RunEchoExchange(second, /*requests=*/5, /*window=*/2, "b"));

  TestTcpClient third(raw->port());
  ASSERT_TRUE(third.ok()) << "refusal happens after accept, so connect succeeds";
  third.SendRequest(0, "x");  // may or may not reach the closed socket
  Message never;
  EXPECT_FALSE(third.RecvMessage(&never)) << "capped connection must be closed unserved";
  runtime.Shutdown();
  EXPECT_EQ(raw->AcceptedConnections(), 2u);
  EXPECT_GT(runtime.NicDrops(), 0u) << "the refusal is accounted as a drop";
  EXPECT_GE(raw->CapacityRefusals(), 1u);
  EXPECT_EQ(raw->StallDrops(), 0u);
}

TEST(RuntimeTcpTest, StealingDisabledServesTcpWithoutStealing) {
  RuntimeOptions options = SmallOptions(/*workers=*/2);
  options.enable_stealing = false;
  TcpTransport* transport = nullptr;
  auto runtime =
      MakeTcpRuntime(options, BusyEchoHandler(/*spins=*/0), nullptr, &transport);
  runtime->Start();
  {
    TestTcpClient client(transport->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(RunEchoExchange(client, /*requests=*/200, /*window=*/4, "p"));
  }
  runtime->Shutdown();
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.app_events, 200u);
  EXPECT_EQ(total.stolen_events, 0u);
  EXPECT_EQ(runtime->TotalShuffleStats().steals, 0u);
}

// --- Connection lifecycle: control events, slot recycling, teardown-vs-steal ----------

// Builds a Runtime on an explicit LoopbackTransport so tests can drive the
// open/close control surface directly.
std::unique_ptr<Runtime> MakeLoopbackRuntime(RuntimeOptions options,
                                             ViewHandler handler,
                                             CompletionHandler on_complete,
                                             LoopbackTransport** transport_out) {
  auto transport = std::make_unique<LoopbackTransport>(
      options.num_workers, options.num_flow_groups, options.ring_capacity);
  *transport_out = transport.get();
  transport->set_on_complete(std::move(on_complete));
  return std::make_unique<Runtime>(options, std::move(transport), std::move(handler));
}

// Polls a racy-but-safe runtime counter until `predicate` holds or the deadline
// expires; returns whether it held. Never asserts timing, only uses the deadline as
// a failure bound.
template <typename Predicate>
bool WaitFor(Predicate predicate, std::chrono::seconds deadline = std::chrono::seconds(8)) {
  auto until = std::chrono::steady_clock::now() + deadline;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= until) {
      return predicate();
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(RuntimeTest, TcpOptionsForDerivesFlowCapFromRuntimeOptions) {
  // The single source of truth for flow capacity: transport geometry derives from
  // the runtime options, so the transport id cap always equals the table size.
  RuntimeOptions options;
  options.num_workers = 3;
  options.num_flow_groups = 64;
  options.num_flows = 10;
  options.max_flows = 0;
  TcpTransportOptions tcp = TcpOptionsFor(options, /*port=*/7777);
  EXPECT_EQ(tcp.num_queues, 3);
  EXPECT_EQ(tcp.num_flow_groups, 64);
  EXPECT_EQ(tcp.port, 7777);
  EXPECT_EQ(tcp.max_flows, ResolvedMaxFlows(options));
  EXPECT_EQ(tcp.max_flows, 4096u);  // the historical default floor
  options.max_flows = 5;  // explicit cap below num_flows: the table still fits them
  EXPECT_EQ(ResolvedMaxFlows(options), 10u);
  options.max_flows = 1u << 15;
  EXPECT_EQ(TcpOptionsFor(options).max_flows, 1u << 15);
}

TEST(RuntimeTest, LoopbackControlEventsBindAndRecycleSlots) {
  RuntimeOptions options = SmallOptions(/*workers=*/2, /*flows=*/8);
  LoopbackTransport* loopback = nullptr;
  CompletionLog log;
  auto runtime = MakeLoopbackRuntime(
      options, WrapStringHandler(EchoHandler()), log.Handler(), &loopback);
  runtime->Start();

  ASSERT_TRUE(loopback->OpenFlow(5));
  ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().flows_opened == 1; }));
  EXPECT_EQ(runtime->OpenFlows(), 1u);
  EXPECT_EQ(runtime->FlowGeneration(5), 0u);

  ASSERT_TRUE(runtime->Inject(5, 1, "ping"));
  ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == 1; }));
  ASSERT_TRUE(loopback->CloseFlowFromClient(5));
  ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().flows_recycled == 1; }));
  EXPECT_EQ(runtime->OpenFlows(), 0u);
  EXPECT_EQ(runtime->PeakOpenFlows(), 1u);
  EXPECT_EQ(runtime->FlowGeneration(5), 1u);
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.flows_opened, 1u);
  EXPECT_EQ(total.flows_closed, 1u);
  runtime->Shutdown();
  EXPECT_EQ(log.ResponseFor(1), "echo:ping");
}

TEST(RuntimeTest, SlotRecycleResetsParserStateForReusedFlowId) {
  // CloseFlow-then-reuse of the same slot must round-trip fresh parser state: the
  // predecessor dies mid-frame, and without the in-place FrameParser reset its
  // stale half-header would corrupt the reincarnated flow's first frame.
  RuntimeOptions options = SmallOptions(/*workers=*/2, /*flows=*/4);
  LoopbackTransport* loopback = nullptr;
  CompletionLog log;
  auto runtime = MakeLoopbackRuntime(
      options, WrapStringHandler(EchoHandler()), log.Handler(), &loopback);
  runtime->Start();

  std::string frame;
  EncodeMessage(Message{7, "never-completed"}, frame);
  // Half a frame (0 completed messages): the parser now holds dangling bytes.
  ASSERT_TRUE(runtime->InjectBytes(0, frame.substr(0, 6), 0));
  ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().rx_segments >= 1; }));
  ASSERT_TRUE(loopback->CloseFlowFromClient(0));
  ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().flows_recycled == 1; }));
  EXPECT_EQ(runtime->FlowGeneration(0), 1u);

  // Reincarnated flow 0: a fresh complete frame must parse cleanly from byte 0.
  ASSERT_TRUE(runtime->Inject(0, 42, "fresh"));
  ASSERT_TRUE(WaitFor([&] { return runtime->Completed() >= 1; }));
  runtime->Shutdown();
  EXPECT_EQ(log.ResponseFor(42), "echo:fresh");
  EXPECT_EQ(runtime->Completed(), 1u);
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.flows_opened, 2u) << "lazy bind + rebind after recycle";
  EXPECT_EQ(total.flows_recycled, 1u);
}

TEST(RuntimeTest, CloseWhileExecutingNeverRecyclesEarly) {
  // The §4.3 ownership discipline extended to teardown: while ANY core (home or a
  // thief) is executing the connection, a close must defer recycling — asserted via
  // the slot's generation tag, which may only bump after the in-flight request
  // completes.
  RuntimeOptions options = SmallOptions(/*workers=*/2, /*flows=*/8);
  LoopbackTransport* loopback = nullptr;
  CompletionLog log;
  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  ViewHandler handler = [&](uint64_t, std::string_view request, ResponseBuilder& out) {
    entered.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    out.Append(request);
  };
  auto runtime =
      MakeLoopbackRuntime(options, std::move(handler), log.Handler(), &loopback);
  runtime->Start();

  ASSERT_TRUE(runtime->Inject(0, 1, "held"));
  ASSERT_TRUE(WaitFor([&] { return entered.load(std::memory_order_acquire); }));
  uint32_t generation_before = runtime->FlowGeneration(0);
  ASSERT_TRUE(loopback->CloseFlowFromClient(0));
  // Give the close a bounded chance to be processed (it is whenever the home core is
  // not itself the blocked executor). Whether or not it lands, recycling must not.
  WaitFor([&] { return runtime->TotalStats().flows_closed == 1; },
          std::chrono::seconds(1));
  EXPECT_EQ(runtime->TotalStats().flows_recycled, 0u)
      << "slot recycled while its connection was being executed";
  EXPECT_EQ(runtime->FlowGeneration(0), generation_before);

  gate.store(true, std::memory_order_release);
  ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().flows_recycled == 1; }));
  EXPECT_EQ(runtime->FlowGeneration(0), generation_before + 1);
  runtime->Shutdown();
  EXPECT_EQ(log.total(), 1u) << "the in-flight request completed, not dropped";
  EXPECT_EQ(runtime->OpenFlows(), 0u);
}

TEST(RuntimeTcpTest, StalledPeerIsDroppedAfterConfigurableDeadline) {
  // A peer that stops reading must cost its home core at most the configured stall
  // deadline, land in StallDrops() (distinct from capacity refusals), and have its
  // connection torn down like any other close.
  RuntimeOptions options = SmallOptions(/*workers=*/2);
  TcpTransportOptions tcp = TcpOptionsFor(options);
  tcp.stall_drop_deadline = 30 * kMillisecond;  // keep the test fast
  auto transport = std::make_unique<TcpTransport>(tcp);
  TcpTransport* raw = transport.get();
  Runtime runtime(options, std::move(transport), BusyEchoHandler(/*spins=*/0));
  runtime.Start();

  {
    // Clamped receive window + never reading: the server can park at most
    // rcvbuf + its own (autotuned, <= 4 MB) send buffer before TX hits EAGAIN.
    TestTcpClient deaf(raw->port(), /*rcvbuf=*/8192);
    ASSERT_TRUE(deaf.ok());
    const std::string big(8192, 'z');
    for (uint64_t i = 0; i < 800; ++i) {  // ~6.4 MB of echoed responses
      if (!deaf.SendRequest(i, big)) {
        break;  // server severed us mid-send: exactly the behaviour under test
      }
      if (raw->StallDrops() >= 1) {
        break;
      }
    }
    ASSERT_TRUE(WaitFor([&] { return raw->StallDrops() >= 1; }))
        << "TX to a deaf peer never tripped the stall deadline";
  }
  runtime.Shutdown();
  EXPECT_GE(raw->StallDrops(), 1u);
  EXPECT_EQ(raw->CapacityRefusals(), 0u);
  EXPECT_GE(runtime.TotalStats().flows_closed, 1u)
      << "the stall drop must tear the connection down";
}

TEST(RuntimeTcpTest, RecyclesFlowIdsToServeMoreConnectionsThanTableCapacity) {
  // THE churn proof: a table of 4 slots serves 12 distinct connections with zero
  // capacity refusals, flat occupancy, and — after the table's worth of warmup —
  // zero pool misses per request (allocation-free recycling).
  RuntimeOptions options = SmallOptions(/*workers=*/2);
  options.num_flows = 4;
  options.max_flows = 4;
  // Stealing off: an idle worker's first steal can land after warmup at any time and
  // draw cold-pool slabs that say nothing about recycling. Steals under churn are
  // ChurnUnderSkewedRssWithStealingTearsDownCleanly's job.
  options.enable_stealing = false;
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* raw = transport.get();
  Runtime runtime(options, std::move(transport), BusyEchoHandler(/*spins=*/0));
  runtime.Start();

  constexpr int kClients = 12;
  constexpr uint64_t kRequestsPerClient = 20;
  uint64_t warmed_pool_misses = 0;
  for (int c = 0; c < kClients; ++c) {
    {
      TestTcpClient client(raw->port());
      ASSERT_TRUE(client.ok()) << "client " << c << " refused";
      EXPECT_TRUE(RunEchoExchange(client, kRequestsPerClient, /*window=*/4, "c"));
    }  // hangup
    // The table has zero spare ids, so wait for this teardown to finish before the
    // next connect — otherwise the next accept would be (correctly) refused.
    ASSERT_TRUE(WaitFor([&] {
      return runtime.TotalStats().flows_recycled == static_cast<uint64_t>(c) + 1;
    })) << "teardown " << c << " never recycled the slot";
    if (c == 3) {
      // One table's worth of churn warms every pool this workload touches.
      warmed_pool_misses = runtime.TotalStats().pool_misses;
    }
  }
  runtime.Shutdown();

  EXPECT_EQ(raw->AcceptedConnections(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(raw->CapacityRefusals(), 0u);
  EXPECT_EQ(runtime.Completed(), kClients * kRequestsPerClient);
  WorkerStats total = runtime.TotalStats();
  EXPECT_EQ(total.flows_opened, static_cast<uint64_t>(kClients));
  EXPECT_EQ(total.flows_closed, static_cast<uint64_t>(kClients));
  EXPECT_EQ(total.flows_recycled, static_cast<uint64_t>(kClients));
  EXPECT_EQ(runtime.OpenFlows(), 0u);
  EXPECT_LE(runtime.PeakOpenFlows(), 4u) << "occupancy exceeded the table";
  // An allocation-per-recycled-connection regression costs >= 8 misses (the 8
  // clients after the snapshot); a stray slab from a cold pool costs 1-2. Bound in
  // between.
  EXPECT_LE(total.pool_misses - warmed_pool_misses, 4u)
      << "connection recycling allocated from the heap after warmup";
  // Every recycle bumped exactly one slot generation.
  uint64_t generation_sum = 0;
  for (uint64_t flow = 0; flow < 4; ++flow) {
    generation_sum += runtime.FlowGeneration(flow);
  }
  EXPECT_EQ(generation_sum, static_cast<uint64_t>(kClients));
}

TEST(RuntimeTcpTest, ChurnUnderSkewedRssWithStealingTearsDownCleanly) {
  // Teardown races: connections churn while every flow is homed on core 0 and busy
  // handlers force thieves to claim them. A flow closed while stolen must complete
  // or drop cleanly and never recycle early — violations surface as lost responses
  // (failures), unbalanced lifecycle counters, or ASan reports.
  RuntimeOptions options = SmallOptions(/*workers=*/4);
  options.num_flows = 16;
  options.max_flows = 16;
  TcpTransport* transport = nullptr;
  auto runtime = MakeTcpRuntime(options, BusyEchoHandler(), nullptr, &transport);
  runtime->mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime->Start();

  constexpr int kConnsPerRound = 6;
  constexpr uint64_t kPerConnection = 120;
  std::atomic<int> failures{0};
  int rounds = 0;
  // At least 3 rounds so lifetime connections (18) exceed the 16-slot table; keep
  // going (bounded) until the steal path has actually interleaved with the churn.
  for (; rounds < 10 &&
         (rounds < 3 || runtime->TotalStats().stolen_events == 0);
       ++rounds) {
    std::vector<std::thread> drivers;
    for (int c = 0; c < kConnsPerRound; ++c) {
      drivers.emplace_back([&, c] {
        TestTcpClient client(transport->port());
        if (!client.ok() ||
            !RunEchoExchange(client, kPerConnection, /*window=*/8,
                             "r" + std::to_string(c) + "-")) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& driver : drivers) {
      driver.join();
    }
    // Let this round's teardowns retire before the next round reuses the ids.
    ASSERT_TRUE(WaitFor([&] {
      return runtime->TotalStats().flows_recycled ==
             static_cast<uint64_t>(rounds + 1) * kConnsPerRound;
    })) << "round " << rounds << " teardowns never quiesced";
  }
  EXPECT_EQ(failures.load(), 0);
  runtime->Shutdown();

  const auto total_conns = static_cast<uint64_t>(rounds) * kConnsPerRound;
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.app_events, total_conns * kPerConnection);
  EXPECT_EQ(total.events_refused, 0u) << "clients drained before hangup";
  EXPECT_GT(total.stolen_events, 0u) << "no steals despite a fully skewed layout";
  EXPECT_EQ(transport->AcceptedConnections(), total_conns);
  EXPECT_GT(total_conns, 16u) << "churn never exceeded the table capacity";
  EXPECT_EQ(transport->CapacityRefusals(), 0u);
  EXPECT_EQ(total.flows_opened, total_conns);
  EXPECT_EQ(total.flows_closed, total_conns);
  EXPECT_EQ(total.flows_recycled, total_conns);
  EXPECT_EQ(runtime->OpenFlows(), 0u);
  EXPECT_LE(runtime->PeakOpenFlows(), 16u);
  uint64_t generation_sum = 0;
  for (uint64_t flow = 0; flow < 16; ++flow) {
    generation_sum += runtime->FlowGeneration(flow);
  }
  EXPECT_EQ(generation_sum, total_conns)
      << "slot generations disagree with completed teardowns";
}

// --- Parameterized sweep: stealing on/off x worker count upholds the core guarantees -

using RuntimeSweepParam = std::tuple<bool, int>;  // (enable_stealing, workers)

class RuntimeSweep : public ::testing::TestWithParam<RuntimeSweepParam> {};

TEST_P(RuntimeSweep, CompletionAndPerFlowOrderHold) {
  auto [stealing, workers] = GetParam();
  CompletionLog log;
  RuntimeOptions options = SmallOptions(workers, /*flows=*/8);
  options.enable_stealing = stealing;
  Runtime runtime(options, EchoHandler(), log.Handler());
  runtime.Start();
  constexpr uint64_t kPerFlow = 150;
  for (uint64_t i = 0; i < kPerFlow; ++i) {
    for (uint64_t flow = 0; flow < 8; ++flow) {
      ASSERT_TRUE(runtime.Inject(flow, flow * kPerFlow + i, "x"));
    }
  }
  runtime.Shutdown();
  EXPECT_EQ(runtime.Completed(), 8 * kPerFlow);
  for (uint64_t flow = 0; flow < 8; ++flow) {
    auto order = log.FlowOrder(flow);
    ASSERT_EQ(order.size(), kPerFlow);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
        << "stealing=" << stealing << " workers=" << workers << " flow=" << flow;
  }
  if (!stealing) {
    EXPECT_EQ(runtime.TotalStats().stolen_events, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StealingAndWorkerCounts, RuntimeSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2, 4, 6)),
    [](const ::testing::TestParamInfo<RuntimeSweepParam>& info) {
      return std::string(std::get<0>(info.param) ? "zygos" : "no_steal") + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace zygos
