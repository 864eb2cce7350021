// Tests for the chaos transport layer (src/chaos): the timing wheel's expiry
// contract, delay-sampler determinism, and the epoll splice proxy end-to-end against
// the real TcpTransport runtime — faithful forwarding, configured-delay RTT shift,
// same-seed replay, probabilistic kill driving the runtime's kFlowClosed + slot
// recycling, and stall injection tripping the server's stall_drop_deadline through
// the exact TX path PR 5's hand-rolled deaf-peer test exercises.
//
// Timing discipline (tests/README.md): assertions on injected delays are one-sided
// lower bounds (a chunk is never delivered early — deterministic) or comparative
// bounds with generous headroom; waits are bounded-retry (WaitFor), never
// sleep-then-assert.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/chaos_proxy.h"
#include "src/chaos/timing_wheel.h"
#include "src/net/message.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"

namespace zygos {
namespace {

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

// --- timing wheel (fake time: no clock anywhere) ---------------------------------------

TEST(TimingWheelTest, ExpiresAtDeadlineNeverEarly) {
  TimingWheel<int> wheel(/*granularity=*/100, /*num_slots=*/16, /*start=*/1000);
  wheel.Schedule(1250, 1);
  wheel.Schedule(1400, 2);
  std::vector<int> out;
  EXPECT_EQ(wheel.ExpireUpTo(1249, out), 0u) << "delivered before its deadline";
  EXPECT_EQ(wheel.ExpireUpTo(1250, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(wheel.ExpireUpTo(1399, out), 0u);
  EXPECT_EQ(wheel.ExpireUpTo(5000, out), 1u);
  EXPECT_EQ(out.back(), 2);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimingWheelTest, PastDeadlinesExpireImmediately) {
  TimingWheel<int> wheel(100, 16, 1000);
  wheel.Schedule(500, 7);  // already due when scheduled
  std::vector<int> out;
  EXPECT_EQ(wheel.ExpireUpTo(1000, out), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(TimingWheelTest, OverflowBeyondHorizonIsRehomedNotDropped) {
  // Horizon = 16 slots * 100 = 1600; a deadline 10 horizons out must still fire.
  TimingWheel<int> wheel(100, 16, 0);
  wheel.Schedule(16'000, 42);
  wheel.Schedule(50, 1);
  std::vector<int> out;
  EXPECT_EQ(wheel.ExpireUpTo(100, out), 1u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(wheel.ExpireUpTo(15'999, out), 0u) << "overflow entry delivered early";
  EXPECT_EQ(wheel.ExpireUpTo(16'000, out), 1u);
  EXPECT_EQ(out.back(), 42);
}

TEST(TimingWheelTest, NextDeadlineTracksEarliestEntry) {
  TimingWheel<int> wheel(100, 16, 0);
  EXPECT_EQ(wheel.NextDeadline(), TimingWheel<int>::kNoDeadline);
  wheel.Schedule(900, 1);
  wheel.Schedule(350, 2);
  wheel.Schedule(10'000, 3);  // overflow
  EXPECT_EQ(wheel.NextDeadline(), 350);
  std::vector<int> out;
  wheel.ExpireUpTo(400, out);
  EXPECT_EQ(wheel.NextDeadline(), 900);
  wheel.ExpireUpTo(900, out);
  EXPECT_EQ(wheel.NextDeadline(), 10'000);
  wheel.ExpireUpTo(10'000, out);
  EXPECT_EQ(wheel.NextDeadline(), TimingWheel<int>::kNoDeadline);
  EXPECT_EQ(out.size(), 3u);
}

TEST(TimingWheelTest, PreservesPerStreamFifoWithinASlot) {
  // Chunks of one pipe share deadlines (monotone floor); same-slot entries must come
  // out in insertion order or the byte stream would reorder.
  TimingWheel<int> wheel(1000, 8, 0);
  for (int i = 0; i < 5; ++i) {
    wheel.Schedule(500, i);
  }
  std::vector<int> out;
  wheel.ExpireUpTo(500, out);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- delay sampler ---------------------------------------------------------------------

TEST(DelaySamplerTest, SameSeedEmitsIdenticalSequence) {
  DelayModel model;
  model.kind = DelayModel::Kind::kLogNormal;
  model.base = 200 * kMicrosecond;
  model.sigma = 0.7;
  DelaySampler a(model, 99);
  DelaySampler b(model, 99);
  DelaySampler c(model, 100);
  std::vector<Nanos> seq_a, seq_b, seq_c;
  for (int i = 0; i < 256; ++i) {
    seq_a.push_back(a.Sample(0));
    seq_b.push_back(b.Sample(0));
    seq_c.push_back(c.Sample(0));
  }
  EXPECT_EQ(seq_a, seq_b) << "same seed must replay byte-identically";
  EXPECT_NE(seq_a, seq_c) << "different seeds collided over 256 draws";
}

TEST(DelaySamplerTest, ModelsRespectTheirBounds) {
  DelayModel fixed;
  fixed.kind = DelayModel::Kind::kFixed;
  fixed.base = 5 * kMillisecond;
  DelaySampler fixed_sampler(fixed, 1);

  DelayModel uniform;
  uniform.kind = DelayModel::Kind::kUniform;
  uniform.base = 100 * kMicrosecond;
  uniform.jitter = 300 * kMicrosecond;
  DelaySampler uniform_sampler(uniform, 2);

  DelayModel spike;
  spike.kind = DelayModel::Kind::kSpike;
  spike.base = 0;
  spike.spike_period = 10 * kMillisecond;
  spike.spike_duration = 2 * kMillisecond;
  spike.spike_delay = 8 * kMillisecond;
  DelaySampler spike_sampler(spike, 3);

  for (int i = 0; i < 512; ++i) {
    EXPECT_EQ(fixed_sampler.Sample(0), 5 * kMillisecond);
    Nanos u = uniform_sampler.Sample(0);
    EXPECT_GE(u, uniform.base);
    EXPECT_LE(u, uniform.base + uniform.jitter);
  }
  // Spike is a pure function of `now`: inside the window, the spike delay; outside,
  // the base.
  EXPECT_EQ(spike_sampler.Sample(0), 8 * kMillisecond);
  EXPECT_EQ(spike_sampler.Sample(1 * kMillisecond), 8 * kMillisecond);
  EXPECT_EQ(spike_sampler.Sample(5 * kMillisecond), 0);
  EXPECT_EQ(spike_sampler.Sample(12 * kMillisecond), 0);
  EXPECT_EQ(spike_sampler.Sample(10 * kMillisecond + 1), 8 * kMillisecond);
}

TEST(DelaySamplerTest, ParseDelayModelRoundTrips) {
  auto fixed = ParseDelayModel("fixed:250");
  ASSERT_TRUE(fixed.has_value());
  EXPECT_EQ(fixed->kind, DelayModel::Kind::kFixed);
  EXPECT_EQ(fixed->base, 250 * kMicrosecond);
  auto uniform = ParseDelayModel("uniform:50:150");
  ASSERT_TRUE(uniform.has_value());
  EXPECT_EQ(uniform->jitter, 150 * kMicrosecond);
  auto lognormal = ParseDelayModel("lognormal:1000:0.8");
  ASSERT_TRUE(lognormal.has_value());
  EXPECT_DOUBLE_EQ(lognormal->sigma, 0.8);
  auto spike = ParseDelayModel("spike:0:20:5:10000");
  ASSERT_TRUE(spike.has_value());
  EXPECT_EQ(spike->spike_period, 20 * kMillisecond);
  EXPECT_EQ(spike->spike_duration, 5 * kMillisecond);
  EXPECT_EQ(spike->spike_delay, 10 * kMillisecond);
  EXPECT_TRUE(ParseDelayModel("none").has_value());
  EXPECT_FALSE(ParseDelayModel("fixed").has_value());
  EXPECT_FALSE(ParseDelayModel("warp:9").has_value());
}

// --- proxy end-to-end against the real runtime -----------------------------------------

// Minimal blocking client speaking the framed RPC protocol (the runtime_test client,
// trimmed to what the proxy tests need).
class TcpClient {
 public:
  explicit TcpClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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
  ~TcpClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool SendRequest(uint64_t request_id, const std::string& payload) {
    std::string frame;
    EncodeMessage(request_id, payload, frame);
    size_t sent = 0;
    while (sent < frame.size()) {
      ssize_t w = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
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

  bool RecvMessage(Message* out) {
    while (inbox_.empty()) {
      char buf[16384];
      ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r < 0 && errno == EINTR) {
        continue;
      }
      if (r <= 0 || !parser_.Feed(buf, static_cast<size_t>(r))) {
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

ViewHandler EchoView() {
  return [](uint64_t, std::string_view request, ResponseBuilder& out) {
    out.Append(request);
  };
}

// Echo runtime on a real TcpTransport, ephemeral port.
struct EchoServer {
  explicit EchoServer(int workers = 2, Nanos stall_deadline = 0) {
    RuntimeOptions options;
    options.num_workers = workers;
    options.num_flows = 16;
    TcpTransportOptions tcp = TcpOptionsFor(options);
    if (stall_deadline > 0) {
      tcp.stall_drop_deadline = stall_deadline;
    }
    auto owned = std::make_unique<TcpTransport>(tcp);
    transport = owned.get();
    runtime = std::make_unique<Runtime>(options, std::move(owned), EchoView());
    runtime->Start();
  }
  ~EchoServer() { runtime->Shutdown(); }

  std::unique_ptr<Runtime> runtime;
  TcpTransport* transport = nullptr;
};

ChaosProxyOptions ProxyTo(uint16_t upstream_port, uint64_t seed = 7) {
  ChaosProxyOptions options;
  options.upstream_port = upstream_port;
  options.seed = seed;
  return options;
}

TEST(ChaosProxyTest, ForwardsBytesFaithfullyAtZeroDelay) {
  EchoServer server;
  ChaosProxy proxy(ProxyTo(server.transport->port()));
  ASSERT_TRUE(proxy.Start());

  TcpClient client(proxy.port());
  ASSERT_TRUE(client.ok());
  // Serialized echoes, including one payload far larger than the proxy's read chunk
  // (80 KB through 16 KB chunks: ordering and reassembly must survive the splice).
  for (uint64_t i = 0; i < 50; ++i) {
    std::string payload =
        i == 25 ? std::string(80 * 1024, 'B') : "ping-" + std::to_string(i);
    ASSERT_TRUE(client.SendRequest(i, payload));
    Message response;
    ASSERT_TRUE(client.RecvMessage(&response)) << "request " << i;
    EXPECT_EQ(response.request_id, i);
    EXPECT_EQ(response.payload, payload) << "payload corrupted in the splice";
  }
  EXPECT_EQ(proxy.Connections(), 1u);
  EXPECT_EQ(proxy.Kills(), 0u);
  EXPECT_GT(proxy.BytesForwarded(ChaosDirection::kClientToServer), 0u);
  EXPECT_GT(proxy.BytesForwarded(ChaosDirection::kServerToClient), 80u * 1024);
  proxy.Stop();
}

TEST(ChaosProxyTest, FixedDelayShiftsRttByTheConfiguredAmount) {
  EchoServer server;
  constexpr Nanos kDelay = 40 * kMillisecond;
  ChaosProxyOptions options = ProxyTo(server.transport->port());
  options.client_to_server.kind = DelayModel::Kind::kFixed;
  options.client_to_server.base = kDelay;  // one direction only: RTT shift == kDelay
  ChaosProxy proxy(options);
  ASSERT_TRUE(proxy.Start());

  // The lower bound is deterministic (a chunk is never delivered early). The upper
  // bound asserts the delay is not applied twice (2x = 80 ms would mean both
  // directions or both chunks were delayed); the min over a wave of pings is robust
  // to scheduling noise, and the wave retries twice before declaring failure.
  bool upper_ok = false;
  Nanos min_rtt = 0;
  for (int wave = 0; wave < 3 && !upper_ok; ++wave) {
    TcpClient client(proxy.port());
    ASSERT_TRUE(client.ok());
    min_rtt = std::numeric_limits<Nanos>::max();
    for (uint64_t i = 0; i < 20; ++i) {
      Nanos t0 = NowNanos();
      ASSERT_TRUE(client.SendRequest(i, "ping"));
      Message response;
      ASSERT_TRUE(client.RecvMessage(&response));
      Nanos rtt = NowNanos() - t0;
      EXPECT_GE(rtt, kDelay) << "chunk delivered before its configured delay";
      min_rtt = std::min(min_rtt, rtt);
    }
    upper_ok = min_rtt < 2 * kDelay;
  }
  EXPECT_TRUE(upper_ok) << "min RTT " << ToMicros(min_rtt)
                        << " us suggests the delay was applied more than once";
  proxy.Stop();
}

// Runs `pings` serialized echoes through a fresh proxy with `seed` and returns the
// sampled per-direction delay traces.
std::pair<std::vector<Nanos>, std::vector<Nanos>> TraceOfRun(uint64_t seed, int pings) {
  EchoServer server;
  ChaosProxyOptions options = ProxyTo(server.transport->port(), seed);
  options.client_to_server.kind = DelayModel::Kind::kLogNormal;
  options.client_to_server.base = 100 * kMicrosecond;
  options.client_to_server.sigma = 0.6;
  options.server_to_client.kind = DelayModel::Kind::kUniform;
  options.server_to_client.base = 50 * kMicrosecond;
  options.server_to_client.jitter = 200 * kMicrosecond;
  options.record_delay_trace = true;
  ChaosProxy proxy(options);
  EXPECT_TRUE(proxy.Start());
  {
    TcpClient client(proxy.port());
    EXPECT_TRUE(client.ok());
    for (int i = 0; i < pings; ++i) {
      EXPECT_TRUE(client.SendRequest(static_cast<uint64_t>(i), "replay-me"));
      Message response;
      EXPECT_TRUE(client.RecvMessage(&response));
    }
  }
  auto traces = std::make_pair(proxy.DelayTrace(ChaosDirection::kClientToServer),
                               proxy.DelayTrace(ChaosDirection::kServerToClient));
  proxy.Stop();
  return traces;
}

TEST(ChaosProxyTest, SameSeedReplaysIdenticalDelaySchedule) {
  // Serialized ping-pong makes the chunk sequence deterministic, so the sampled
  // delay schedule must be byte-identical across runs with the same seed — the
  // replay contract. A different seed must diverge.
  auto first = TraceOfRun(/*seed=*/1234, /*pings=*/30);
  auto second = TraceOfRun(/*seed=*/1234, /*pings=*/30);
  auto other = TraceOfRun(/*seed=*/4321, /*pings=*/30);
  ASSERT_GE(first.first.size(), 30u);
  ASSERT_GE(first.second.size(), 30u);
  EXPECT_EQ(first.first, second.first) << "client->server schedule did not replay";
  EXPECT_EQ(first.second, second.second) << "server->client schedule did not replay";
  EXPECT_NE(first.first, other.first) << "seed does not drive the delay schedule";
}

TEST(ChaosProxyTest, KillSeversConnectionAndRuntimeRecyclesTheSlot) {
  EchoServer server;
  ChaosProxyOptions options = ProxyTo(server.transport->port());
  options.kill_probability = 1.0;  // first forwarded chunk kills the pair
  ChaosProxy proxy(options);
  ASSERT_TRUE(proxy.Start());

  TcpClient client(proxy.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(WaitFor([&] { return server.transport->AcceptedConnections() >= 1; }))
      << "proxy never connected upstream";
  ASSERT_TRUE(client.SendRequest(0, "doomed"));
  // The kill must surface to BOTH ends: the client sees a dead socket...
  Message response;
  EXPECT_FALSE(client.RecvMessage(&response)) << "killed connection delivered a response";
  EXPECT_EQ(proxy.Kills(), 1u);
  // ...and the runtime sees the hangup, emits kFlowClosed and recycles the slot.
  EXPECT_TRUE(WaitFor([&] { return server.runtime->TotalStats().flows_recycled >= 1; }))
      << "runtime never recycled the killed connection's slot";
  EXPECT_GE(server.runtime->TotalStats().flows_closed, 1u);
  EXPECT_EQ(server.runtime->OpenFlows(), 0u);
  proxy.Stop();
}

TEST(ChaosProxyTest, StallInjectionTripsTheServerStallDropDeadline) {
  // The PR 5 deaf-peer test reaches StallDrops() with a hand-rolled client that
  // clamps its rcvbuf and never reads. Here the SAME runtime TX path is tripped by
  // the proxy's stall injection instead: the client reads eagerly, but the proxy
  // stops reading the server->client direction after the first chunk, so the server's
  // stalls past the 30 ms deadline and it must drop + sever — StallDrops() >= 1.
  EchoServer server(/*workers=*/2, /*stall_deadline=*/30 * kMillisecond);
  ChaosProxyOptions options = ProxyTo(server.transport->port());
  options.stall_direction = ChaosDirection::kServerToClient;
  // Trigger on the FIRST response chunk read: on a single-CPU host the server's TX
  // deadline can otherwise trip from scheduling starvation before a larger trigger
  // threshold is reached, and the test must attribute the drop to the injected stall.
  options.stall_after_bytes = 4096;
  options.stall_duration = 10 * kSecond;  // far beyond the deadline: must trip
  options.upstream_rcvbuf = 8192;  // bound the kernel backlog the server can hide in
  ChaosProxy proxy(options);
  ASSERT_TRUE(proxy.Start());

  TcpClient client(proxy.port());
  ASSERT_TRUE(client.ok());
  // Eager reader: only the PROXY goes deaf, never the client.
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    Message response;
    while (client.RecvMessage(&response)) {
    }
    reader_done.store(true, std::memory_order_release);
  });
  const std::string big(8192, 'z');
  for (uint64_t i = 0; i < 800; ++i) {  // ~6.4 MB of echoed responses
    if (!client.SendRequest(i, big)) {
      break;  // proxy pair torn down after the server severed: expected endgame
    }
    if (server.transport->StallDrops() >= 1) {
      break;
    }
  }
  EXPECT_TRUE(WaitFor([&] { return server.transport->StallDrops() >= 1; }))
      << "proxy stall never tripped the server's stall_drop_deadline";
  EXPECT_EQ(proxy.StallsInjected(), 1u);
  EXPECT_EQ(server.transport->CapacityRefusals(), 0u);
  EXPECT_TRUE(WaitFor([&] { return server.runtime->TotalStats().flows_closed >= 1; }))
      << "the stall drop must tear the connection down";
  proxy.Stop();  // destroys the pair; the client reader unblocks on the dead socket
  ::shutdown(client.fd(), SHUT_RDWR);
  reader.join();
}

}  // namespace
}  // namespace zygos
