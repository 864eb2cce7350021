// Transport conformance: one parameterized suite drives the SAME lifecycle,
// ordering, sever, stall-drop and slot-recycling assertions through every Transport
// backend — LoopbackTransport (in-process rings), TcpTransport (epoll sockets) and
// UringTransport (batched io_uring) — so a new backend cannot pass by implementing a
// private dialect of the contract (src/runtime/transport.h). The uring instantiation
// skips itself via the runtime capability probe when the kernel/sandbox denies
// io_uring_setup (ci.sh surfaces the skip); everything else must pass everywhere.
//
// All assertions are functional (counts, orderings, invariants), never timing-based —
// the host may have a single hardware thread.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/message.h"
#include "src/runtime/loopback_transport.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"
#include "src/runtime/uring_transport.h"

namespace zygos {
namespace {

enum class Backend { kLoopback, kTcp, kUring };

// One instantiation of the suite. The contract must hold for every backend.
struct BackendVariant {
  Backend backend;
  const char* name = "?";
};

std::vector<BackendVariant> AllVariants() {
  return {
      {Backend::kLoopback, "loopback"},
      {Backend::kTcp, "tcp"},
      {Backend::kUring, "uring"},
  };
}

ViewHandler EchoHandler() {
  return [](uint64_t, std::string_view request, ResponseBuilder& response) {
    response.Append("echo:");
    response.Append(request);
  };
}

class CompletionLog {
 public:
  CompletionHandler Handler() {
    return [this](uint64_t flow_id, uint64_t request_id, std::string_view response,
                  Nanos arrival, bool shed) {
      (void)arrival;
      (void)shed;
      std::lock_guard<std::mutex> guard(mutex_);
      per_flow_[flow_id].push_back(request_id);
      responses_[request_id] = std::string(response);
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

template <typename Predicate>
bool WaitFor(Predicate predicate,
             std::chrono::seconds deadline = std::chrono::seconds(8)) {
  auto until = std::chrono::steady_clock::now() + deadline;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= until) {
      return predicate();
    }
    std::this_thread::yield();
  }
  return true;
}

// Minimal blocking framed-RPC client for the socket backends (same shape as the
// runtime_test one; `rcvbuf` > 0 clamps the receive window for the stall test).
class TestTcpClient {
 public:
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
        response.payload !=
            "echo:" + payload_prefix + std::to_string(received)) {
      return false;
    }
    received++;
  }
  return true;
}

// Builds the runtime + transport pair for one backend variant. For socket backends,
// `sock_out` exposes the shared SocketTransportBase surface (port, drop counters);
// for loopback, `loop_out` exposes the test-drivable control surface.
std::unique_ptr<Runtime> MakeRuntime(const BackendVariant& variant,
                                     RuntimeOptions options,
                                     TcpTransportOptions tcp,
                                     CompletionHandler on_complete,
                                     SocketTransportBase** sock_out,
                                     LoopbackTransport** loop_out) {
  std::unique_ptr<Transport> transport;
  if (variant.backend == Backend::kLoopback) {
    auto loop = std::make_unique<LoopbackTransport>(
        options.num_workers, options.num_flow_groups, options.ring_capacity);
    *loop_out = loop.get();
    transport = std::move(loop);
  } else if (variant.backend == Backend::kTcp) {
    auto tcp_transport = std::make_unique<TcpTransport>(tcp);
    *sock_out = tcp_transport.get();
    transport = std::move(tcp_transport);
  } else {
    auto uring = std::make_unique<UringTransport>(tcp);
    *sock_out = uring.get();
    transport = std::move(uring);
  }
  transport->set_on_complete(std::move(on_complete));
  return std::make_unique<Runtime>(options, std::move(transport), EchoHandler());
}

class TransportConformance : public ::testing::TestWithParam<BackendVariant> {
 protected:
  void SetUp() override {
    if (GetParam().backend == Backend::kUring && !UringTransport::Available()) {
      GTEST_SKIP() << "io_uring unavailable on this host: "
                   << UringTransport::UnavailableReason();
    }
  }

  bool IsSocketBackend() const {
    return GetParam().backend != Backend::kLoopback;
  }

  RuntimeOptions Options(int workers, int flows) {
    RuntimeOptions options;
    options.num_workers = workers;
    options.num_flows = flows;
    return options;
  }
};

TEST_P(TransportConformance, EchoesInPerFlowOrder) {
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/8);
  CompletionLog log;
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime = MakeRuntime(GetParam(), options, TcpOptionsFor(options),
                             log.Handler(), &sock, &loop);
  runtime->Start();
  constexpr uint64_t kPerFlow = 60;
  if (IsSocketBackend()) {
    TestTcpClient a(sock->port());
    TestTcpClient b(sock->port());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(RunEchoExchange(a, kPerFlow, /*window=*/4, "a"));
    EXPECT_TRUE(RunEchoExchange(b, kPerFlow, /*window=*/4, "b"));
  } else {
    for (uint64_t i = 0; i < kPerFlow; ++i) {
      for (uint64_t flow = 0; flow < 2; ++flow) {
        ASSERT_TRUE(runtime->Inject(flow, flow * kPerFlow + i, "x"));
      }
    }
    ASSERT_TRUE(WaitFor([&] { return log.total() == 2 * kPerFlow; }));
    for (uint64_t flow = 0; flow < 2; ++flow) {
      auto order = log.FlowOrder(flow);
      ASSERT_EQ(order.size(), kPerFlow);
      EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
  }
  runtime->Shutdown();
  EXPECT_EQ(runtime->Completed(), 2 * kPerFlow);
  EXPECT_EQ(log.total(), 2 * kPerFlow);
  if (GetParam().backend == Backend::kUring) {
    EXPECT_GT(static_cast<UringTransport*>(sock)->PooledRecvs(), 0u)
        << "uring must receive through its pooled RECV path";
  }
}

TEST_P(TransportConformance, PathologicalSegmentationKeepsFlowOrdered) {
  // One frame delivered a byte per segment: reassembly and per-flow ordering must
  // survive arbitrary segment boundaries on every backend.
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/4);
  CompletionLog log;
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime = MakeRuntime(GetParam(), options, TcpOptionsFor(options),
                             log.Handler(), &sock, &loop);
  runtime->Start();
  constexpr uint64_t kRequests = 20;
  if (IsSocketBackend()) {
    TestTcpClient client(sock->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client.SendRequestByteByByte(i, "p" + std::to_string(i)));
      Message response;
      ASSERT_TRUE(client.RecvMessage(&response));
      EXPECT_EQ(response.request_id, i);
      EXPECT_EQ(response.payload, "echo:p" + std::to_string(i));
    }
  } else {
    for (uint64_t i = 0; i < kRequests; ++i) {
      std::string frame;
      EncodeMessage(Message{i, "p" + std::to_string(i)}, frame);
      for (size_t b = 0; b + 1 < frame.size(); ++b) {
        ASSERT_TRUE(runtime->InjectBytes(0, frame.substr(b, 1), 0));
      }
      ASSERT_TRUE(runtime->InjectBytes(0, frame.substr(frame.size() - 1), 1));
    }
    ASSERT_TRUE(WaitFor([&] { return log.total() == kRequests; }));
  }
  runtime->Shutdown();
  EXPECT_EQ(runtime->Completed(), kRequests);
  auto order = log.FlowOrder(IsSocketBackend() ? 0 : 0);
  ASSERT_EQ(order.size(), kRequests);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST_P(TransportConformance, LifecycleCountersBalanceAfterClientHangups) {
  // Every open gets a matching close and recycle; occupancy returns to zero.
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/8);
  CompletionLog log;
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime = MakeRuntime(GetParam(), options, TcpOptionsFor(options),
                             log.Handler(), &sock, &loop);
  runtime->Start();
  constexpr uint64_t kConns = 3;
  if (IsSocketBackend()) {
    for (uint64_t c = 0; c < kConns; ++c) {
      TestTcpClient client(sock->port());
      ASSERT_TRUE(client.ok());
      EXPECT_TRUE(RunEchoExchange(client, /*requests=*/5, /*window=*/2, "c"));
    }
  } else {
    for (uint64_t c = 0; c < kConns; ++c) {
      ASSERT_TRUE(loop->OpenFlow(c));
      ASSERT_TRUE(runtime->Inject(c, c, "ping"));
      ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == c + 1; }));
      ASSERT_TRUE(loop->CloseFlowFromClient(c));
    }
  }
  ASSERT_TRUE(
      WaitFor([&] { return runtime->TotalStats().flows_recycled == kConns; }));
  runtime->Shutdown();
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.flows_opened, kConns);
  EXPECT_EQ(total.flows_closed, kConns);
  EXPECT_EQ(total.flows_recycled, kConns);
  EXPECT_EQ(runtime->OpenFlows(), 0u);
}

TEST_P(TransportConformance, SlotRecyclingServesMoreConnectionsThanTable) {
  // A 2-slot table serves 6 sequential connections: ids recycle, occupancy stays
  // bounded, and (socket backends) nothing is refused at the cap.
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/2);
  options.max_flows = 2;
  CompletionLog log;
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime = MakeRuntime(GetParam(), options, TcpOptionsFor(options),
                             log.Handler(), &sock, &loop);
  runtime->Start();
  constexpr uint64_t kConns = 6;
  for (uint64_t c = 0; c < kConns; ++c) {
    if (IsSocketBackend()) {
      TestTcpClient client(sock->port());
      ASSERT_TRUE(client.ok()) << "connection " << c << " refused";
      EXPECT_TRUE(RunEchoExchange(client, /*requests=*/4, /*window=*/2, "c"));
    } else {
      uint64_t flow = c % 2;
      ASSERT_TRUE(loop->OpenFlow(flow));
      ASSERT_TRUE(runtime->Inject(flow, c, "ping"));
      ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == c + 1; }));
      ASSERT_TRUE(loop->CloseFlowFromClient(flow));
    }
    // The table has zero spare slots: this teardown must finish before the next
    // connection can claim an id.
    ASSERT_TRUE(WaitFor([&] {
      return runtime->TotalStats().flows_recycled == c + 1;
    })) << "teardown " << c << " never recycled its slot";
  }
  runtime->Shutdown();
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.flows_opened, kConns);
  EXPECT_EQ(total.flows_closed, kConns);
  EXPECT_EQ(total.flows_recycled, kConns);
  EXPECT_LE(runtime->PeakOpenFlows(), 2u) << "occupancy exceeded the table";
  if (IsSocketBackend()) {
    EXPECT_EQ(sock->AcceptedConnections(), kConns);
    EXPECT_EQ(sock->CapacityRefusals(), 0u);
  }
  uint64_t generation_sum = 0;
  for (uint64_t flow = 0; flow < 2; ++flow) {
    generation_sum += runtime->FlowGeneration(flow);
  }
  EXPECT_EQ(generation_sum, kConns);
}

TEST_P(TransportConformance, PoisonedFlowIsSeveredAloneKeepingNeighborsAlive) {
  // A frame whose length field exceeds FrameParser::kMaxPayload poisons the parser:
  // the runtime severs that flow at the transport (CloseFlow) while neighbours keep
  // being served — the sever path every backend must implement.
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/8);
  CompletionLog log;
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime = MakeRuntime(GetParam(), options, TcpOptionsFor(options),
                             log.Handler(), &sock, &loop);
  runtime->Start();
  const std::string poison(16, '\xFF');  // length field 0xFFFFFFFF >> kMaxPayload
  if (IsSocketBackend()) {
    TestTcpClient good(sock->port());
    TestTcpClient bad(sock->port());
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE(bad.ok());
    EXPECT_TRUE(RunEchoExchange(good, /*requests=*/5, /*window=*/2, "g"));
    ASSERT_TRUE(bad.SendBytes(poison.data(), poison.size()));
    Message never;
    EXPECT_FALSE(bad.RecvMessage(&never)) << "poisoned connection must be severed";
    EXPECT_TRUE(RunEchoExchange(good, /*requests=*/5, /*window=*/2, "h"))
        << "healthy connection must survive a neighbour's garbage";
  } else {
    ASSERT_TRUE(loop->OpenFlow(0));
    ASSERT_TRUE(loop->OpenFlow(1));
    ASSERT_TRUE(runtime->InjectBytes(1, poison, 0));
    ASSERT_TRUE(
        WaitFor([&] { return runtime->TotalStats().flows_closed >= 1; }));
    ASSERT_TRUE(runtime->Inject(0, 99, "alive"));
    ASSERT_TRUE(WaitFor([&] { return runtime->Completed() >= 1; }));
    EXPECT_EQ(log.ResponseFor(99), "echo:alive");
  }
  runtime->Shutdown();
  EXPECT_GE(runtime->TotalStats().flows_closed, 1u);
  EXPECT_GT(runtime->NicDrops(), 0u) << "the severance is accounted as a drop";
}

TEST_P(TransportConformance, StalledPeerIsDroppedAfterDeadline) {
  // A peer that stops reading costs its home core at most stall_drop_deadline, then
  // the response is dropped, the connection severed, and StallDrops() accounts it.
  if (!IsSocketBackend()) {
    GTEST_SKIP() << "loopback has no socket backpressure to stall on";
  }
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/16);
  TcpTransportOptions tcp = TcpOptionsFor(options);
  tcp.stall_drop_deadline = 30 * kMillisecond;  // keep the test fast
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime =
      MakeRuntime(GetParam(), options, tcp, nullptr, &sock, &loop);
  runtime->Start();
  {
    TestTcpClient deaf(sock->port(), /*rcvbuf=*/8192);
    ASSERT_TRUE(deaf.ok());
    const std::string big(8192, 'z');
    for (uint64_t i = 0; i < 800; ++i) {
      if (!deaf.SendRequest(i, big)) {
        break;  // severed mid-send: exactly the behaviour under test
      }
      if (sock->StallDrops() >= 1) {
        break;
      }
    }
    ASSERT_TRUE(WaitFor([&] { return sock->StallDrops() >= 1; }))
        << "TX to a deaf peer never tripped the stall deadline";
  }
  // Teardown after a stall drop is asynchronous (uring defers the close behind
  // ASYNC_CANCEL) — wait for the kFlowClosed to land before stopping.
  ASSERT_TRUE(
      WaitFor([&] { return runtime->TotalStats().flows_closed >= 1; }))
      << "the stall drop must tear the connection down";
  runtime->Shutdown();
  EXPECT_GE(sock->StallDrops(), 1u);
  EXPECT_EQ(sock->CapacityRefusals(), 0u);
}

TEST_P(TransportConformance, ShortWritesKeepPipelinedResponsesIntactAndOrdered) {
  // A pipelined flow's batches of 8 KB responses meet a peer that reads slowly
  // through a small receive window, so the server's sends come back short. The rest
  // of a short send must follow the bytes already written, never go out beside a
  // later op of the same flow: every response arrives intact and in request order,
  // and the slow but live reader is never stall-dropped.
  if (!IsSocketBackend()) {
    GTEST_SKIP() << "loopback has no socket backpressure to write short against";
  }
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/8);
  TcpTransportOptions tcp = TcpOptionsFor(options);
  // Several whole requests per recv, so one executed batch carries several of the
  // flow's responses.
  tcp.max_segment_bytes = 64 * 1024;
  tcp.stall_drop_deadline = 5 * kSecond;  // the reader is slow, never stalled
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime = MakeRuntime(GetParam(), options, tcp, nullptr, &sock, &loop);
  runtime->Start();
  // 8 MB of responses: twice the 4 MB a Linux loopback socket's send buffer
  // autotunes up to by default (tcp_wmem), so sends must go short.
  constexpr uint64_t kRequests = 1024;
  auto payload = [](uint64_t i) {
    return std::to_string(i) + std::string(8 * 1024, static_cast<char>('a' + i % 26));
  };
  {
    TestTcpClient client(sock->port(), /*rcvbuf=*/4096);
    ASSERT_TRUE(client.ok());
    std::thread sender([&] {
      for (uint64_t i = 0; i < kRequests; ++i) {
        if (!client.SendRequest(i, payload(i))) {
          return;
        }
      }
    });
    uint64_t received = 0;
    Message response;
    while (received < kRequests && client.RecvMessage(&response)) {
      if (response.request_id != received ||
          response.payload != "echo:" + payload(received)) {
        break;
      }
      received++;
      std::this_thread::sleep_for(std::chrono::microseconds(50));  // read slowly
    }
    sender.join();
    EXPECT_EQ(received, kRequests) << "response " << received
                                   << " arrived corrupt, out of order or not at all";
  }
  runtime->Shutdown();
  EXPECT_EQ(sock->StallDrops(), 0u);
  EXPECT_EQ(runtime->Completed(), kRequests);
}

TEST_P(TransportConformance, EveryRxSegmentCarriesATransportArrivalStamp) {
  // Segment::arrival is the clock overload control sheds against (queueing delay =
  // dispatch - arrival), so every backend must stamp it at transport arrival. The
  // runtime backfills a zero stamp with its own clock and counts it in rx_unstamped;
  // this gate pins that counter to zero per backend.
  RuntimeOptions options = Options(/*workers=*/2, /*flows=*/8);
  CompletionLog log;
  SocketTransportBase* sock = nullptr;
  LoopbackTransport* loop = nullptr;
  auto runtime = MakeRuntime(GetParam(), options, TcpOptionsFor(options),
                             log.Handler(), &sock, &loop);
  runtime->Start();
  constexpr uint64_t kRequests = 40;
  if (IsSocketBackend()) {
    TestTcpClient client(sock->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(RunEchoExchange(client, kRequests, /*window=*/4, "s"));
  } else {
    for (uint64_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(runtime->Inject(i % 4, i, "s"));
    }
    ASSERT_TRUE(WaitFor([&] { return log.total() == kRequests; }));
  }
  runtime->Shutdown();
  WorkerStats total = runtime->TotalStats();
  EXPECT_GT(total.rx_segments, 0u);
  EXPECT_EQ(total.rx_unstamped, 0u)
      << GetParam().name << " delivered segments with arrival == 0";
}

// The send plan both socket backends share: a batch in which two flows' responses
// interleave (as two thieves' remote syscalls can in a home core's queue) groups into
// one run per flow in batch order, and one flow's op never carries more than IOV_MAX
// iovecs; a short write resumes mid-frame and the tail past IOV_MAX follows next.
TEST(FlowSendPlanTest, GroupsFlowsStablyAndCursorsAcrossShortWritesAndIovMax) {
  constexpr uint64_t kFlowA = 7;
  constexpr uint64_t kFlowB = 3;
  const size_t a_responses = IOV_MAX + 3;
  std::vector<TxSegment> batch;
  for (size_t i = 0; i < a_responses; ++i) {
    batch.push_back(TxSegment{kFlowA, i, 0, EncodeFrame(i, "a" + std::to_string(i))});
    if (i % 3 == 0) {
      batch.push_back(TxSegment{kFlowB, i, 0, EncodeFrame(i, "b")});
    }
  }
  FlowSendPlan plan;
  plan.Build(batch);
  ASSERT_EQ(plan.flows().size(), 2u);
  FlowSendPlan::Flow* a = nullptr;
  for (FlowSendPlan::Flow& flow : plan.flows()) {
    for (size_t slot = flow.begin; slot < flow.end; ++slot) {
      EXPECT_EQ(batch[plan.BatchIndex(slot)].flow_id, flow.flow_id);
      if (slot > flow.begin) {
        EXPECT_LT(plan.BatchIndex(slot - 1), plan.BatchIndex(slot)) << "unstable";
      }
    }
    if (flow.flow_id == kFlowA) {
      a = &flow;
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->unsent(), a_responses);
  auto frame = [&](size_t slot) { return batch[plan.BatchIndex(slot)].frame.view(); };
  msghdr* op = plan.NextOp(*a);
  ASSERT_EQ(op->msg_iovlen, static_cast<size_t>(IOV_MAX));
  // Short write: the first frame and two bytes of the second.
  plan.Advance(*a, frame(a->begin).size() + 2);
  EXPECT_EQ(a->next, a->begin + 1);
  op = plan.NextOp(*a);
  ASSERT_EQ(op->msg_iovlen, static_cast<size_t>(IOV_MAX));
  EXPECT_EQ(op->msg_iov[0].iov_base, frame(a->begin + 1).data() + 2);
  EXPECT_EQ(op->msg_iov[0].iov_len, frame(a->begin + 1).size() - 2);
  // The op completes in full; the two responses past IOV_MAX are the next op.
  size_t op_bytes = 0;
  for (size_t v = 0; v < op->msg_iovlen; ++v) {
    op_bytes += op->msg_iov[v].iov_len;
  }
  plan.Advance(*a, op_bytes);
  EXPECT_EQ(a->unsent(), 2u);
  op = plan.NextOp(*a);
  ASSERT_EQ(op->msg_iovlen, 2u);
  EXPECT_EQ(op->msg_iov[0].iov_base, frame(a->end - 2).data());
  plan.Advance(*a, frame(a->end - 2).size() + frame(a->end - 1).size());
  EXPECT_TRUE(a->done());
}

// Epoll TX without a runtime: a batch of 32 responses for one flow leaves as exactly
// one data-path syscall (one sendmsg over 32 iovecs), and the client reads all 32
// frames in batch order.
TEST(TcpTransportTx, OneFlowsBatchLeavesAsOneSendmsg) {
  TcpTransportOptions options;
  options.num_queues = 1;
  options.max_flows = 4;
  TcpTransport transport(options);
  transport.Start();
  TestTcpClient client(transport.port());
  ASSERT_TRUE(client.ok());
  std::vector<Segment> segments(8);
  std::vector<ControlEvent> control;
  std::optional<uint64_t> flow;
  ASSERT_TRUE(WaitFor([&] {
    control.clear();
    transport.PollBatch(0, segments, control);
    for (const ControlEvent& event : control) {
      if (event.kind == ControlEventKind::kFlowOpened) {
        flow = event.flow_id;
      }
    }
    return flow.has_value();
  })) << "the connection never surfaced as kFlowOpened";
  constexpr uint64_t kResponses = 32;
  std::vector<TxSegment> batch(kResponses);
  for (uint64_t i = 0; i < kResponses; ++i) {
    batch[i].flow_id = *flow;
    batch[i].request_id = i;
    batch[i].frame = EncodeFrame(i, "r" + std::to_string(i));
  }
  const uint64_t before = transport.IoSyscalls();
  EXPECT_EQ(transport.TransmitBatch(0, batch), kResponses);
  EXPECT_EQ(transport.IoSyscalls() - before, 1u);
  for (uint64_t i = 0; i < kResponses; ++i) {
    Message response;
    ASSERT_TRUE(client.RecvMessage(&response));
    EXPECT_EQ(response.request_id, i);
    EXPECT_EQ(response.payload, "r" + std::to_string(i));
  }
  EXPECT_EQ(transport.Drops(), 0u);
  transport.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TransportConformance, ::testing::ValuesIn(AllVariants()),
    [](const ::testing::TestParamInfo<BackendVariant>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace zygos
