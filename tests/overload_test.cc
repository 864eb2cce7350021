// Tests for overload control, the runtime's one knob RuntimeOptions::deadline_budget,
// end-to-end: a past-deadline request shed with the wire-level status while its
// connection slot survives (and served when the budget is 0), a transient backlog
// that stays under the budget served in full, and sheds tracking injected latency
// spikes through the chaos proxy with the loadgen's completed + shed + lost == sent
// ledger intact.
//
// Timing discipline (tests/README.md): the runtime tests gate on explicit handler
// gates or one-sided bounds (a request held past its budget MUST shed — the clock can
// only make it later), never sleep-then-assert on something a slow host could miss.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/chaos_proxy.h"
#include "src/common/time_units.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/net/message.h"
#include "src/runtime/loopback_transport.h"
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

// --- runtime wiring: loopback determinism ----------------------------------------------

// Completion log that keeps the wire-level shed status per request id.
class ShedLog {
 public:
  CompletionHandler Handler() {
    return [this](uint64_t flow_id, uint64_t request_id, std::string_view response,
                  Nanos arrival, bool shed) {
      (void)flow_id;
      (void)arrival;
      std::lock_guard<std::mutex> guard(mutex_);
      results_[request_id] = {std::string(response), shed};
    };
  }
  // (response payload, shed flag); ("", false) when the id never completed.
  std::pair<std::string, bool> For(uint64_t request_id) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = results_.find(request_id);
    return it == results_.end() ? std::pair<std::string, bool>{"", false} : it->second;
  }

 private:
  std::mutex mutex_;
  std::map<uint64_t, std::pair<std::string, bool>> results_;
};

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

RuntimeOptions OverloadRuntimeOptions(Nanos deadline_budget) {
  RuntimeOptions options;
  options.num_workers = 2;
  options.num_flows = 8;
  options.deadline_budget = deadline_budget;
  return options;
}

TEST(OverloadRuntimeTest, PastDeadlineRequestIsShedWithWireStatusAndSlotSurvives) {
  // A handler gate holds the home core inside request 0 while request 1 arrives and
  // ages for 300 ms. With a 100 ms budget the runtime must serve request 0, shed
  // request 1 with the wire-level status (the reply flows through the normal
  // per-flow FIFO TX path), and the connection slot must never recycle while the
  // shed reply is in flight. With budget 0 no overload code runs: the same late
  // request is served and nothing is shed.
  constexpr Nanos kHold = 300 * kMillisecond;
  for (Nanos budget : {100 * kMillisecond, Nanos{0}}) {
    SCOPED_TRACE("deadline_budget=" + std::to_string(budget));
    const bool sheds = budget > 0;

    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool released = false;
    std::atomic<bool> entered{false};
    ViewHandler handler = [&](uint64_t, std::string_view request, ResponseBuilder& out) {
      if (request == "block") {
        entered.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return released; });
      }
      out.Append("served:");
      out.Append(request);
    };

    LoopbackTransport* loopback = nullptr;
    ShedLog log;
    auto runtime = MakeLoopbackRuntime(OverloadRuntimeOptions(budget), handler,
                                       log.Handler(), &loopback);
    runtime->Start();

    ASSERT_TRUE(runtime->Inject(3, 0, "block"));
    ASSERT_TRUE(WaitFor([&] { return entered.load(std::memory_order_acquire); }));
    // The home core is parked inside request 0's handler, so request 1 sits at the
    // transport with its arrival stamp aging. Hold the gate for 3x the shedding
    // budget: the wait below is a one-sided bound (a slow host only makes it LATER).
    Nanos injected_at = NowNanos();
    ASSERT_TRUE(runtime->Inject(3, 1, "late"));
    while (NowNanos() - injected_at < kHold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(runtime->FlowGeneration(3), 0u)
        << "slot recycled while a request (and then its shed reply) was in flight";
    {
      std::lock_guard<std::mutex> lock(gate_mutex);
      released = true;
    }
    gate_cv.notify_all();
    ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == 2; }));

    // Drained client hangup: the slot must recycle normally after the verdict.
    ASSERT_TRUE(loopback->CloseFlowFromClient(3));
    ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().flows_recycled == 1; }));
    EXPECT_EQ(runtime->FlowGeneration(3), 1u);
    runtime->Shutdown();

    EXPECT_EQ(log.For(0), (std::pair<std::string, bool>{"served:block", false}));
    WorkerStats total = runtime->TotalStats();
    if (sheds) {
      EXPECT_EQ(log.For(1), (std::pair<std::string, bool>{"", true}))
          << "past-deadline request must be refused with an empty shed reply";
      EXPECT_EQ(total.sheds_deadline, 1u);
      EXPECT_EQ(total.app_events, 1u) << "the shed request's handler must never run";
    } else {
      EXPECT_EQ(log.For(1), (std::pair<std::string, bool>{"served:late", false}))
          << "budget 0 must serve a late request, however late";
      EXPECT_EQ(total.sheds_deadline, 0u);
      EXPECT_EQ(total.app_events, 2u);
    }
    EXPECT_EQ(total.rx_unstamped, 0u) << "loopback must stamp arrival at Inject";
  }
}

TEST(OverloadRuntimeTest, TransientBacklogUnderTheBudgetIsServedInFull) {
  // Deadline shedding refuses only what is already late. A gate holds the home core
  // for 0.6 x budget while a backlog of requests queues behind it: each one waits
  // long, but less than the budget, so every one is served. Requests injected after
  // the release meet an empty queue and are served too — a past backlog that stayed
  // under the budget must not cost later requests anything.
  //
  // Stealing is off so the other core cannot drain the backlog early: every queued
  // request then waits out the gate on the home core.
  constexpr Nanos kBudget = 200 * kMillisecond;
  RuntimeOptions options = OverloadRuntimeOptions(kBudget);
  options.enable_stealing = false;

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  std::atomic<bool> entered{false};
  ViewHandler handler = [&](uint64_t, std::string_view request, ResponseBuilder& out) {
    if (request == "block") {
      entered.store(true, std::memory_order_release);
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return released; });
    }
    out.Append(request);
  };

  LoopbackTransport* loopback = nullptr;
  ShedLog log;
  auto runtime = MakeLoopbackRuntime(options, handler, log.Handler(), &loopback);
  runtime->Start();

  // One flow: every request shares the home core the gate parks.
  constexpr uint64_t kFlow = 3;
  constexpr uint64_t kQueued = 300;
  constexpr uint64_t kAfter = 200;
  ASSERT_TRUE(runtime->Inject(kFlow, 0, "block"));
  ASSERT_TRUE(WaitFor([&] { return entered.load(std::memory_order_acquire); }));
  for (uint64_t id = 1; id <= kQueued; ++id) {
    ASSERT_TRUE(runtime->Inject(kFlow, id, "q"));
  }
  // Hold until the last queued request has waited 0.6 x budget.
  Nanos last_injected = NowNanos();
  while (NowNanos() - last_injected < kBudget * 6 / 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == 1 + kQueued; }));

  constexpr uint64_t kRequests = 1 + kQueued + kAfter;
  for (uint64_t id = 1 + kQueued; id < kRequests; ++id) {
    ASSERT_TRUE(WaitFor([&] { return runtime->Inject(kFlow, id, "q"); }));
  }
  ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == kRequests; }));
  runtime->Shutdown();

  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.app_events, kRequests) << "a request under the budget was refused";
  EXPECT_EQ(total.sheds_deadline, 0u);
  uint64_t shed_replies = 0;
  for (uint64_t id = 0; id < kRequests; ++id) {
    shed_replies += log.For(id).second ? 1 : 0;
  }
  EXPECT_EQ(shed_replies, 0u) << "a reply carried the shed flag";
}

// --- chaos integration: sheds track injected latency spikes ----------------------------

// Echo with a fixed sleep service time: capacity = workers / service, independent of
// host CPU speed (the sleeps overlap, so this holds even on a single hardware thread).
ViewHandler SleepEcho(Nanos service) {
  return [service](uint64_t, std::string_view request, ResponseBuilder& out) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(service));
    out.Append(request);
  };
}

struct OverloadTcpServer {
  explicit OverloadTcpServer(Nanos deadline_budget, Nanos service) {
    options.num_workers = 2;
    options.num_flows = 64;
    options.deadline_budget = deadline_budget;
    auto owned = std::make_unique<TcpTransport>(TcpOptionsFor(options));
    transport = owned.get();
    runtime = std::make_unique<Runtime>(options, std::move(owned), SleepEcho(service));
    runtime->Start();
  }
  ~OverloadTcpServer() { Shutdown(); }

  // Idempotent wrapper: tests shut down early to freeze stats, the destructor
  // covers the failure paths that return before reaching it.
  void Shutdown() {
    if (!down) {
      runtime->Shutdown();
      down = true;
    }
  }

  bool down = false;
  RuntimeOptions options;
  std::unique_ptr<Runtime> runtime;
  TcpTransport* transport = nullptr;
};

TcpLoadgenOptions LoadFor(uint16_t port, Nanos duration) {
  TcpLoadgenOptions load;
  load.port = port;
  load.connections = 8;
  load.threads = 2;
  load.rate_rps = 1000;
  load.duration = duration;
  load.warmup = duration / 5;
  load.seed = 42;
  load.make_payload = [](Rng&, std::string& out) { out = "spike-probe"; };
  return load;
}

TEST(OverloadChaosTest, DeadlineShedsTrackInjectedLatencySpikesAndLedgerBalances) {
  // Client->server spikes through the chaos proxy: during each 300 ms window every
  // chunk is held 600 ms, and the proxy's monotone delivery floor then releases the
  // post-window backlog as one burst (~600 ms of offered load at once). At 1000 rps
  // against 2 workers x 1 ms sleep service (capacity ~2000/s), the back of each
  // burst queues ~300 ms — double the 150 ms budget — so the server MUST shed; in
  // the control run below the same server at the same load sheds nothing. Either
  // way the loadgen ledger must balance exactly: completed + shed + lost == sent.
  constexpr Nanos kBudget = 150 * kMillisecond;
  constexpr Nanos kService = kMillisecond;
  OverloadTcpServer server(kBudget, kService);

  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.transport->port();
  proxy_options.seed = 7;
  proxy_options.client_to_server.kind = DelayModel::Kind::kSpike;
  proxy_options.client_to_server.spike_period = 900 * kMillisecond;
  proxy_options.client_to_server.spike_duration = 300 * kMillisecond;
  proxy_options.client_to_server.spike_delay = 600 * kMillisecond;
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start());

  TcpLoadgenResult result = RunTcpLoadgen(LoadFor(proxy.port(), 5 * kSecond / 2));
  proxy.Stop();

  EXPECT_TRUE(result.clean) << "spiked-but-shed run should still drain fully";
  EXPECT_GT(result.shed, 0u) << "no sheds despite bursts at ~2x the deadline budget";
  EXPECT_EQ(result.completed + result.shed + result.lost, result.sent)
      << "overload ledger out of balance";
  EXPECT_EQ(result.logical_completed + result.logical_shed + result.logical_lost,
            result.logical_sent);
  EXPECT_EQ(result.mismatches, 0u)
      << "shed replies must preserve per-flow FIFO response order";

  server.Shutdown();
  WorkerStats total = server.runtime->TotalStats();
  EXPECT_GT(total.sheds_deadline, 0u);
  EXPECT_EQ(total.sheds_deadline, result.shed)
      << "every server-side shed verdict must surface as a wire-level refusal";
  EXPECT_EQ(total.rx_unstamped, 0u) << "tcp transport must stamp arrival at recv";
}

TEST(OverloadChaosTest, QuietNetworkAtNominalLoadShedsNothing) {
  // Control for the spike test: same server, same budget, same offered load, no
  // injected delay — zero sheds, and the ledger degenerates to completed == sent.
  constexpr Nanos kBudget = 150 * kMillisecond;
  constexpr Nanos kService = kMillisecond;
  OverloadTcpServer server(kBudget, kService);

  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.transport->port();
  proxy_options.seed = 7;  // both DelayModels default to kNone
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start());

  TcpLoadgenResult result = RunTcpLoadgen(LoadFor(proxy.port(), 5 * kSecond / 4));
  proxy.Stop();

  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.shed, 0u) << "shed at 0.5x capacity with a quiet network";
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.completed, result.sent);
}

}  // namespace
}  // namespace zygos
