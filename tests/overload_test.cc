// Tests for the overload-control subsystem (src/overload + its runtime wiring):
// token-bucket fairness caps, the AIMD admission controller's exact arithmetic
// (EWMA gearing, adjustment cadence, deterministic credit pacing), knob resolvers,
// the analytic shed curve, and the runtime's three shedding legs end-to-end —
// a past-deadline request shed with the wire-level status while its connection
// slot survives, fairness caps enforced per flow and reset on slot recycling,
// adaptive admission refusing ingress under persistent queueing, and deadline
// sheds tracking injected latency spikes through the chaos proxy with the
// loadgen's completed + shed + lost == sent ledger intact.
//
// Timing discipline (tests/README.md): the unit tests use fake clocks only; the
// runtime tests gate on explicit handler gates or one-sided bounds (a request held
// past its budget MUST shed — the clock can only make it later), never
// sleep-then-assert on something a slow host could miss.
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
#include "src/overload/admission.h"
#include "src/overload/token_bucket.h"
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

// --- TokenBucket (fake clocks: no wall time anywhere) ----------------------------------

TEST(TokenBucketTest, BurstThenRefillAtConfiguredRate) {
  TokenBucket bucket;
  bucket.Reset(/*rate_per_sec=*/1000.0, /*burst=*/4.0, /*now=*/0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.TryTake(0)) << "burst token " << i;
  }
  EXPECT_FALSE(bucket.TryTake(0)) << "empty bucket admitted a request";
  // 1000/s refills one token per millisecond: 2 ms buys exactly two more.
  EXPECT_TRUE(bucket.TryTake(2 * kMillisecond));
  EXPECT_TRUE(bucket.TryTake(2 * kMillisecond));
  EXPECT_FALSE(bucket.TryTake(2 * kMillisecond));
  // Refill never exceeds the burst cap, however long the flow goes quiet.
  EXPECT_FALSE(bucket.TryTake(2 * kMillisecond));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.TryTake(kSecond)) << "post-idle token " << i;
  }
  EXPECT_FALSE(bucket.TryTake(kSecond)) << "idle refill exceeded the burst cap";
}

TEST(TokenBucketTest, ZeroRateDisablesLimiting) {
  TokenBucket bucket;  // default-constructed: rate 0
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.TryTake(0));
  }
  bucket.Reset(/*rate_per_sec=*/0.0, /*burst=*/1.0, /*now=*/5 * kSecond);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.TryTake(5 * kSecond));
  }
}

TEST(TokenBucketTest, ResetRestoresFullBurstAndForgetsDebt) {
  TokenBucket bucket;
  bucket.Reset(1.0, /*burst=*/2.0, /*now=*/0);
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_FALSE(bucket.TryTake(0));
  // The slot-recycle contract: a reincarnated flow starts with a full burst, no
  // inherited debt, and a refill clock anchored at the rebind instant.
  bucket.Reset(1.0, /*burst=*/2.0, /*now=*/10 * kSecond);
  EXPECT_TRUE(bucket.TryTake(10 * kSecond));
  EXPECT_TRUE(bucket.TryTake(10 * kSecond));
  EXPECT_FALSE(bucket.TryTake(10 * kSecond));
}

TEST(TokenBucketTest, NonIncreasingClockRefillsNothing) {
  TokenBucket bucket;
  bucket.Reset(1'000'000.0, /*burst=*/1.0, /*now=*/kSecond);
  EXPECT_TRUE(bucket.TryTake(kSecond));
  // A stale or equal clock must not mint tokens (monotonic-caller contract).
  EXPECT_FALSE(bucket.TryTake(kSecond));
  EXPECT_FALSE(bucket.TryTake(kSecond / 2));
}

// --- AdmissionController: exact arithmetic, no RNG -------------------------------------

TEST(AdmissionControllerTest, EwmaSeedsThenTracksWithTcpRttGearing) {
  AdmissionController controller(/*target=*/kMillisecond);
  controller.ObserveQueueing(8000);
  EXPECT_EQ(controller.ewma_delay(), 8000) << "first observation seeds the EWMA";
  controller.ObserveQueueing(0);
  // 7/8 old + 1/8 new in integer nanos: 8000 - 1000 + 0.
  EXPECT_EQ(controller.ewma_delay(), 7000);
  controller.ObserveQueueing(8000);
  EXPECT_EQ(controller.ewma_delay(), 7000 - 875 + 1000);
}

TEST(AdmissionControllerTest, MultiplicativeDecreaseEveryAdjustPeriod) {
  AdmissionController controller(/*target=*/kMillisecond);
  EXPECT_DOUBLE_EQ(controller.admit_fraction(), 1.0);
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 256; ++i) {
      controller.ObserveQueueing(10 * kMillisecond);
    }
    double expected = 1.0;
    for (int r = 0; r < round; ++r) {
      expected *= 0.9;
    }
    EXPECT_NEAR(controller.admit_fraction(), expected, 1e-12)
        << "after adjustment round " << round;
  }
  // The floor: persistent overload can never drive admission to zero.
  for (int i = 0; i < 256 * 64; ++i) {
    controller.ObserveQueueing(10 * kMillisecond);
  }
  EXPECT_NEAR(controller.admit_fraction(), 0.05, 1e-12);
}

TEST(AdmissionControllerTest, AdditiveIncreaseRecoversToFullAdmission) {
  AdmissionController controller(/*target=*/kMillisecond);
  for (int i = 0; i < 256; ++i) {
    controller.ObserveQueueing(10 * kMillisecond);
  }
  EXPECT_NEAR(controller.admit_fraction(), 0.9, 1e-12);
  // Zero-delay observations decay the EWMA below target within one period, then
  // +0.02 per period climbs back; ten periods overshoot 1.0 and must cap there.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 256; ++i) {
      controller.ObserveQueueing(0);
    }
  }
  EXPECT_DOUBLE_EQ(controller.admit_fraction(), 1.0);
}

TEST(AdmissionControllerTest, CreditAccumulatorAdmitsExactFraction) {
  AdmissionController controller(/*target=*/kMillisecond);
  // At full admission the credit machinery is bypassed entirely.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(controller.AdmitIngress());
  }
  for (int i = 0; i < 256; ++i) {
    controller.ObserveQueueing(10 * kMillisecond);  // one decrease: fraction 0.9
  }
  int admitted = 0;
  for (int i = 0; i < 1000; ++i) {
    if (controller.AdmitIngress()) {
      admitted++;
    }
  }
  // Deterministic pacing: 1000 requests at fraction 0.9 admit 900 up to one request
  // of floating-point credit residue — no RNG, and the error never compounds beyond
  // the [0, 1) credit the accumulator carries.
  EXPECT_NEAR(admitted, 900, 1);
}

TEST(AdmissionControllerTest, ZeroTargetDisablesAdaptation) {
  AdmissionController controller;  // default: target 0 (the runtime's non-adaptive path)
  for (int i = 0; i < 1024; ++i) {
    controller.ObserveQueueing(kSecond);
  }
  EXPECT_DOUBLE_EQ(controller.admit_fraction(), 1.0);
  EXPECT_EQ(controller.ewma_delay(), 0);
}

// --- knob resolvers + the analytic shed curve ------------------------------------------

TEST(OverloadOptionsTest, ResolversDeriveDocumentedDefaults) {
  OverloadOptions options;
  options.slo = 10 * kMillisecond;
  EXPECT_EQ(ResolveDeadlineBudget(options), 5 * kMillisecond) << "default: slo/2";
  options.deadline_budget = 2 * kMillisecond;
  EXPECT_EQ(ResolveDeadlineBudget(options), 2 * kMillisecond) << "explicit wins";

  EXPECT_DOUBLE_EQ(ResolveFlowBurst(options), 0.0) << "no rate, no bucket";
  options.flow_rate_rps = 10'000;
  EXPECT_DOUBLE_EQ(ResolveFlowBurst(options), 100.0) << "rate * 10ms";
  options.flow_rate_rps = 100;
  EXPECT_DOUBLE_EQ(ResolveFlowBurst(options), 16.0) << "floor of 16 tokens";
  options.flow_burst = 3;
  EXPECT_DOUBLE_EQ(ResolveFlowBurst(options), 3.0) << "explicit wins";

  EXPECT_EQ(ResolveAdaptiveTarget(options), kMillisecond) << "default: budget/2";
  options.adaptive_target = 7;
  EXPECT_EQ(ResolveAdaptiveTarget(options), 7);
}

TEST(OverloadOptionsTest, PredictedShedFractionMatchesOpenLoopIdeal) {
  // Serve capacity, shed the rest: at m x capacity the ideal controller sheds
  // max(0, 1 - 1/m) of the offered load.
  EXPECT_DOUBLE_EQ(PredictedShedFraction(0.5), 0.0);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(1.0), 0.0);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(2.0), 0.5);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(4.0), 0.75);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(10.0), 0.9);
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

RuntimeOptions OverloadRuntimeOptions() {
  RuntimeOptions options;
  options.num_workers = 2;
  options.num_flows = 8;
  options.overload.enabled = true;
  return options;
}

TEST(OverloadRuntimeTest, PastDeadlineRequestIsShedWithWireStatusAndSlotSurvives) {
  // A handler gate holds the home core inside request 0 while request 1 arrives and
  // ages past the deadline budget. On release the runtime must serve request 0,
  // shed request 1 with the wire-level status (the reply flows through the normal
  // per-flow FIFO TX path), and the connection slot must never recycle while the
  // shed reply is in flight.
  RuntimeOptions options = OverloadRuntimeOptions();
  options.overload.deadline_budget = 100 * kMillisecond;

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
  auto runtime = MakeLoopbackRuntime(options, handler, log.Handler(), &loopback);
  runtime->Start();

  ASSERT_TRUE(runtime->Inject(3, 0, "block"));
  ASSERT_TRUE(WaitFor([&] { return entered.load(std::memory_order_acquire); }));
  // The home core is parked inside request 0's handler, so request 1 sits at the
  // transport with its rx_nanos stamp aging. Hold the gate for well over the budget:
  // the wait below is a one-sided bound (a slow host only makes it LATER).
  Nanos injected_at = NowNanos();
  ASSERT_TRUE(runtime->Inject(3, 1, "late"));
  while (NowNanos() - injected_at < 3 * options.overload.deadline_budget) {
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

  // Drained client hangup: the slot must recycle normally after the shed verdict.
  ASSERT_TRUE(loopback->CloseFlowFromClient(3));
  ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().flows_recycled == 1; }));
  EXPECT_EQ(runtime->FlowGeneration(3), 1u);
  runtime->Shutdown();

  EXPECT_EQ(log.For(0), (std::pair<std::string, bool>{"served:block", false}));
  EXPECT_EQ(log.For(1), (std::pair<std::string, bool>{"", true}))
      << "past-deadline request must be refused with an empty shed reply";
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.sheds_deadline, 1u);
  EXPECT_EQ(total.sheds_fairness, 0u);
  EXPECT_EQ(total.sheds_admission, 0u);
  EXPECT_EQ(total.app_events, 1u) << "the shed request's handler must never run";
  EXPECT_EQ(total.rx_unstamped, 0u) << "loopback must stamp rx_nanos at Inject";
}

TEST(OverloadRuntimeTest, FairnessCapShedsExcessAndResetsOnRecycle) {
  // A hot flow with burst 4 and a negligible refill rate: of 10 back-to-back
  // requests exactly 4 are admitted (ingress order is the per-flow FIFO order, so
  // the split is deterministic), and after the slot recycles the reincarnated flow
  // starts with a full burst, not its predecessor's debt.
  RuntimeOptions options = OverloadRuntimeOptions();
  options.overload.flow_rate_rps = 0.001;  // ~0 tokens over the test's lifetime
  options.overload.flow_burst = 4;

  LoopbackTransport* loopback = nullptr;
  ShedLog log;
  auto runtime = MakeLoopbackRuntime(
      options,
      [](uint64_t, std::string_view request, ResponseBuilder& out) {
        out.Append(request);
      },
      log.Handler(), &loopback);
  runtime->Start();

  for (uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(runtime->Inject(5, id, "r" + std::to_string(id)));
  }
  ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == 10; }));
  for (uint64_t id = 0; id < 4; ++id) {
    EXPECT_FALSE(log.For(id).second) << "burst token " << id << " wrongly shed";
  }
  for (uint64_t id = 4; id < 10; ++id) {
    EXPECT_TRUE(log.For(id).second) << "over-cap request " << id << " wrongly served";
  }

  // Drained hangup, recycle, reincarnate: the fresh bind must Reset the bucket.
  ASSERT_TRUE(loopback->CloseFlowFromClient(5));
  ASSERT_TRUE(WaitFor([&] { return runtime->TotalStats().flows_recycled == 1; }));
  ASSERT_TRUE(runtime->Inject(5, 100, "fresh"));
  ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == 11; }));
  runtime->Shutdown();

  EXPECT_EQ(log.For(100), (std::pair<std::string, bool>{"fresh", false}))
      << "recycled slot inherited its predecessor's token debt";
  WorkerStats total = runtime->TotalStats();
  EXPECT_EQ(total.sheds_fairness, 6u);
  EXPECT_EQ(total.sheds_deadline, 0u);
  EXPECT_EQ(total.app_events, 5u);
  EXPECT_EQ(total.rx_unstamped, 0u);
}

TEST(OverloadRuntimeTest, AdaptiveAdmissionRefusesIngressUnderPersistentQueueing) {
  // A 1 ns target is unreachable — every observed queueing delay exceeds it — so
  // after the first 256 observations the controller must leave full admission and
  // start refusing a deterministic fraction of ingress.
  //
  // The admission decision is made by the flow's home core, but the queueing
  // observations feed the controller of whichever core runs the event. With
  // stealing on, the other core could run most events and starve the home
  // controller of the observations it needs for its first decrease, so the test
  // turns stealing off: every observation then reaches the deciding controller.
  RuntimeOptions options = OverloadRuntimeOptions();
  options.overload.adaptive = true;
  options.overload.adaptive_target = 1;  // 1 ns: unattainable by construction
  options.enable_stealing = false;

  LoopbackTransport* loopback = nullptr;
  auto runtime = MakeLoopbackRuntime(
      options,
      [](uint64_t, std::string_view request, ResponseBuilder& out) {
        out.Append(request);
      },
      /*on_complete=*/nullptr, &loopback);
  runtime->Start();

  constexpr uint64_t kRequests = 4096;
  for (uint64_t id = 0; id < kRequests; ++id) {
    // Two flows; both hash to core 1 of 2, so core 0 stays idle. Retry on a
    // momentarily full ring (the worker is draining concurrently).
    uint64_t flow = id % 2;
    ASSERT_TRUE(WaitFor([&] { return runtime->Inject(flow, id, "q"); }));
  }
  ASSERT_TRUE(WaitFor([&] { return runtime->Completed() == kRequests; }));
  runtime->Shutdown();

  WorkerStats total = runtime->TotalStats();
  EXPECT_GT(total.sheds_admission, 0u)
      << "controller never left full admission despite unattainable target";
  EXPECT_EQ(total.app_events + total.sheds_admission, kRequests)
      << "every request either executed or was refused, never both or neither";
  EXPECT_EQ(total.sheds_deadline, 0u) << "no budget configured: slo/2 resolves to 0";
  EXPECT_EQ(total.sheds_fairness, 0u);
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
    options.overload.enabled = true;
    options.overload.deadline_budget = deadline_budget;
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
  EXPECT_EQ(total.rx_unstamped, 0u) << "tcp transport must stamp rx_nanos at recv";
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
