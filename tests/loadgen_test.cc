// Tests for the open-loop load generator (src/loadgen): arrival-process statistics,
// the coordinated-omission guard (the send schedule is a pure function of the seed —
// sink latency must never shift scheduled times or thin the request count), the
// warmup window of MeasuredCompletion, and an end-to-end loopback run against the
// live runtime.
//
// All assertions are functional (counts, schedules, invariants) except the loopback
// round-trip, which only asserts that measurement happened — never how fast: the host
// may have a single hardware thread.
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/chaos_proxy.h"
#include "src/db/tpcc_loader.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/fanout.h"
#include "src/loadgen/loadgen.h"
#include "src/loadgen/report.h"
#include "src/loadgen/spin_service.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/loadgen/tpcc_gen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"
#include "src/services/tpcc_service.h"

namespace zygos {
namespace {

TEST(ArrivalProcessTest, PoissonGapsMatchMeanAndVariance) {
  // 1e6 rps -> exponential gaps with mean 1000 ns and variance mean^2.
  ArrivalProcess arrivals(ArrivalKind::kPoisson, 1e6, /*seed=*/42);
  constexpr int kSamples = 200'000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < kSamples; ++i) {
    auto gap = static_cast<double>(arrivals.NextGapNanos());
    ASSERT_GE(gap, 0.0);
    sum += gap;
    sum_sq += gap * gap;
  }
  double mean = sum / kSamples;
  double variance = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 1000.0, 15.0);              // within 1.5% of the exact mean
  EXPECT_NEAR(variance / (mean * mean), 1.0, 0.05);  // SCV of an exponential is 1
}

TEST(ArrivalProcessTest, FixedGapsAreConstant) {
  ArrivalProcess arrivals(ArrivalKind::kFixed, 50'000, /*seed=*/7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(arrivals.NextGapNanos(), 20'000);  // 1e9 / 50k
  }
}

TEST(ArrivalProcessTest, DeterministicForFixedSeed) {
  ArrivalProcess a(ArrivalKind::kPoisson, 123'456, 9);
  ArrivalProcess b(ArrivalKind::kPoisson, 123'456, 9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextGapNanos(), b.NextGapNanos());
  }
}

TEST(ArrivalProcessTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(ParseArrivalKind("poisson"), ArrivalKind::kPoisson);
  EXPECT_EQ(ParseArrivalKind("fixed"), ArrivalKind::kFixed);
  EXPECT_FALSE(ParseArrivalKind("uniform").has_value());
  EXPECT_STREQ(ArrivalKindName(ArrivalKind::kPoisson), "poisson");
}

// Sink that records every request it is handed, optionally stalling first — the
// "server misbehaves" half of the coordinated-omission experiment.
class RecordingSink final : public LoadSink {
 public:
  explicit RecordingSink(Nanos stall = 0) : stall_(stall) {}

  bool Send(uint64_t request_id, uint64_t flow_id, Nanos scheduled_send,
            const std::string& payload) override {
    (void)payload;
    if (stall_ > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_));
    }
    sends_.emplace_back(request_id, flow_id, scheduled_send);
    return true;
  }

  struct Sent {
    Sent(uint64_t id, uint64_t flow, Nanos at) : id(id), flow(flow), at(at) {}
    uint64_t id;
    uint64_t flow;
    Nanos at;
    bool operator==(const Sent&) const = default;
  };
  const std::vector<Sent>& sends() const { return sends_; }

 private:
  Nanos stall_;
  std::vector<Sent> sends_;
};

// THE coordinated-omission guard: the schedule — request count, scheduled send
// times, flow choices — must be identical whether the sink responds instantly or
// stalls on every send. A generator whose schedule reacted to sink latency would
// systematically omit the requests that should have landed during stalls, which is
// exactly the bias open-loop load generation exists to avoid.
TEST(OpenLoopGeneratorTest, ScheduleIsIndependentOfSinkDelays) {
  GeneratorOptions options;
  options.arrivals = ArrivalKind::kPoisson;
  options.rate_rps = 5000;
  options.duration = 40 * kMillisecond;  // ~200 scheduled requests
  options.num_flows = 8;
  options.payload_size = 4;
  options.seed = 1234;

  // A fixed start makes the two runs' absolute schedules comparable.
  Nanos start = NowNanos();
  RecordingSink fast;
  GeneratorResult fast_result = OpenLoopGenerator(options).RunFrom(start, fast);

  // Per-send stall chosen so the cumulative stall provably exceeds the send window:
  // sent * 300 us >> 40 ms for the ~200-request schedule.
  constexpr Nanos kStall = 300 * kMicrosecond;
  RecordingSink slow(kStall);
  GeneratorResult slow_result = OpenLoopGenerator(options).RunFrom(start, slow);

  ASSERT_GT(fast.sends().size(), 100u);
  EXPECT_EQ(fast_result.sent, slow_result.sent);
  EXPECT_EQ(fast.sends(), slow.sends())
      << "sink latency leaked into the send schedule (coordinated omission)";
  // The slow run fell behind its schedule and must admit it. Deterministic bound, not
  // a comparison against the fast run (whose lag is scheduler noise): by the last
  // send the run has slept >= sent * kStall of stall while the last scheduled time is
  // < duration after start, so the worst lag is at least the difference
  // (tests/README.md: lower bounds derived from injected sleeps are safe; comparing
  // two wall-clock measurements is not).
  Nanos provable_lag =
      static_cast<Nanos>(slow_result.sent) * kStall - options.duration;
  ASSERT_GT(provable_lag, 0) << "stall too small to prove lag for this schedule";
  EXPECT_GE(slow_result.max_send_lag, provable_lag);
}

// Sink that additionally records the request bytes — the TPC-C determinism probe.
class PayloadRecordingSink final : public LoadSink {
 public:
  bool Send(uint64_t request_id, uint64_t flow_id, Nanos scheduled_send,
            const std::string& payload) override {
    sends_.emplace_back(request_id, flow_id, scheduled_send);
    payloads_.push_back(payload);
    return true;
  }

  const std::vector<RecordingSink::Sent>& sends() const { return sends_; }
  const std::vector<std::string>& payloads() const { return payloads_; }

 private:
  std::vector<RecordingSink::Sent> sends_;
  std::vector<std::string> payloads_;
};

// TPC-C determinism: same seed => identical txn-mix schedule AND identical request
// bytes. The wire payloads are a pure function of the seed, so a Fig. 10 run is
// replayable request-for-request (the CO guard extended to request content).
TEST(OpenLoopGeneratorTest, TpccPayloadStreamIsAPureFunctionOfTheSeed) {
  const LoaderOptions scale = LoaderOptions::Tiny(2);
  GeneratorOptions options;
  options.arrivals = ArrivalKind::kPoisson;
  options.rate_rps = 5000;
  options.duration = 40 * kMillisecond;
  options.num_flows = 8;
  options.seed = 4242;
  options.make_payload = MakeTpccPayloadFactory(scale);

  Nanos start = NowNanos();
  PayloadRecordingSink first;
  OpenLoopGenerator(options).RunFrom(start, first);
  PayloadRecordingSink second;
  OpenLoopGenerator(options).RunFrom(start, second);

  ASSERT_GT(first.payloads().size(), 100u);
  EXPECT_EQ(first.sends(), second.sends()) << "schedule not seed-deterministic";
  EXPECT_EQ(first.payloads(), second.payloads()) << "request bytes not deterministic";

  // The stream is real TPC-C: every payload decodes, and the mix has >= 2 txn types
  // in ~200 draws (NewOrder + Payment alone cover 88% of the deck).
  std::set<TpccTxnType> types;
  for (const std::string& payload : first.payloads()) {
    auto request = DecodeTpccRequest(payload);
    ASSERT_TRUE(request.has_value()) << "generator emitted a malformed request";
    types.insert(request->type);
  }
  EXPECT_GE(types.size(), 2u);

  // A different seed must shift the content stream (not merely the schedule).
  options.seed = 4243;
  PayloadRecordingSink other;
  OpenLoopGenerator(options).RunFrom(start, other);
  EXPECT_NE(first.payloads(), other.payloads());
}

// Installing the TPC-C factory must not bend the send schedule: scheduled times,
// request ids, and flow choices are identical with and without it (the payload Rng is
// a separate stream — ScheduleIsIndependentOfSinkDelays' guard extended to content
// generation).
TEST(OpenLoopGeneratorTest, TpccFactoryDoesNotShiftTheScheduleOrFlowChoices) {
  GeneratorOptions options;
  options.arrivals = ArrivalKind::kPoisson;
  options.rate_rps = 5000;
  options.duration = 40 * kMillisecond;
  options.num_flows = 8;
  options.payload_size = 4;
  options.seed = 1234;

  Nanos start = NowNanos();
  PayloadRecordingSink fixed;
  OpenLoopGenerator(options).RunFrom(start, fixed);

  options.make_payload = MakeTpccPayloadFactory(LoaderOptions::Tiny(1));
  PayloadRecordingSink tpcc;
  OpenLoopGenerator(options).RunFrom(start, tpcc);

  ASSERT_GT(fixed.sends().size(), 100u);
  EXPECT_EQ(fixed.sends(), tpcc.sends())
      << "payload generation leaked into the send schedule (coordinated omission)";
  EXPECT_NE(fixed.payloads(), tpcc.payloads());  // the content did change
}

TEST(OpenLoopGeneratorTest, CountsSinkRefusalsAsDrops) {
  class RefusingSink final : public LoadSink {
   public:
    bool Send(uint64_t, uint64_t, Nanos, const std::string&) override {
      return calls_++ % 2 == 0;  // refuse every second request
    }
    int calls_ = 0;
  };
  GeneratorOptions options;
  options.rate_rps = 50'000;
  options.duration = 10 * kMillisecond;
  options.seed = 5;
  RefusingSink sink;
  GeneratorResult result = OpenLoopGenerator(options).RunFrom(NowNanos(), sink);
  EXPECT_GT(result.sent, 0u);
  EXPECT_GT(result.dropped, 0u);
  EXPECT_EQ(result.sent + result.dropped, static_cast<uint64_t>(sink.calls_));
}

TEST(MeasuredCompletionTest, WarmupWindowDiscardsEarlyCompletions) {
  MeasuredCompletion completion;
  completion.set_measure_start(1'000'000);
  CompletionHandler handler = completion.Handler();
  // Scheduled before the window: discarded.
  handler(/*flow=*/0, /*request=*/0, "r", /*arrival=*/999'999, /*shed=*/false);
  EXPECT_EQ(completion.measured_count(), 0u);
  EXPECT_EQ(completion.Snapshot().Count(), 0u);
  // Scheduled inside the window: recorded.
  handler(0, 1, "r", NowNanos() - 5 * kMicrosecond, /*shed=*/false);
  EXPECT_EQ(completion.measured_count(), 1u);
  EXPECT_EQ(completion.Snapshot().Count(), 1u);
}

// End to end on the live runtime: open-loop generator -> loopback transport -> spin
// service -> completion collector. Asserts measurement plumbing, not speed.
TEST(LoadgenLoopbackTest, MeasuresLiveRuntimeEndToEnd) {
  RuntimeOptions options;
  options.num_workers = 2;
  options.num_flows = 4;
  auto dist = std::shared_ptr<const ServiceTimeDistribution>(
      MakeDistribution("deterministic", 5 * kMicrosecond));
  ASSERT_NE(dist, nullptr);
  MeasuredCompletion completion;
  Runtime runtime(options, MakeSpinService(dist, ServiceMode::kSpin, /*seed=*/3),
                  completion.Handler());
  runtime.Start();

  GeneratorOptions gen;
  gen.rate_rps = 2000;
  gen.duration = 100 * kMillisecond;
  gen.num_flows = options.num_flows;
  gen.payload_size = 16;
  gen.seed = 11;
  Nanos start = NowNanos();
  Nanos warmup = 20 * kMillisecond;
  completion.set_measure_start(start + warmup);
  LoopbackSink sink(runtime);
  GeneratorResult result = OpenLoopGenerator(gen).RunFrom(start, sink);
  runtime.Shutdown();

  EXPECT_GT(result.sent, 0u);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_EQ(runtime.Completed(), result.sent);
  // Some completions were measured, and fewer than were sent (warmup discarded the
  // early ones — the generator ran 5x longer than the warmup window).
  EXPECT_GT(completion.measured_count(), 0u);
  EXPECT_LT(completion.measured_count(), result.sent);
  // Every measured latency covers at least the deterministic 5 us spin.
  LatencyHistogram hist = completion.Snapshot();
  EXPECT_EQ(hist.Count(), completion.measured_count());
  EXPECT_GE(hist.Min(), 5 * kMicrosecond);
}

// --- Churn mode over real sockets -----------------------------------------------------

// Churn mode against a live TCP runtime: connections expire, hang up cleanly and
// reconnect with fresh sockets, so lifetime connections exceed the server's
// connection-table capacity while its id recycling keeps every one servable.
// Functional assertions only (counts and cleanliness), never rates.
TEST(TcpLoadgenChurnTest, ReconnectsServeMoreConnectionsThanTableCapacity) {
  RuntimeOptions options;
  options.num_workers = 2;
  options.num_flows = 8;
  options.max_flows = 8;
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* tcp = transport.get();
  ViewHandler echo = [](uint64_t, std::string_view request, ResponseBuilder& out) {
    out.Append(request);
  };
  Runtime runtime(options, std::move(transport), std::move(echo));
  runtime.Start();

  TcpLoadgenOptions gen;
  gen.port = tcp->port();
  gen.connections = 4;
  gen.threads = 2;
  gen.rate_rps = 2000;
  gen.duration = 900 * kMillisecond;
  gen.warmup = 200 * kMillisecond;
  gen.seed = 9;
  gen.churn_mean_lifetime = 40 * kMillisecond;  // ~20+ lifetimes across the window
  gen.make_payload = [](Rng&, std::string& out) { out.assign(24, 'c'); };
  TcpLoadgenResult result = RunTcpLoadgen(gen);

  EXPECT_TRUE(result.clean) << "lost=" << result.lost
                            << " mismatches=" << result.mismatches;
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_GT(result.reconnects, 0u) << "churn mode never churned";
  EXPECT_GT(result.completed, 0u);
  // Distinct connections exceeded the 8-slot table with zero capacity refusals:
  // flow-id recycling at work.
  EXPECT_GT(tcp->AcceptedConnections(), 8u);
  EXPECT_EQ(tcp->AcceptedConnections(), 4u + result.reconnects);
  EXPECT_EQ(tcp->CapacityRefusals(), 0u);
  EXPECT_LE(runtime.PeakOpenFlows(), 8u) << "occupancy exceeded the table";
  // Workers are still polling: every accepted connection's hangup gets processed and
  // its slot recycled (bounded wait, no timing assertion).
  uint64_t accepted = tcp->AcceptedConnections();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (runtime.TotalStats().flows_recycled < accepted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  runtime.Shutdown();
  WorkerStats total = runtime.TotalStats();
  EXPECT_EQ(total.flows_opened, accepted);
  EXPECT_EQ(total.flows_closed, accepted);
  EXPECT_EQ(total.flows_recycled, accepted);
  EXPECT_EQ(runtime.OpenFlows(), 0u);
}

// --- Fan-out mode (tail-at-scale) -----------------------------------------------------

TEST(FanoutAccountingTest, LogicalLatencyIsMaxOfSubCompletions) {
  FanoutAccounting fanout(/*fanout_n=*/3, /*measure_start=*/0);
  uint64_t slot = fanout.Open(/*scheduled=*/100);
  fanout.SubCompleted(slot, 150);
  fanout.SubCompleted(slot, 400);  // the straggler defines the logical latency
  EXPECT_EQ(fanout.completed(), 0u) << "finalized before its last sub";
  fanout.SubCompleted(slot, 250);
  EXPECT_EQ(fanout.completed(), 1u);
  EXPECT_EQ(fanout.measured(), 1u);
  EXPECT_EQ(fanout.lost(), 0u);
  EXPECT_EQ(fanout.latency().Count(), 1u);
  EXPECT_EQ(fanout.latency().Min(), 300);  // max(150, 400, 250) - 100
  EXPECT_EQ(fanout.latency().Max(), 300);
}

TEST(FanoutAccountingTest, WarmupScheduledRequestsCompleteButAreNotMeasured) {
  FanoutAccounting fanout(2, /*measure_start=*/1000);
  uint64_t warm = fanout.Open(999);  // scheduled before the window
  fanout.SubCompleted(warm, 1500);
  fanout.SubCompleted(warm, 1600);
  uint64_t measured = fanout.Open(1000);  // boundary is inclusive
  fanout.SubCompleted(measured, 1700);
  fanout.SubCompleted(measured, 1800);
  EXPECT_EQ(fanout.completed(), 2u);
  EXPECT_EQ(fanout.measured(), 1u);
  EXPECT_EQ(fanout.latency().Count(), 1u);
  EXPECT_EQ(fanout.latency().Min(), 800);
}

TEST(FanoutAccountingTest, AnySubLossMarksTheLogicalRequestLostExactlyOnce) {
  FanoutAccounting fanout(4, 0);
  uint64_t slot = fanout.Open(10);
  fanout.SubFailed(slot);
  fanout.SubFailed(slot);  // second failure must not double-count
  fanout.SubCompleted(slot, 500);
  EXPECT_EQ(fanout.lost(), 0u) << "finalized before its last sub";
  fanout.SubCompleted(slot, 600);
  EXPECT_EQ(fanout.lost(), 1u);
  EXPECT_EQ(fanout.completed(), 0u);
  EXPECT_EQ(fanout.latency().Count(), 0u) << "a lost logical request must not record";
  // The safety net force-loses whatever never resolved — exactly once each.
  uint64_t open_a = fanout.Open(20);
  uint64_t open_b = fanout.Open(30);
  fanout.SubCompleted(open_a, 700);  // partially resolved, still open
  fanout.FinalizeOutstanding();
  EXPECT_EQ(fanout.lost(), 3u);
  EXPECT_EQ(fanout.opened(), 3u);
  fanout.SubCompleted(open_b, 800);  // late resolution after finalize: inert
  EXPECT_EQ(fanout.lost() + fanout.completed(), fanout.opened());
}

TEST(FanoutAccountingTest, ShedSubsResolveIntoTheirOwnLedgerColumn) {
  FanoutAccounting fanout(/*fanout_n=*/2, /*measure_start=*/0);
  // All subs shed: the logical request resolved (nothing lost) but was not served.
  uint64_t refused = fanout.Open(10);
  fanout.SubShed(refused, 200);
  EXPECT_EQ(fanout.shed(), 0u) << "finalized before its last sub";
  fanout.SubShed(refused, 300);
  EXPECT_EQ(fanout.shed(), 1u);
  // Mixed shed + completed: still shed (the request was not FULLY served), and the
  // latency histogram must not mix served and refused maxima.
  uint64_t partial = fanout.Open(20);
  fanout.SubCompleted(partial, 400);
  fanout.SubShed(partial, 500);
  EXPECT_EQ(fanout.shed(), 2u);
  // Lost trumps shed: an unrecoverable measurement is lost, never double-counted.
  uint64_t dead = fanout.Open(30);
  fanout.SubShed(dead, 600);
  fanout.SubFailed(dead);
  EXPECT_EQ(fanout.lost(), 1u);
  EXPECT_EQ(fanout.shed(), 2u);
  // Fully served control, and the three-way ledger balances exactly.
  uint64_t served = fanout.Open(40);
  fanout.SubCompleted(served, 700);
  fanout.SubCompleted(served, 800);
  EXPECT_EQ(fanout.completed(), 1u);
  EXPECT_EQ(fanout.latency().Count(), 1u) << "only fully served requests record";
  EXPECT_EQ(fanout.completed() + fanout.shed() + fanout.lost(), fanout.opened());
}

// Fan-out over the live runtime with per-flow service times: flow slot f sleeps
// f * 2 ms, so every logical request's max-of-4 covers the slowest flow's sleep.
// Injected sleeps give deterministic LOWER bounds (tests/README.md); no upper bounds.
TEST(TcpLoadgenFanoutTest, LogicalLatencyCoversTheSlowestSubFlow) {
  RuntimeOptions options;
  options.num_workers = 2;
  options.num_flows = 4;
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* tcp = transport.get();
  ViewHandler laggard = [](uint64_t flow, std::string_view request,
                           ResponseBuilder& out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * (flow % 4)));
    out.Append(request);
  };
  Runtime runtime(options, std::move(transport), std::move(laggard));
  runtime.Start();

  TcpLoadgenOptions gen;
  gen.port = tcp->port();
  gen.connections = 4;
  gen.threads = 1;
  gen.fanout_n = 4;  // every logical request touches ALL four flows
  gen.rate_rps = 40;  // well under the ~125/s a serial 8 ms straggler chain allows
  gen.duration = 500 * kMillisecond;
  gen.warmup = 100 * kMillisecond;
  gen.seed = 21;
  gen.make_payload = [](Rng&, std::string& out) { out.assign(16, 'f'); };
  TcpLoadgenResult result = RunTcpLoadgen(gen);
  runtime.Shutdown();

  EXPECT_TRUE(result.clean) << "lost=" << result.lost
                            << " mismatches=" << result.mismatches;
  EXPECT_GT(result.logical_sent, 0u);
  EXPECT_EQ(result.sent, result.logical_sent * 4) << "fan-out width leaked";
  EXPECT_EQ(result.logical_completed + result.logical_lost, result.logical_sent);
  EXPECT_EQ(result.logical_lost, 0u);
  EXPECT_EQ(result.measured, result.logical_measured * 4);
  ASSERT_GT(result.latency.Count(), 0u);
  // Every logical request includes a sub on flow 3 (2 * 3 = 6 ms sleep), so the
  // logical MINIMUM is bounded below by the slowest flow's service time...
  EXPECT_GE(result.latency.Min(), 6 * kMillisecond);
  // ...while the fastest individual sub (flow 0, no sleep) finishes well under it.
  EXPECT_LT(result.sub_latency.Min(), result.latency.Min());
}

// The fan-out CO guard: a degraded network (chaos proxy stalling one direction) must
// not thin the LOGICAL schedule — logical_sent is a pure function of
// (seed, rate, duration, threads), and every scheduled logical request resolves
// exactly once as completed or lost.
TEST(TcpLoadgenFanoutTest, LogicalScheduleIsIndependentOfNetworkDegradation) {
  ViewHandler echo = [](uint64_t, std::string_view request, ResponseBuilder& out) {
    out.Append(request);
  };
  auto run = [&](uint16_t port) {
    TcpLoadgenOptions gen;
    gen.port = port;
    gen.connections = 4;
    gen.threads = 1;
    gen.fanout_n = 4;
    gen.rate_rps = 200;
    gen.duration = 300 * kMillisecond;
    gen.warmup = 50 * kMillisecond;
    gen.seed = 77;
    gen.drain_timeout = 500 * kMillisecond;  // don't wait 10 s for stalled subs
    gen.make_payload = [](Rng&, std::string& out) { out.assign(16, 's'); };
    return RunTcpLoadgen(gen);
  };

  TcpLoadgenResult direct;
  {
    RuntimeOptions options;
    options.num_workers = 2;
    options.num_flows = 8;
    auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
    TcpTransport* tcp = transport.get();
    Runtime runtime(options, std::move(transport), echo);
    runtime.Start();
    direct = run(tcp->port());
    runtime.Shutdown();
  }

  TcpLoadgenResult degraded;
  {
    RuntimeOptions options;
    options.num_workers = 2;
    options.num_flows = 8;
    auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
    TcpTransport* tcp = transport.get();
    Runtime runtime(options, std::move(transport), echo);
    runtime.Start();
    // The proxy goes deaf on server->client after the first response byte and stays
    // deaf past the whole run: one sub-connection's responses stop arriving.
    ChaosProxyOptions chaos;
    chaos.upstream_port = tcp->port();
    chaos.seed = 3;
    chaos.stall_direction = ChaosDirection::kServerToClient;
    chaos.stall_after_bytes = 1;
    chaos.stall_duration = 30 * kSecond;
    ChaosProxy proxy(chaos);
    ASSERT_TRUE(proxy.Start());
    degraded = run(proxy.port());
    proxy.Stop();
    runtime.Shutdown();
  }

  // The degradation must be real (subs died, logical requests were lost)...
  EXPECT_EQ(degraded.clean, false);
  EXPECT_GT(degraded.logical_lost, 0u);
  // ...and still must not bend the schedule or leak a request from the ledger.
  EXPECT_EQ(degraded.logical_sent, direct.logical_sent)
      << "network degradation thinned the logical schedule (coordinated omission)";
  EXPECT_EQ(direct.logical_completed + direct.logical_lost, direct.logical_sent);
  EXPECT_EQ(degraded.logical_completed + degraded.logical_lost, degraded.logical_sent);
}

// --- report.h acceptance predicates ---------------------------------------------------

LivePoint Point(const std::string& config, double offered, double p99) {
  LivePoint point;
  point.config = config;
  point.offered_rps = offered;
  point.p99_us = p99;
  return point;
}

LivePoint PointT(const std::string& config, const std::string& transport,
                 double offered, double p99, double syscalls_per_req = 0) {
  LivePoint point = Point(config, offered, p99);
  point.transport = transport;
  point.syscalls_per_req = syscalls_per_req;
  return point;
}

TEST(LiveReportTest, MonotonePredicateChecksZygosCurveOnly) {
  std::vector<LivePoint> points = {Point("zygos", 100, 10), Point("zygos", 200, 12),
                                   Point("no-steal", 100, 50),
                                   Point("no-steal", 200, 20)};  // non-monotone, ignored
  EXPECT_TRUE(ZygosP99MonotoneInLoad(points));
  points.push_back(Point("zygos", 300, 11.9));  // within the one-bucket noise band
  EXPECT_TRUE(ZygosP99MonotoneInLoad(points));
  points.push_back(Point("zygos", 400, 9.0));  // >20% below the running max: real dip
  EXPECT_FALSE(ZygosP99MonotoneInLoad(points));
}

TEST(LiveReportTest, MonotonePredicateComparesAgainstRunningMaxNotNeighbor) {
  // Each step dips only ~7% from its NEIGHBOR (inside the noise tolerance), but the
  // curve drifts steadily downward: the running-max comparison bounds the TOTAL
  // drift at the tolerance, so the last point must fail even though a pairwise
  // check would wave every step through.
  std::vector<LivePoint> points = {Point("zygos", 100, 10.0), Point("zygos", 200, 9.3),
                                   Point("zygos", 300, 8.7), Point("zygos", 400, 8.2),
                                   Point("zygos", 500, 7.6)};
  EXPECT_FALSE(ZygosP99MonotoneInLoad(points));
}

TEST(LiveReportTest, MonotonePredicateEvaluatesEachTransportSeparately) {
  // A second transport's sweep restarts at low rates; its (lower) first point must
  // not read as a dip of the first transport's curve.
  std::vector<LivePoint> points = {PointT("zygos", "tcp", 100, 10),
                                   PointT("zygos", "tcp", 200, 30),
                                   PointT("zygos", "uring", 100, 8),
                                   PointT("zygos", "uring", 200, 29)};
  EXPECT_TRUE(ZygosP99MonotoneInLoad(points));
  points.push_back(PointT("zygos", "uring", 300, 5));  // real dip inside one transport
  EXPECT_FALSE(ZygosP99MonotoneInLoad(points));
}

TEST(LiveReportTest, MonotonePredicateExemptsSqpollRungs) {
  // SQPOLL rungs burn a core on the kernel poller; on hosts without one to spare
  // the p99-vs-load shape is scheduling noise, so those transports are excluded
  // from the monotone gate (their contract is the exact syscall counters).
  std::vector<LivePoint> points = {PointT("zygos", "uring+ms+sqp", 100, 400000),
                                   PointT("zygos", "uring+ms+sqp", 200, 50000)};
  EXPECT_TRUE(ZygosP99MonotoneInLoad(points));
  // Non-SQPOLL rungs stay covered.
  points.push_back(PointT("zygos", "uring+ms", 100, 50));
  points.push_back(PointT("zygos", "uring+ms", 200, 10));
  EXPECT_FALSE(ZygosP99MonotoneInLoad(points));
}

TEST(LiveReportTest, LadderSyscallsMustStrictlyDecreaseAcrossPresentRungs) {
  // The chain is uring -> uring+ms -> uring+ms+sqp, compared at each rung's peak
  // (last) cell; counters are exact so there is NO noise tolerance here.
  std::vector<LivePoint> points = {PointT("zygos", "uring", 100, 10, 0.7),
                                   PointT("zygos", "uring", 200, 12, 0.74),
                                   PointT("zygos", "uring+ms", 200, 12, 0.43),
                                   PointT("zygos", "uring+ms+sqp", 200, 13, 0.01)};
  EXPECT_TRUE(UringLadderSyscallsStrictlyDecreasing(points));
  points[2].syscalls_per_req = 0.74;  // equality with the previous rung fails
  EXPECT_FALSE(UringLadderSyscallsStrictlyDecreasing(points));
  points[2].syscalls_per_req = 0.43;
  points[3].syscalls_per_req = 0.50;  // regression above an earlier rung fails
  EXPECT_FALSE(UringLadderSyscallsStrictlyDecreasing(points));
  // Vacuously true when fewer than two chain rungs were swept (e.g. a probe
  // denied multishot), and an absent middle rung just shortens the chain.
  EXPECT_TRUE(UringLadderSyscallsStrictlyDecreasing(
      {PointT("zygos", "uring", 100, 10, 0.7)}));
}

TEST(LiveReportTest, FullLadderSyscallBudgetIsTenthOfARequest) {
  std::vector<LivePoint> points = {
      PointT("zygos", "uring+ms+sqp", 100, 10, 0.30),
      PointT("zygos", "uring+ms+sqp", 200, 12, 0.06)};
  EXPECT_TRUE(UringFullLadderSyscallsLeq0p1(points));  // peak cell decides
  points[1].syscalls_per_req = 0.11;
  EXPECT_FALSE(UringFullLadderSyscallsLeq0p1(points));
  // Vacuously true when the full-ladder rung was not swept (probe denied a rung).
  EXPECT_TRUE(
      UringFullLadderSyscallsLeq0p1({PointT("zygos", "uring", 100, 10, 0.7)}));
}

TEST(LiveReportTest, UringP99ComparedToEpollAtLastCommonPointWithNoiseTolerance) {
  std::vector<LivePoint> points = {PointT("zygos", "tcp", 100, 10, 3.0),
                                   PointT("zygos", "tcp", 200, 30, 2.5),
                                   PointT("zygos", "uring", 100, 50, 1.0),
                                   PointT("zygos", "uring", 200, 31, 0.7)};
  // 31 vs 30 at the last common point is inside the noise band (peak cells only —
  // uring's terrible first point is not consulted); 40 vs 30 is a real loss.
  EXPECT_TRUE(UringP99LeqEpollAtPeak(points));
  points[3].p99_us = 40;
  EXPECT_FALSE(UringP99LeqEpollAtPeak(points));
  // Vacuously true when either transport is absent from the sweep.
  EXPECT_TRUE(UringP99LeqEpollAtPeak({PointT("zygos", "tcp", 100, 10)}));
}

TEST(LiveReportTest, UringSyscallsMustBeStrictlyBelowEpoll) {
  std::vector<LivePoint> points = {PointT("zygos", "tcp", 100, 10, 2.5),
                                   PointT("zygos", "uring", 100, 10, 0.4)};
  EXPECT_TRUE(UringSyscallsBelowEpoll(points));
  points[1].syscalls_per_req = 2.5;  // equality is NOT enough — no tolerance here
  EXPECT_FALSE(UringSyscallsBelowEpoll(points));
  EXPECT_TRUE(UringSyscallsBelowEpoll({PointT("zygos", "uring", 100, 10, 0.4)}));
}

TEST(LiveReportTest, StealComparisonUsesHighestCommonLoadPoint) {
  std::vector<LivePoint> points = {Point("zygos", 100, 10), Point("zygos", 200, 30),
                                   Point("no-steal", 100, 10),
                                   Point("no-steal", 200, 30)};
  EXPECT_TRUE(StealLeqNoStealAtPeak(points));  // equality is allowed
  points[1].p99_us = 31;
  EXPECT_FALSE(StealLeqNoStealAtPeak(points));
  // Vacuously true when either curve is absent.
  EXPECT_TRUE(StealLeqNoStealAtPeak({Point("zygos", 100, 10)}));
}

}  // namespace
}  // namespace zygos
