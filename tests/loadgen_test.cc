// Tests for the open-loop load generator (src/loadgen): arrival-process statistics,
// the TPC-C payload factory's determinism, the TCP generator's churn and fan-out
// modes and its coordinated-omission guard (a degraded network must never thin the
// schedule), and the shared live-experiment harness (src/loadgen/experiment.h: the
// BENCH report writer, median-of-N, the config table, one live TCP cell).
//
// All assertions are functional (counts, schedules, invariants) except the live
// round-trips, which only assert that measurement happened — never how fast: the host
// may have a single hardware thread.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/chaos_proxy.h"
#include "src/db/tpcc_loader.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/fanout.h"
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

// TPC-C determinism: the factory's bytes are a pure function of the Rng stream, so a
// Fig. 10 run's request content is replayable from the loadgen seed.
TEST(TpccPayloadFactoryTest, BytesAreAPureFunctionOfTheRngStream) {
  const auto factory = MakeTpccPayloadFactory(LoaderOptions::Tiny(2));
  auto payloads = [&factory](uint64_t seed) {
    Rng rng(seed);
    std::vector<std::string> out(200);
    for (std::string& payload : out) {
      factory(rng, payload);
    }
    return out;
  };
  const std::vector<std::string> first = payloads(4242);
  EXPECT_EQ(first, payloads(4242)) << "request bytes not deterministic";

  // The stream is real TPC-C: every payload decodes, and the mix has >= 2 txn types
  // in 200 draws (NewOrder + Payment alone cover 88% of the deck).
  std::set<TpccTxnType> types;
  for (const std::string& payload : first) {
    auto request = DecodeTpccRequest(payload);
    ASSERT_TRUE(request.has_value()) << "factory emitted a malformed request";
    types.insert(request->type);
  }
  EXPECT_GE(types.size(), 2u);

  // A different seed must shift the content stream.
  EXPECT_NE(first, payloads(4243));
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
  Runtime runtime(options, std::move(transport), EchoHandler());
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

// Runs the same schedule against a direct server and through a chaos proxy whose
// server->client direction goes deaf, and checks the logical ledger of both runs.
void ExpectScheduleSurvivesDegradation(int fanout_n) {
  ViewHandler echo = EchoHandler();
  auto run = [&](uint16_t port) {
    TcpLoadgenOptions gen;
    gen.port = port;
    gen.connections = 4;
    gen.threads = 1;
    gen.fanout_n = fanout_n;
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

// The TCP generator's CO guard, plain (fanout_n = 1) and fanned out (4): a degraded
// network (chaos proxy stalling one direction) must not thin the LOGICAL schedule —
// logical_sent is a pure function of (seed, rate, duration, threads), and every
// scheduled logical request resolves exactly once as completed or lost.
TEST(TcpLoadgenFanoutTest, LogicalScheduleIsIndependentOfNetworkDegradation) {
  for (int fanout_n : {1, 4}) {
    SCOPED_TRACE("fanout_n=" + std::to_string(fanout_n));
    ExpectScheduleSurvivesDegradation(fanout_n);
  }
}

// --- The shared live-experiment harness (experiment.h) ----------------------------------

TEST(BenchReportTest, WritesParamsArraysNestedObjectsAndTheGateList) {
  BenchReport report("tiny_metric", 1.5, "us");
  report.params().Str("transport", "tcp").Int("workers", 2).Num("ratio", 0.25, 3);
  report.Gate("shape_ok", true).Gate("ledger_ok", false);
  JsonObject curve;
  curve.Nums("p99_us", {1, 2.5}, 1);
  report.params().Object("curves", JsonObject().Object("zygos", curve));
  EXPECT_EQ(report.ToJson(),
            "{\n"
            "  \"metric\": \"tiny_metric\",\n"
            "  \"value\": 1.50,\n"
            "  \"unit\": \"us\",\n"
            "  \"commit\": \"\",\n"
            "  \"params\": {\n"
            "    \"transport\": \"tcp\",\n"
            "    \"workers\": 2,\n"
            "    \"ratio\": 0.250,\n"
            "    \"shape_ok\": true,\n"
            "    \"ledger_ok\": false,\n"
            "    \"curves\": {\n"
            "      \"zygos\": {\n"
            "        \"p99_us\": [1.0, 2.5]\n"
            "      }\n"
            "    },\n"
            "    \"gates\": [\"shape_ok\", \"ledger_ok\"]\n"
            "  }\n"
            "}\n");
  // The exit status: 1 while any gate is false — also when no file is written — and
  // the file holds exactly ToJson().
  const std::string path = testing::TempDir() + "/bench_report_test.json";
  EXPECT_EQ(report.Finish(path), 1);
  std::stringstream written;
  written << std::ifstream(path).rdbuf();
  EXPECT_EQ(written.str(), report.ToJson());
  std::remove(path.c_str());
  EXPECT_EQ(report.Finish(""), 1);
  BenchReport passing("m", 0, "x");
  passing.Gate("a", true).Gate("b", true);
  EXPECT_EQ(passing.Finish(""), 0);
  // A missing headline renders as null, never as a made-up number.
  EXPECT_NE(BenchReport("m", NAN, "us").ToJson().find("\"value\": null,"),
            std::string::npos);
}

TEST(MedianOfNTest, KeepsTheWholeMedianRunForOddAndEvenCounts) {
  // Each run is (key, tag): the tag proves the whole run is returned, not just a key.
  auto median = [](std::vector<std::pair<double, int>> runs) {
    size_t next = 0;
    return MedianOfN(
        static_cast<int>(runs.size()), [&] { return runs[next++]; },
        [](const std::pair<double, int>& run) { return run.first; });
  };
  EXPECT_EQ(median({{30, 1}, {10, 2}, {20, 3}}).second, 3);
  // Even counts keep sorted[n/2], the upper median.
  EXPECT_EQ(median({{40, 1}, {10, 2}, {30, 3}, {20, 4}}).second, 3);
  EXPECT_EQ(median({{7, 9}}).second, 9);
}

TEST(LiveConfigTest, ParsesTheConfigTableAndRejectsUnknownNames) {
  std::optional<LiveConfig> zygos = ParseLiveConfig("zygos");
  ASSERT_TRUE(zygos.has_value());
  EXPECT_TRUE(zygos->stealing);
  EXPECT_FALSE(ParseLiveConfig("zygos-turbo").has_value());
  // The deleted live doorbell and partitioned configs are rejected like any unknown
  // name; "no-steal" is the one ablation.
  EXPECT_FALSE(ParseLiveConfig("no-ipi").has_value());
  EXPECT_FALSE(ParseLiveConfig("partitioned").has_value());
  EXPECT_FALSE(ParseLiveConfigs("zygos,no-ipi").has_value());

  std::optional<std::vector<LiveConfig>> configs = ParseLiveConfigs("zygos,no-steal");
  ASSERT_TRUE(configs.has_value());
  ASSERT_EQ(configs->size(), 2u);
  EXPECT_EQ((*configs)[1].name, "no-steal");
  EXPECT_FALSE((*configs)[1].stealing);
  EXPECT_FALSE(ParseLiveConfigs("zygos,bogus").has_value());
  EXPECT_FALSE(ParseLiveConfigs("").has_value());

  std::optional<LiveTransport> uring = ParseLiveTransport("uring");
  ASSERT_TRUE(uring.has_value());
  EXPECT_TRUE(uring->uring);
  ASSERT_TRUE(ParseLiveTransport("tcp").has_value());
  EXPECT_FALSE(ParseLiveTransport("tcp")->uring);
  // The deleted in-process transport and io_uring feature-ladder names are rejected
  // like any unknown name.
  EXPECT_FALSE(ParseLiveTransport("loopback").has_value());
  EXPECT_FALSE(ParseLiveTransport("uring+ms").has_value());
  EXPECT_FALSE(ParseLiveTransport("uring+ms+sqp").has_value());
  EXPECT_FALSE(ParseLiveTransport("uring+ms+sqp+zc").has_value());
}

// One low-rate TCP cell through the shared runner. Functional assertions only
// (tests/README.md): the run's ledger balances and something was measured — never
// how fast.
LiveSweep LowRateSweep() {
  LiveSweep sweep;
  sweep.workers = 2;
  sweep.connections = 4;
  sweep.threads = 1;
  sweep.duration = 300 * kMillisecond;
  sweep.warmup = 50 * kMillisecond;
  return sweep;
}

TEST(RunLiveCellTest, TcpCellLedgerBalances) {
  LiveCellResult cell = RunSweepCell(LowRateSweep(), *ParseLiveTransport("tcp"),
                                     *ParseLiveConfig("zygos"), 500, EchoHandler());
  const TcpLoadgenResult& tcp = cell.tcp;
  EXPECT_GT(tcp.sent, 0u);
  EXPECT_EQ(tcp.completed + tcp.shed + tcp.lost, tcp.sent);
  EXPECT_EQ(cell.point.sent, tcp.sent);
  EXPECT_GT(cell.point.measured, 0u);
  EXPECT_GE(cell.runtime_completed, tcp.completed);
  EXPECT_GT(cell.point.syscalls_per_req, 0.0) << "epoll serves no request syscall-free";
}

RuntimeOptions SmallCellOptions() {
  RuntimeOptions options;
  options.num_workers = 2;
  options.num_flows = 4;
  return options;
}

// A churn-shaped cell (churn_live_runtime): a warmup run and a measured run on one
// server. Each run balances on its own, and the runtime served both.
TEST(RunLiveCellTest, TwoLoadgenRunsOnOneServerBothBalance) {
  RuntimeOptions options = SmallCellOptions();
  options.max_flows = 8;
  TcpLoadgenResult warmup;
  LiveCellResult cell = RunLiveCell(
      options, *ParseLiveTransport("tcp"), EchoHandler(), /*skew=*/false,
      [&](Runtime&, SocketTransportBase& transport) {
        TcpLoadgenOptions gen = LiveLoadgenOptions(LowRateSweep(), transport.port(), 500);
        gen.churn_mean_lifetime = 50 * kMillisecond;
        warmup = RunTcpLoadgen(gen);
        gen.seed += 101;
        return RunTcpLoadgen(gen);
      });
  EXPECT_GT(warmup.sent, 0u);
  EXPECT_TRUE(warmup.Balanced());
  EXPECT_GT(cell.tcp.sent, 0u);
  EXPECT_TRUE(cell.tcp.Balanced());
  EXPECT_EQ(cell.point.sent, cell.tcp.sent) << "the point must read the returned run";
  EXPECT_GE(cell.runtime_completed, warmup.completed + cell.tcp.completed);
}

// A cell whose drive puts a chaos proxy in front of the server (fanout_chaos): the
// ledger balances and the point's latencies are the proxied run's, every one at least
// the proxy's fixed response delay (an injected lower bound, tests/README.md).
TEST(RunLiveCellTest, ProxiedCellReportsTheProxiedRun) {
  LiveCellResult cell = RunLiveCell(
      SmallCellOptions(), *ParseLiveTransport("tcp"), EchoHandler(), /*skew=*/false,
      [](Runtime&, SocketTransportBase& transport) {
        ChaosProxyOptions chaos;
        chaos.upstream_port = transport.port();
        chaos.server_to_client = *ParseDelayModel("fixed:3000");
        chaos.seed = 5;
        ChaosProxy proxy(chaos);
        if (!proxy.Start()) {
          ADD_FAILURE() << "proxy failed to start";
          return TcpLoadgenResult{};
        }
        TcpLoadgenResult result =
            RunTcpLoadgen(LiveLoadgenOptions(LowRateSweep(), proxy.port(), 200));
        proxy.Stop();
        return result;
      });
  EXPECT_GT(cell.tcp.sent, 0u);
  EXPECT_TRUE(cell.tcp.Balanced());
  EXPECT_GT(cell.point.measured, 0u);
  EXPECT_EQ(cell.point.p99_us, ToMicros(cell.tcp.latency.P99()));
  EXPECT_GE(cell.point.p50_us, 3000.0) << "a response skipped the proxy's delay";
}

bool ParsesLiveFlags(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("live")};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  LiveFlags live;
  return ParseLiveFlags(Flags(static_cast<int>(argv.size()), argv.data()), live);
}

TEST(LiveFlagsTest, RejectsANegativeWarmupAndAnEmptyWindow) {
  EXPECT_TRUE(ParsesLiveFlags({"--duration-ms=300", "--warmup-ms=100"}));
  EXPECT_TRUE(ParsesLiveFlags({"--warmup-ms=0"}));
  EXPECT_FALSE(ParsesLiveFlags({"--warmup-ms=-100"}));
  EXPECT_FALSE(ParsesLiveFlags({"--duration-ms=200", "--warmup-ms=200"}));
  EXPECT_FALSE(ParsesLiveFlags({"--duration-ms=200", "--warmup-ms=500"}));
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

TEST(LiveReportTest, HeadlineIsTheFirstTransportsPeakWhateverFollowsIt) {
  // The first transport is the calibration transport; the value must not depend on
  // the order of the transports swept after it.
  std::vector<LivePoint> tcp = {PointT("zygos", "tcp", 100, 10),
                                PointT("zygos", "tcp", 200, 30)};
  std::vector<LivePoint> uring = {PointT("zygos", "uring", 100, 8),
                                  PointT("zygos", "uring", 200, 25)};
  std::vector<LivePoint> loopback = {PointT("zygos", "loopback", 100, 900),
                                     PointT("zygos", "loopback", 200, 4000)};
  std::vector<LivePoint> order_a = tcp, order_b = tcp;
  order_a.insert(order_a.end(), uring.begin(), uring.end());
  order_a.insert(order_a.end(), loopback.begin(), loopback.end());
  order_b.insert(order_b.end(), loopback.begin(), loopback.end());
  order_b.insert(order_b.end(), uring.begin(), uring.end());
  LiveSweep sweep;
  BenchReport a = LiveSweepReport("m", sweep, order_a);
  BenchReport b = LiveSweepReport("m", sweep, order_b);
  EXPECT_EQ(a.value(), 30);
  EXPECT_EQ(b.value(), a.value());
  EXPECT_NE(b.ToJson().find("\"headline_transport\": \"tcp\""), std::string::npos);
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
