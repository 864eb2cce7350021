// Cross-module integration tests: the real applications (KV store, Silo/TPC-C) served
// through the real-thread ZygOS runtime (the KV store also over a real TCP socket and
// the open-loop generator), and the pipelined-workload plumbing of the system models.
// These exercise the same compositions the examples and the paper's evaluation use,
// with functional assertions.
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/distribution.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_txns.h"
#include "src/kvstore/service.h"
#include "src/kvstore/workload.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"
#include "src/sysmodel/system_model.h"

namespace zygos {
namespace {

// --- KV store over the runtime (the Fig. 9 application, served for real) --------------

TEST(KvOverRuntimeTest, ServesGetsAndSetsThroughTheScheduler) {
  KvService service;
  KvWorkloadSpec spec = KvWorkloadSpec::Usr();
  spec.num_keys = 2000;
  KvWorkload workload(spec, /*seed=*/3);
  workload.Populate(service);

  std::atomic<uint64_t> hits{0};
  ViewHandler handler = [&service, &hits](uint64_t, std::string_view request,
                                          ResponseBuilder& response) {
    if (service.HandleView(request, response) == KvStatus::kOk) {
      hits.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::mutex mutex;
  std::map<uint64_t, std::string> responses;
  CompletionHandler on_complete = [&](uint64_t, uint64_t request_id,
                                      std::string_view response, Nanos, bool) {
    std::lock_guard<std::mutex> guard(mutex);
    responses[request_id] = std::string(response);
  };

  RuntimeOptions options;
  options.num_workers = 3;
  options.num_flows = 16;
  Runtime runtime(options, handler, on_complete);
  runtime.Start();

  // Interleave GETs of known keys with SETs of new ones.
  constexpr uint64_t kOps = 1000;
  for (uint64_t i = 0; i < kOps; ++i) {
    std::string payload;
    if (i % 4 == 3) {
      payload = EncodeKvRequest({KvOp::kSet, "fresh-" + std::to_string(i), "v"});
    } else {
      payload = EncodeKvRequest({KvOp::kGet, workload.KeyAt(i % spec.num_keys), ""});
    }
    ASSERT_TRUE(runtime.Inject(i % 16, i, payload));
  }
  runtime.Shutdown();

  EXPECT_EQ(runtime.Completed(), kOps);
  // Every GET of a populated key hit; every SET acknowledged OK.
  EXPECT_EQ(hits.load(), kOps);
  std::lock_guard<std::mutex> guard(mutex);
  ASSERT_EQ(responses.size(), kOps);
  auto sample = DecodeKvResponse(responses[0]);
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->status, KvStatus::kOk);
  EXPECT_FALSE(sample->value.empty());
}

// The KV service over a real TCP socket, driven by the open-loop generator with the
// USR payload factory: kv_server's demo path. Both ledgers must balance: the
// generator's (completed + shed + lost == sent) and the server's (every completion the
// runtime retired is a hit or a miss). Functional assertions only, never rates.
TEST(KvOverRuntimeTest, OpenLoopUsrLoadOverTcpBalancesBothLedgers) {
  KvService service;
  KvWorkloadSpec spec = KvWorkloadSpec::Usr();
  spec.num_keys = 2000;
  KvWorkload(spec, /*seed=*/5).Populate(service);

  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  ViewHandler handler = [&](uint64_t, std::string_view request,
                            ResponseBuilder& response) {
    if (service.HandleView(request, response) == KvStatus::kOk) {
      hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses.fetch_add(1, std::memory_order_relaxed);
    }
  };
  RuntimeOptions options;
  options.num_workers = 2;
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* tcp = transport.get();
  Runtime runtime(options, std::move(transport), std::move(handler));
  runtime.Start();

  TcpLoadgenOptions gen;
  gen.port = tcp->port();
  gen.connections = 4;
  gen.threads = 2;
  gen.rate_rps = 4000;
  gen.duration = 400 * kMillisecond;
  gen.warmup = 100 * kMillisecond;
  gen.seed = 11;
  gen.make_payload = [workload = KvWorkload(spec, gen.seed)](Rng& rng,
                                                             std::string& out) {
    out = workload.SampleRequest(rng);
  };
  TcpLoadgenResult result = RunTcpLoadgen(gen);
  runtime.Shutdown();

  EXPECT_TRUE(result.clean) << "lost=" << result.lost;
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_GT(result.sent, 0u);
  EXPECT_TRUE(result.Balanced()) << "sent=" << result.sent
                                 << " completed=" << result.completed
                                 << " shed=" << result.shed << " lost=" << result.lost;
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(hits.load() + misses.load(), runtime.Completed());
}

// --- Silo/TPC-C over the runtime (the §6.3 application, served for real) --------------

TEST(TpccOverRuntimeTest, RunsTheMixAndPreservesConsistency) {
  Database db;
  LoaderOptions loader_options = LoaderOptions::Tiny(1);
  TpccTables tables = LoadTpcc(db, loader_options);
  TpccWorkload workload(db, tables, loader_options);

  std::atomic<uint64_t> committed{0};
  ViewHandler handler = [&](uint64_t, std::string_view request, ResponseBuilder& response) {
    static thread_local TxnExecutor executor(db);
    static thread_local TpccRandom random(
        0x515u ^ std::hash<std::thread::id>{}(std::this_thread::get_id()));
    auto type = static_cast<TpccTxnType>(request.empty() ? 0 : request[0] % kTpccTxnTypes);
    if (workload.Run(type, executor, random) == TxnStatus::kCommitted) {
      committed.fetch_add(1, std::memory_order_relaxed);
      response.Append("ok");
      return;
    }
    response.Append("rollback");
  };

  RuntimeOptions options;
  options.num_workers = 3;
  options.num_flows = 8;
  Runtime runtime(options, handler, nullptr);
  runtime.Start();

  TpccRandom mix(41);
  constexpr uint64_t kTxns = 600;
  for (uint64_t i = 0; i < kTxns; ++i) {
    std::string payload(1, static_cast<char>(workload.SampleType(mix)));
    ASSERT_TRUE(runtime.Inject(i % 8, i, payload));
  }
  runtime.Shutdown();

  EXPECT_EQ(runtime.Completed(), kTxns);
  EXPECT_GT(committed.load(), kTxns * 9 / 10);  // only NewOrder's 1% rolls back

  // TPC-C consistency condition 1 after fully concurrent execution through the
  // scheduler: w_ytd = Σ d_ytd, exactly (integer cents), read from the counters'
  // own records.
  Transaction txn(db);
  auto warehouse_raw = txn.Read(tables.warehouse_ytd, WarehouseKey(1));
  ASSERT_TRUE(warehouse_raw.has_value());
  auto warehouse = DecodeRow<WarehouseYtdRow>(*warehouse_raw);
  int64_t district_ytd = 0;
  for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
    auto district_raw = txn.Read(tables.district_ytd, DistrictKey(1, d));
    ASSERT_TRUE(district_raw.has_value());
    district_ytd += DecodeRow<DistrictYtdRow>(*district_raw).d_ytd_cents;
  }
  txn.Abort();
  EXPECT_EQ(warehouse.w_ytd_cents, district_ytd);
}

// --- Pipelined workload plumbing in the system models ----------------------------------

TEST(PipelineWorkloadTest, AggregateRequestRateIsPreservedAcrossDepths) {
  // Offered request rate must not depend on pipeline depth (the event rate is scaled
  // down by the mean burst size). Compare achieved throughput at a sub-saturation load.
  DeterministicDistribution service(10 * kMicrosecond);
  std::array<double, 3> throughput{};
  int index = 0;
  for (int depth : {1, 2, 4}) {
    SystemRunParams params;
    params.load = 0.5;
    params.num_requests = 80'000;
    params.warmup = 8'000;
    params.seed = 5;
    params.pipeline_depth = depth;
    auto result = RunSystemModel(SystemKind::kZygos, params, service);
    throughput[static_cast<size_t>(index++)] = result.ThroughputRps();
  }
  // All within 5% of each other.
  EXPECT_NEAR(throughput[1] / throughput[0], 1.0, 0.05);
  EXPECT_NEAR(throughput[2] / throughput[0], 1.0, 0.05);
}

TEST(PipelineWorkloadTest, EveryBurstRequestCompletes) {
  ExponentialDistribution service(5 * kMicrosecond);
  SystemRunParams params;
  params.load = 0.6;
  params.num_requests = 50'000;
  params.warmup = 5'000;
  params.seed = 9;
  params.pipeline_depth = 4;
  auto result = RunSystemModel(SystemKind::kZygos, params, service);
  // completed counts post-warmup requests; every executed event produced exactly one
  // completion, so totals reconcile: executed == completed + warmup.
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.completed + params.warmup, result.app_events);
}

TEST(PipelineWorkloadTest, PipeliningRaisesTheTailAtModerateLoad) {
  // The Fig. 9 effect, tail side: pipelined same-flow bursts ride one exclusive
  // ownership grab ("implicit batching"), which reorders service across flows and
  // lifts the p99 relative to unpipelined traffic at the same request rate.
  DeterministicDistribution service(10 * kMicrosecond);
  auto run = [&service](int depth) {
    SystemRunParams params;
    params.load = 0.5;
    params.num_requests = 120'000;
    params.warmup = 12'000;
    params.seed = 13;
    params.pipeline_depth = depth;
    return RunSystemModel(SystemKind::kZygos, params, service).latency.P99();
  };
  // Measured: ~27 us unpipelined vs ~73 us with 4-deep bursts at this point; assert a
  // comfortable margin of the effect.
  EXPECT_GT(run(4), run(1) * 3 / 2);
}

TEST(PipelineWorkloadTest, VictimRandomizationFlagIsHonored) {
  // Functional check only: both settings complete the workload (the latency effect is
  // the ablation bench's subject).
  ExponentialDistribution service(10 * kMicrosecond);
  for (bool randomize : {true, false}) {
    SystemRunParams params;
    params.load = 0.7;
    params.num_requests = 30'000;
    params.warmup = 3'000;
    params.seed = 15;
    params.randomize_steal_victims = randomize;
    auto result = RunSystemModel(SystemKind::kZygos, params, service);
    EXPECT_GT(result.completed, 0u);
    EXPECT_GT(result.steals, 0u);
  }
}

}  // namespace
}  // namespace zygos
