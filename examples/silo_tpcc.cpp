// Networked Silo running TPC-C on the ZygOS runtime — the paper's §6.3 application,
// now a real wire service (src/services/tpcc_service.h).
//
// Each RPC carries one complete transaction request from the TPC-C mix — type plus
// every terminal input, encoded by the client (src/loadgen/tpcc_gen.h) — and the
// handler executes it against the shared OCC engine on whichever core claimed the
// connection (stolen or home). This is exactly the paper's port: "We replaced the main
// loop of Silo with an event loop... Each remote procedure call generates one
// transaction from the TPC-C mix."
//
// Modes:
//   --mode=demo    (default) loopback runtime in process, open-loop TPC-C load, print
//                  the service ledger, mix, and CO-safe latency.
//   --mode=serve   serve on --port over real TCP until SIGINT/SIGTERM.
//   --mode=loadgen drive an external server with the open-loop TCP generator; the
//                  request stream is a pure function of --seed.
//
// The client and server must agree on the data scale (--warehouses/--scale): sampled
// ids land inside the loaded tables. A mismatch is safe — out-of-scale inputs abort
// cleanly — but inflates the abort rate.
//
// Common flags:  [--workers=4] [--warehouses=1] [--scale=full|tiny] [--seed=N]
// Server-side:   [--transport=tcp|uring] [--port=P] [--max-flows=N]
// Loadgen-side:  [--host=H] [--port=P] [--connections=16] [--threads=4]
//                [--rate=8000] [--duration-ms=2000] [--warmup-ms=500]
//                [--arrivals=poisson|fixed]
// Example:       silo_tpcc --mode=serve --scale=tiny --port=7119 &
//                silo_tpcc --mode=loadgen --scale=tiny --port=7119 --rate=10000
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_txns.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/loadgen.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/loadgen/tpcc_gen.h"
#include "src/runtime/client.h"
#include "src/runtime/runtime.h"
#include "src/runtime/socket_transport.h"
#include "src/runtime/tcp_transport.h"
#include "src/runtime/uring_transport.h"
#include "src/services/tpcc_service.h"

namespace zygos {
namespace {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

void PrintServiceStats(const TpccService& service) {
  std::printf("service: %llu committed  %llu user aborts  %llu malformed  "
              "%llu occ retries absorbed\n",
              static_cast<unsigned long long>(service.commits()),
              static_cast<unsigned long long>(service.user_aborts()),
              static_cast<unsigned long long>(service.malformed()),
              static_cast<unsigned long long>(service.occ_retries()));
  for (int t = 0; t < kTpccTxnTypes; ++t) {
    auto type = static_cast<TpccTxnType>(t);
    std::printf("  %-12s %llu commits\n", TpccTxnTypeName(type),
                static_cast<unsigned long long>(service.commits_of(type)));
  }
}

void PrintRuntimeStats(Runtime& runtime) {
  WorkerStats stats = runtime.TotalStats();
  ShuffleStats shuffle = runtime.TotalShuffleStats();
  std::printf("scheduler: %llu events (%llu stolen), %llu steals, %llu remote "
              "syscalls\n",
              static_cast<unsigned long long>(stats.app_events),
              static_cast<unsigned long long>(stats.stolen_events),
              static_cast<unsigned long long>(shuffle.steals),
              static_cast<unsigned long long>(stats.remote_syscalls));
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string mode = flags.GetString("mode", "demo");

  LoaderOptions scale;
  scale.num_warehouses = static_cast<int>(flags.GetInt("warehouses", 1));
  if (flags.GetString("scale", "full") == "tiny") {
    scale = LoaderOptions::Tiny(scale.num_warehouses);
  }

  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  const std::string transport_name = flags.GetString("transport", "tcp");
  const std::string host = flags.GetString("host", "127.0.0.1");
  const auto port =
      static_cast<uint16_t>(flags.GetInt("port", mode == "loadgen" ? 7119 : 0));
  const auto max_flows = static_cast<size_t>(flags.GetInt("max-flows", 1 << 12));
  const int connections = static_cast<int>(flags.GetInt("connections", 16));
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const double rate = flags.GetDouble("rate", 8'000);
  const Nanos duration = flags.GetInt("duration-ms", 2000) * kMillisecond;
  const Nanos warmup = flags.GetInt("warmup-ms", 500) * kMillisecond;
  const std::string arrivals_name = flags.GetString("arrivals", "poisson");
  if (!flags.CheckUnknown(
          "usage: silo_tpcc [--mode=demo|serve|loadgen] [--workers=N]\n"
          "  [--warehouses=N] [--scale=full|tiny] [--seed=N] [--transport=tcp|uring]\n"
          "  [--host=H] [--port=P] [--max-flows=N] [--connections=N] [--threads=N]\n"
          "  [--rate=RPS] [--duration-ms=N] [--warmup-ms=N] "
          "[--arrivals=poisson|fixed]")) {
    return 2;
  }
  if (mode != "demo" && mode != "serve" && mode != "loadgen") {
    std::fprintf(stderr, "silo_tpcc: unknown --mode=%s (expected demo|serve|loadgen)\n",
                 mode.c_str());
    return 2;
  }
  auto arrivals = ParseArrivalKind(arrivals_name);
  if (!arrivals) {
    std::fprintf(stderr, "silo_tpcc: unknown --arrivals=%s (poisson|fixed)\n",
                 arrivals_name.c_str());
    return 2;
  }
  if (transport_name != "tcp" && transport_name != "uring") {
    std::fprintf(stderr, "silo_tpcc: unknown --transport=%s (expected tcp|uring)\n",
                 transport_name.c_str());
    return 2;
  }
  if (transport_name == "uring" && !UringTransport::Available()) {
    std::fprintf(stderr,
                 "silo_tpcc: --transport=uring requested but io_uring is unavailable "
                 "on this host: %s\n",
                 UringTransport::UnavailableReason().c_str());
    return 1;
  }

  if (mode == "loadgen") {
    TcpLoadgenOptions gen;
    gen.host = host;
    gen.port = port;
    gen.connections = connections;
    gen.threads = threads;
    gen.arrivals = *arrivals;
    gen.rate_rps = rate;
    gen.duration = duration;
    gen.warmup = warmup;
    gen.seed = seed;
    gen.make_payload = MakeTpccPayloadFactory(scale);
    std::printf("silo_tpcc: open-loop %s TPC-C mix, %.0f rps offered, "
                "%d connections, %.0f ms window (%.0f ms warmup)\n",
                ArrivalKindName(gen.arrivals), gen.rate_rps, gen.connections,
                static_cast<double>(gen.duration) / 1e6,
                static_cast<double>(gen.warmup) / 1e6);
    TcpLoadgenResult result = RunTcpLoadgen(gen);
    std::printf("loadgen: sent %llu  completed %llu  measured %llu  shed %llu  "
                "lost %llu  mismatches %llu  max send lag %.1f us\n",
                static_cast<unsigned long long>(result.sent),
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.measured),
                static_cast<unsigned long long>(result.shed),
                static_cast<unsigned long long>(result.lost),
                static_cast<unsigned long long>(result.mismatches),
                ToMicros(result.max_send_lag));
    std::printf("loadgen: achieved %.0f rps  latency p50 %.1f us  p99 %.1f us  "
                "p999 %.1f us (scheduled-send -> response, CO-safe)\n",
                result.achieved_rps(), ToMicros(result.latency.P50()),
                ToMicros(result.latency.P99()), ToMicros(result.latency.P999()));
    // Open-loop ledger: every scheduled request is accounted for.
    bool balanced = result.completed + result.shed + result.lost == result.sent;
    if (!balanced) {
      std::printf("loadgen: LEDGER IMBALANCE (completed+shed+lost != sent)\n");
    }
    return result.clean && balanced ? 0 : 1;
  }

  std::printf("silo_tpcc: loading %d warehouse(s) (%s scale)...\n",
              scale.num_warehouses,
              scale.items == kTpccItems ? "full" : "reduced");
  Database db;
  TpccTables tables = LoadTpcc(db, scale);
  TpccService service(db, tables, scale);

  if (mode == "serve") {
    RuntimeOptions options;
    options.num_workers = workers;
    options.max_flows = max_flows;
    TcpTransportOptions tcp = TcpOptionsFor(options, port);
    std::unique_ptr<SocketTransportBase> transport;
    if (transport_name == "uring") {
      transport = std::make_unique<UringTransport>(tcp);
    } else {
      transport = std::make_unique<TcpTransport>(tcp);
    }
    SocketTransportBase* transport_ptr = transport.get();
    Runtime runtime(options, std::move(transport), service.Handler());
    runtime.Start();
    std::printf("silo_tpcc: %d workers serving TPC-C on %s:%u (%s transport)\n",
                options.num_workers, tcp.bind_address.c_str(), transport_ptr->port(),
                transport_name.c_str());
    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("silo_tpcc: signal %d, shutting down\n", static_cast<int>(g_signal));
    runtime.Shutdown();
    PrintServiceStats(service);
    PrintRuntimeStats(runtime);
    // Server-side ledger: every answered request committed, aborted, or bounced.
    uint64_t answered = service.commits() + service.user_aborts() + service.malformed();
    std::printf("ledger: answered %llu of %llu completed\n",
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(runtime.Completed()));
    return 0;
  }

  // demo: loopback runtime, open-loop generator, in process.
  RuntimeOptions options;
  options.num_workers = workers;
  options.num_flows = 64;
  MeasuredCompletion completion;
  Runtime runtime(options, service.Handler(), completion.Handler());
  runtime.Start();

  GeneratorOptions gen;
  gen.arrivals = *arrivals;
  gen.rate_rps = rate;
  gen.duration = duration;
  gen.num_flows = options.num_flows;
  gen.seed = seed;
  gen.make_payload = MakeTpccPayloadFactory(scale);
  Nanos start = NowNanos();
  completion.set_measure_start(start + warmup);
  OpenLoopGenerator generator(gen);
  LoopbackSink sink(runtime);
  std::printf("silo_tpcc: open-loop %s TPC-C mix at %.0f rps for %.0f ms...\n",
              ArrivalKindName(gen.arrivals), gen.rate_rps,
              static_cast<double>(gen.duration) / 1e6);
  GeneratorResult sent = generator.RunFrom(start, sink);
  while (runtime.Completed() < runtime.Injected()) {
    std::this_thread::yield();
  }
  runtime.Shutdown();

  LatencyHistogram latency = completion.Snapshot();
  std::printf("demo: sent %llu  dropped %llu  completed %llu  measured %llu\n",
              static_cast<unsigned long long>(sent.sent),
              static_cast<unsigned long long>(sent.dropped),
              static_cast<unsigned long long>(runtime.Completed()),
              static_cast<unsigned long long>(completion.measured_count()));
  std::printf("demo: latency p50 %.1f us  p99 %.1f us  p999 %.1f us "
              "(scheduled-send -> TX, CO-safe)\n",
              ToMicros(latency.P50()), ToMicros(latency.P99()),
              ToMicros(latency.P999()));
  PrintServiceStats(service);
  PrintRuntimeStats(runtime);
  uint64_t answered = service.commits() + service.user_aborts() + service.malformed();
  bool balanced = answered == runtime.Completed();
  if (!balanced) {
    std::printf("silo_tpcc: LEDGER IMBALANCE (commit+abort+malformed %llu != "
                "completed %llu)\n",
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(runtime.Completed()));
  }
  if (service.malformed() != 0) {
    std::printf("silo_tpcc: FAILED (%llu malformed requests from our own "
                "generator)\n",
                static_cast<unsigned long long>(service.malformed()));
    return 1;
  }
  return balanced ? 0 : 1;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
