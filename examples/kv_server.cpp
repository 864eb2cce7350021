// memcached-style KV service on the ZygOS runtime, served over real TCP sockets.
//
// The runtime serves on either socket backend (`--transport`): the epoll-based
// TcpTransport (src/runtime/tcp_transport.h, the default) or the batched io_uring
// UringTransport (src/runtime/uring_transport.h; requires kernel support — the binary
// exits with a clear message when the io_uring_setup probe fails). Either way: one
// listener, connections hashed to home cores through the RSS indirection table, frames
// reassembled on the home core, responses sent home-core-only. The binary protocol is
// src/kvstore/protocol.h carried inside the length-prefixed RPC frames of
// src/net/message.h — any machine that speaks those ~20 bytes of framing can load this
// server.
//
// Modes:
//   --mode=demo    (default) both halves in one process: serve on an ephemeral port,
//                  drive it with the loadgen below, print both sides and check the
//                  client and server ledgers.
//   --mode=serve   serve on --port until SIGINT/SIGTERM (for an external client).
//   --mode=loadgen drive an external server with the open-loop Poisson generator
//                  (src/loadgen/tcp_loadgen.h) at a fixed offered --rate: the
//                  coordinated-omission-safe latency measurement (tail latencies are
//                  measured from each request's *scheduled* send time).
//
// Common flags:  [--workload=usr|etc] [--keys=50000] [--seed=N]
// Server-side:   [--workers=4] [--transport=tcp|uring] [--max-flows=N]
// Loadgen-side:  [--host=H] [--port=P] [--connections=16] [--threads=4]
//                [--rate=20000] [--duration-ms=2000] [--warmup-ms=500]
//                [--arrivals=poisson|fixed] [--churn-ms=N]  (churn: mean connection
//                lifetime; expired connections reconnect with a fresh socket)
// Example:       kv_server --mode=serve --port=7117 &
//                kv_server --mode=loadgen --port=7117 --rate=30000 --duration-ms=5000
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/kvstore/service.h"
#include "src/kvstore/workload.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/runtime/client.h"
#include "src/runtime/runtime.h"
#include "src/runtime/socket_transport.h"

namespace zygos {
namespace {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

struct Server {
  KvService service;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::unique_ptr<Runtime> runtime;
  SocketTransportBase* transport = nullptr;  // owned by the runtime
  std::string transport_name;
  LatencyCollector server_latency;  // arrival at the transport -> TX
};

std::unique_ptr<Server> StartServer(int workers, size_t max_flows,
                                    const KvWorkloadSpec& spec, uint16_t port,
                                    const LiveTransport& transport_kind) {
  auto server = std::make_unique<Server>();
  KvWorkload workload(spec, /*seed=*/5);
  std::printf("kv_server: populating %llu keys (%s workload)...\n",
              static_cast<unsigned long long>(spec.num_keys), spec.Name());
  workload.Populate(server->service);

  // Zero-copy fast path: the request is a view into pooled RX memory, the response
  // is written straight into the pooled TX frame, and the returned status feeds the
  // hit counters without re-decoding the response.
  ViewHandler handler = [srv = server.get()](uint64_t, std::string_view request,
                                             ResponseBuilder& response) {
    KvStatus status = srv->service.HandleView(request, response);
    if (status == KvStatus::kOk) {
      srv->hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      srv->misses.fetch_add(1, std::memory_order_relaxed);
    }
  };

  RuntimeOptions options;
  options.num_workers = workers;
  // Flow ids are recycled when a connection closes, so the table bounds *concurrent*
  // connections only — lifetime connections are unbounded under churn.
  options.max_flows = max_flows;
  // Single source of truth: the transport's geometry (including its flow-id cap) is
  // derived from the runtime options, so the two can never drift apart.
  TcpTransportOptions tcp = TcpOptionsFor(options, port);
  std::unique_ptr<SocketTransportBase> transport = MakeLiveTransport(transport_kind, tcp);
  server->transport = transport.get();
  server->transport_name = transport_kind.name;
  transport->set_on_complete(server->server_latency.Handler());
  server->runtime = std::make_unique<Runtime>(options, std::move(transport), handler);
  server->runtime->Start();
  std::printf("kv_server: %d workers listening on %s:%u (%s transport)\n",
              options.num_workers, tcp.bind_address.c_str(),
              server->transport->port(), transport_kind.name.c_str());
  return server;
}

void PrintServerStats(Server& server) {
  WorkerStats stats = server.runtime->TotalStats();
  ShuffleStats shuffle = server.runtime->TotalShuffleStats();
  LatencyHistogram latency = server.server_latency.Snapshot();
  std::printf("server: %llu connections  %llu messages  hits %llu  misses %llu  "
              "tx drops %llu\n",
              static_cast<unsigned long long>(server.transport->AcceptedConnections()),
              static_cast<unsigned long long>(server.runtime->Completed()),
              static_cast<unsigned long long>(server.hits.load()),
              static_cast<unsigned long long>(server.misses.load()),
              static_cast<unsigned long long>(server.runtime->NicDrops()));
  std::printf("server: in-server latency p50 %.1f us  p99 %.1f us (recv->tx)\n",
              ToMicros(latency.P50()), ToMicros(latency.P99()));
  std::printf("scheduler: %llu events (%llu stolen), %llu steals, %llu remote "
              "syscalls, %llu rx batches/%llu segments\n",
              static_cast<unsigned long long>(stats.app_events),
              static_cast<unsigned long long>(stats.stolen_events),
              static_cast<unsigned long long>(shuffle.steals),
              static_cast<unsigned long long>(stats.remote_syscalls),
              static_cast<unsigned long long>(stats.rx_batches),
              static_cast<unsigned long long>(stats.rx_segments));
  std::printf("data plane: %llu pooled allocs, %llu heap misses, %llu cross-core "
              "frees (worker pools)\n",
              static_cast<unsigned long long>(stats.pool_hits),
              static_cast<unsigned long long>(stats.pool_misses),
              static_cast<unsigned long long>(stats.pool_remote_frees));
  uint64_t completed = server.runtime->Completed();
  uint64_t io_syscalls = server.transport->IoSyscalls();
  std::printf("data plane: %llu io syscalls, %.3f per request (%s transport)\n",
              static_cast<unsigned long long>(io_syscalls),
              completed > 0 ? static_cast<double>(io_syscalls) /
                                  static_cast<double>(completed)
                            : 0.0,
              server.transport_name.c_str());
  std::printf("lifecycle: %llu flows opened, %llu closed, %llu slots recycled, "
              "%llu open now (peak %llu of %zu), %llu capacity refusals, "
              "%llu stall drops\n",
              static_cast<unsigned long long>(stats.flows_opened),
              static_cast<unsigned long long>(stats.flows_closed),
              static_cast<unsigned long long>(stats.flows_recycled),
              static_cast<unsigned long long>(server.runtime->OpenFlows()),
              static_cast<unsigned long long>(server.runtime->PeakOpenFlows()),
              ResolvedMaxFlows(server.runtime->options()),
              static_cast<unsigned long long>(server.transport->CapacityRefusals()),
              static_cast<unsigned long long>(server.transport->StallDrops()));
  std::printf("store size: %zu keys\n", server.service.table().Size());
}

// The server half's books after Shutdown: prints the server stats. True when every
// completion the runtime retired was answered by the store (hit or miss) or shed.
bool CheckServerLedger(Server& server) {
  PrintServerStats(server);
  WorkerStats stats = server.runtime->TotalStats();
  uint64_t answered = server.hits.load() + server.misses.load();
  uint64_t shed = stats.sheds_deadline;
  std::printf("ledger: answered %llu + shed %llu of %llu completed\n",
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(server.runtime->Completed()));
  return answered + shed == server.runtime->Completed();
}

// The client half: runs the open-loop KV loadgen and prints its result. True when
// the run was clean and its ledger balanced (completed + shed + lost == sent).
bool RunLoadgen(const TcpLoadgenOptions& gen) {
  std::printf("kv_server: open-loop %s load, %.0f rps offered, %d connections, "
              "%.0f ms window (%.0f ms warmup), churn mean lifetime %.0f ms\n",
              ArrivalKindName(gen.arrivals), gen.rate_rps, gen.connections,
              static_cast<double>(gen.duration) / 1e6,
              static_cast<double>(gen.warmup) / 1e6,
              static_cast<double>(gen.churn_mean_lifetime) / 1e6);
  TcpLoadgenResult result = RunTcpLoadgen(gen);
  std::printf("loadgen: sent %llu  completed %llu  measured %llu  shed %llu  "
              "lost %llu  mismatches %llu  reconnects %llu  max send lag %.1f us\n",
              static_cast<unsigned long long>(result.sent),
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.measured),
              static_cast<unsigned long long>(result.shed),
              static_cast<unsigned long long>(result.lost),
              static_cast<unsigned long long>(result.mismatches),
              static_cast<unsigned long long>(result.reconnects),
              ToMicros(result.max_send_lag));
  std::printf("loadgen: achieved %.0f rps  latency p50 %.1f us  p99 %.1f us  "
              "p999 %.1f us (scheduled-send -> response, CO-safe)\n",
              result.achieved_rps(), ToMicros(result.latency.P50()),
              ToMicros(result.latency.P99()), ToMicros(result.latency.P999()));
  if (!result.Balanced()) {
    std::printf("loadgen: LEDGER IMBALANCE (completed+shed+lost != sent)\n");
  }
  return result.clean && result.Balanced();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string mode = flags.GetString("mode", "demo");
  KvWorkloadSpec spec = flags.GetString("workload", "usr") == "etc"
                            ? KvWorkloadSpec::Etc()
                            : KvWorkloadSpec::Usr();
  spec.num_keys = static_cast<uint64_t>(flags.GetInt("keys", 50'000));

  // Server-side knobs (read unconditionally so CheckUnknown knows every flag).
  const std::string transport_name = flags.GetString("transport", "tcp");
  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  // Concurrent-connection cap (ids are recycled, so churn no longer needs headroom).
  const auto max_flows = static_cast<size_t>(flags.GetInt("max-flows", 1 << 12));
  const auto port =
      static_cast<uint16_t>(flags.GetInt("port", mode == "demo" ? 0 : 7117));
  // Loadgen knobs (loadgen and demo modes).
  TcpLoadgenOptions gen;
  gen.host = flags.GetString("host", "127.0.0.1");
  gen.port = port;
  gen.connections = static_cast<int>(flags.GetInt("connections", 16));
  gen.threads = static_cast<int>(flags.GetInt("threads", 4));
  gen.rate_rps = flags.GetDouble("rate", 20'000);
  gen.duration = flags.GetInt("duration-ms", 2000) * kMillisecond;
  gen.warmup = flags.GetInt("warmup-ms", 500) * kMillisecond;
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  // Connection churn: mean per-connection lifetime; 0 = connections live for the
  // whole run. Expired connections reconnect with a fresh socket.
  gen.churn_mean_lifetime = flags.GetInt("churn-ms", 0) * kMillisecond;
  gen.make_payload = [workload = KvWorkload(spec, gen.seed)](Rng& rng,
                                                             std::string& out) {
    out = workload.SampleRequest(rng);
  };
  const std::string arrivals_name = flags.GetString("arrivals", "poisson");
  const char* usage =
      "usage: kv_server [--mode=demo|serve|loadgen] [--workload=usr|etc]\n"
      "  [--keys=N] [--workers=N] [--max-flows=N] [--transport=tcp|uring]\n"
      "  [--host=H] [--port=P] [--connections=N] [--threads=N] [--seed=N]\n"
      "  [--rate=RPS] [--duration-ms=N] [--warmup-ms=N] [--churn-ms=N]\n"
      "  [--arrivals=poisson|fixed]";
  auto usage_error = [usage](const std::string& problem) {
    std::fprintf(stderr, "kv_server: %s\n%s\n", problem.c_str(), usage);
    return 2;
  };
  if (!flags.CheckUnknown(usage)) {
    return 2;
  }
  if (mode != "demo" && mode != "serve" && mode != "loadgen") {
    return usage_error("unknown --mode=" + mode);
  }
  auto arrivals = ParseArrivalKind(arrivals_name);
  if (!arrivals) {
    return usage_error("unknown --arrivals=" + arrivals_name);
  }
  gen.arrivals = *arrivals;
  if (gen.connections < 1 || gen.threads < 1) {
    return usage_error("--connections and --threads must be positive");
  }
  if (!CheckMeasurementWindow("kv_server", usage, gen.duration, gen.warmup)) {
    return 2;
  }
  const std::optional<LiveTransport> transport = ParseLiveTransport(transport_name);
  if (!transport) {
    return usage_error("unknown --transport=" + transport_name);
  }
  if (const std::string denied = TransportDenied(*transport); !denied.empty()) {
    // Graceful capability fallback: fail before binding anything, with the probe's
    // reason, so harnesses can `--transport=uring || skip`.
    std::fprintf(stderr, "kv_server: --transport=%s: %s\n", transport_name.c_str(),
                 denied.c_str());
    return 1;
  }

  if (mode == "loadgen") {
    return RunLoadgen(gen) ? 0 : 1;
  }

  auto server = StartServer(workers, max_flows, spec, port, *transport);

  if (mode == "serve") {
    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
    std::printf("kv_server: serving until SIGINT/SIGTERM\n");
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("kv_server: signal %d, shutting down\n", static_cast<int>(g_signal));
    server->runtime->Shutdown();
    CheckServerLedger(*server);
    return 0;
  }

  // demo: the loadgen above against the server above, in one process.
  gen.port = server->transport->port();
  const bool client_ok = RunLoadgen(gen);
  server->runtime->Shutdown();
  const bool server_ok = CheckServerLedger(*server);
  if (!server_ok) {
    std::printf("kv_server: LEDGER IMBALANCE (hits+misses+shed != completed)\n");
  }
  return client_ok && server_ok ? 0 : 1;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
