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
//   --mode=demo    (default) start the server on a loopback ephemeral port, drive it
//                  with in-process TCP clients over real sockets, print both sides.
//   --mode=serve   serve on --port until SIGINT/SIGTERM (for an external client).
//   --mode=client  drive an external server at --host:--port and measure latency
//                  (closed-loop, pipelined: a throughput probe).
//   --mode=loadgen drive an external server with the open-loop Poisson generator
//                  (src/loadgen/tcp_loadgen.h) at a fixed offered --rate: the
//                  coordinated-omission-safe latency measurement (tail latencies are
//                  measured from each request's *scheduled* send time).
//
// Common flags:  [--workload=usr|etc] [--keys=50000] [--workers=4]
// Server-side:   [--transport=tcp|uring]
// Client-side:   [--connections=16] [--threads=4] [--requests=40000] [--pipeline=8]
// Loadgen-side:  [--rate=20000] [--duration-ms=2000] [--warmup-ms=500]
//                [--arrivals=poisson|fixed] [--churn-ms=N]  (churn: mean connection
//                lifetime; expired connections reconnect with a fresh socket)
// Example:       kv_server --mode=serve --port=7117 &
//                kv_server --mode=loadgen --port=7117 --rate=30000 --duration-ms=5000
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/kvstore/service.h"
#include "src/kvstore/workload.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/net/message.h"
#include "src/runtime/client.h"
#include "src/runtime/runtime.h"
#include "src/runtime/socket_transport.h"
#include "src/runtime/tcp_transport.h"
#include "src/runtime/uring_transport.h"

namespace zygos {
namespace {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

// ---------------------------------------------------------------------------
// Self-driving TCP client: closed-loop, pipelined, latency measured per request.
// ---------------------------------------------------------------------------

struct LoadConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 16;
  int threads = 4;
  uint64_t requests = 40'000;  // total across all connections
  int pipeline = 8;            // outstanding requests per connection
  uint64_t seed = 11;
  KvWorkloadSpec spec;
};

struct LoadTotals {
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> miss{0};
  std::atomic<uint64_t> error{0};
  std::atomic<uint64_t> order_violations{0};
  Nanos elapsed = 0;  // wall time of the whole closed-loop run
};

int ConnectTo(const std::string& host, uint16_t port) {
  // Resolve numeric addresses and hostnames alike (client mode invites DNS names).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &resolved);
  if (rc != 0) {
    std::fprintf(stderr, "kv_server: cannot resolve %s: %s\n", host.c_str(),
                 ::gai_strerror(rc));
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    std::fprintf(stderr, "kv_server: cannot connect to %s:%u: %s\n", host.c_str(),
                 static_cast<unsigned>(port), std::strerror(errno));
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t w = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
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

// One client connection: its socket, response reassembly state, and the FIFO of
// in-flight requests (per-connection ordering lets latency matching be a queue).
struct ClientConn {
  int fd = -1;
  FrameParser parser;
  std::deque<std::pair<uint64_t, Nanos>> in_flight;  // (request_id, send time)
  uint64_t next_id = 0;
  uint64_t quota = 0;  // requests this connection still has to send
};

// Runs `conns` connections from one thread until every quota is spent and every
// response arrived. Returns false on a connection failure.
bool DriveConnections(const LoadConfig& config, std::vector<ClientConn>& conns,
                      LatencyCollector& latency, LoadTotals& totals, Rng& rng) {
  KvWorkload workload(config.spec, config.seed);  // one generator per thread
  std::string frame;
  auto send_one = [&](ClientConn& conn) {
    frame.clear();
    EncodeMessage(conn.next_id, workload.SampleRequest(rng), frame);
    if (!SendAll(conn.fd, frame)) {
      return false;
    }
    conn.in_flight.emplace_back(conn.next_id, NowNanos());
    conn.next_id++;
    conn.quota--;
    totals.sent.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  // Prime every connection's pipeline.
  for (ClientConn& conn : conns) {
    for (int i = 0; i < config.pipeline && conn.quota > 0; ++i) {
      if (!send_one(conn)) {
        return false;
      }
    }
  }

  std::vector<pollfd> pfds(conns.size());
  std::string buffer(16 * 1024, '\0');
  while (true) {
    bool outstanding = false;
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = pollfd{conns[i].fd, POLLIN, 0};
      outstanding |= !conns[i].in_flight.empty() || conns[i].quota > 0;
    }
    if (!outstanding) {
      return true;
    }
    if (::poll(pfds.data(), pfds.size(), 1000) < 0 && errno != EINTR) {
      return false;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      ClientConn& conn = conns[i];
      ssize_t r = ::recv(conn.fd, buffer.data(), buffer.size(), 0);
      if (r < 0 && (errno == EINTR || errno == EAGAIN)) {
        continue;
      }
      if (r <= 0) {
        // Hangup: fatal only if this connection still had work; otherwise deactivate
        // it (poll ignores negative fds) and keep driving the remaining connections.
        bool finished = conn.in_flight.empty() && conn.quota == 0;
        ::close(conn.fd);
        conn.fd = -1;
        if (!finished) {
          return false;
        }
        continue;
      }
      conn.parser.Feed(buffer.data(), static_cast<size_t>(r));
      for (Message& msg : conn.parser.TakeMessages()) {
        if (conn.in_flight.empty() || conn.in_flight.front().first != msg.request_id) {
          totals.order_violations.fetch_add(1, std::memory_order_relaxed);
          conn.in_flight.clear();
        } else {
          latency.Record(conn.in_flight.front().second);
          conn.in_flight.pop_front();
        }
        totals.received.fetch_add(1, std::memory_order_relaxed);
        auto decoded = DecodeKvResponse(msg.payload);
        if (!decoded.has_value() || decoded->status == KvStatus::kError) {
          totals.error.fetch_add(1, std::memory_order_relaxed);
        } else if (decoded->status == KvStatus::kOk) {
          totals.ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          totals.miss.fetch_add(1, std::memory_order_relaxed);
        }
        if (conn.quota > 0 && !send_one(conn)) {
          return false;
        }
      }
    }
  }
}

// Fans the load out over `config.threads` client threads; returns true when every
// thread completed cleanly.
bool RunLoad(const LoadConfig& config, LatencyCollector& latency, LoadTotals& totals) {
  const Nanos start = NowNanos();
  int threads = std::max(1, std::min(config.threads, config.connections));
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  uint64_t per_conn = config.requests / static_cast<uint64_t>(config.connections);
  uint64_t remainder = config.requests % static_cast<uint64_t>(config.connections);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<ClientConn> conns;
      for (int c = t; c < config.connections; c += threads) {
        ClientConn conn;
        conn.fd = ConnectTo(config.host, config.port);
        conn.quota = per_conn + (static_cast<uint64_t>(c) < remainder ? 1 : 0);
        if (conn.fd < 0) {
          failed.store(true);
          for (ClientConn& opened : conns) {
            ::close(opened.fd);  // don't leak the connections that did open
          }
          return;
        }
        conns.push_back(std::move(conn));
      }
      Rng rng(config.seed + static_cast<uint64_t>(t) * 7919);
      if (!DriveConnections(config, conns, latency, totals, rng)) {
        failed.store(true);
      }
      for (ClientConn& conn : conns) {
        if (conn.fd >= 0) {
          ::close(conn.fd);
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  totals.elapsed = NowNanos() - start;
  return !failed.load();
}

// ---------------------------------------------------------------------------
// Server assembly.
// ---------------------------------------------------------------------------

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
                                    const std::string& transport_name) {
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
  std::unique_ptr<SocketTransportBase> transport;
  if (transport_name == "uring") {
    transport = std::make_unique<UringTransport>(tcp);
  } else {
    transport = std::make_unique<TcpTransport>(tcp);
  }
  server->transport = transport.get();
  server->transport_name = transport_name;
  transport->set_on_complete(server->server_latency.Handler());
  server->runtime = std::make_unique<Runtime>(options, std::move(transport), handler);
  server->runtime->Start();
  std::printf("kv_server: %d workers listening on %s:%u (%s transport)\n",
              options.num_workers, tcp.bind_address.c_str(),
              server->transport->port(), transport_name.c_str());
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

void PrintClientStats(const LatencyCollector& latency, const LoadTotals& totals) {
  LatencyHistogram hist = latency.Snapshot();
  std::printf("client: sent %llu  received %llu  ok %llu  miss %llu  error %llu  "
              "order violations %llu\n",
              static_cast<unsigned long long>(totals.sent.load()),
              static_cast<unsigned long long>(totals.received.load()),
              static_cast<unsigned long long>(totals.ok.load()),
              static_cast<unsigned long long>(totals.miss.load()),
              static_cast<unsigned long long>(totals.error.load()),
              static_cast<unsigned long long>(totals.order_violations.load()));
  std::printf("client: end-to-end latency p50 %.1f us  p99 %.1f us  p999 %.1f us "
              "(over real TCP)\n",
              ToMicros(hist.P50()), ToMicros(hist.P99()), ToMicros(hist.P999()));
  const double seconds = static_cast<double>(totals.elapsed) / 1e9;
  std::printf("client: throughput %.0f req/s (%llu responses in %.3f s, closed loop)\n",
              seconds > 0 ? static_cast<double>(totals.received.load()) / seconds : 0.0,
              static_cast<unsigned long long>(totals.received.load()), seconds);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string mode = flags.GetString("mode", "demo");
  KvWorkloadSpec spec = flags.GetString("workload", "usr") == "etc"
                            ? KvWorkloadSpec::Etc()
                            : KvWorkloadSpec::Usr();
  spec.num_keys = static_cast<uint64_t>(flags.GetInt("keys", 50'000));

  LoadConfig load;
  load.host = flags.GetString("host", "127.0.0.1");
  load.port = static_cast<uint16_t>(flags.GetInt("port", mode == "demo" ? 0 : 7117));
  load.connections = static_cast<int>(flags.GetInt("connections", 16));
  load.threads = static_cast<int>(flags.GetInt("threads", 4));
  load.requests = static_cast<uint64_t>(flags.GetInt("requests", 40'000));
  load.pipeline = static_cast<int>(flags.GetInt("pipeline", 8));
  load.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  load.spec = spec;

  // Server-side knobs (read unconditionally so CheckUnknown knows every flag).
  const std::string transport_name = flags.GetString("transport", "tcp");
  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  // Concurrent-connection cap (ids are recycled, so churn no longer needs headroom).
  const auto max_flows = static_cast<size_t>(flags.GetInt("max-flows", 1 << 12));
  // Open-loop (loadgen-mode) knobs.
  const double rate = flags.GetDouble("rate", 20'000);
  const Nanos duration = flags.GetInt("duration-ms", 2000) * kMillisecond;
  const Nanos warmup = flags.GetInt("warmup-ms", 500) * kMillisecond;
  const std::string arrivals_name = flags.GetString("arrivals", "poisson");
  // Connection churn (loadgen mode): mean per-connection lifetime; 0 = connections
  // live for the whole run. Expired connections reconnect with a fresh socket.
  const Nanos churn_lifetime = flags.GetInt("churn-ms", 0) * kMillisecond;
  if (!flags.CheckUnknown(
          "usage: kv_server [--mode=demo|serve|client|loadgen] [--workload=usr|etc]\n"
          "  [--keys=N] [--workers=N] [--max-flows=N] [--transport=tcp|uring]\n"
          "  [--host=H] [--port=P] [--connections=N] [--threads=N] [--requests=N]\n"
          "  [--pipeline=N] [--seed=N] [--rate=RPS] [--duration-ms=N] [--warmup-ms=N]\n"
          "  [--churn-ms=N] [--arrivals=poisson|fixed]")) {
    return 2;
  }
  if (transport_name != "tcp" && transport_name != "uring") {
    std::fprintf(stderr, "kv_server: unknown --transport=%s (expected tcp|uring)\n",
                 transport_name.c_str());
    return 2;
  }
  if (transport_name == "uring" && !UringTransport::Available()) {
    // Graceful capability fallback: fail before binding anything, with the probe's
    // reason, so harnesses can `--transport=uring || skip`.
    std::fprintf(stderr,
                 "kv_server: --transport=uring requested but io_uring is unavailable "
                 "on this host: %s\n",
                 UringTransport::UnavailableReason().c_str());
    return 1;
  }
  if (mode != "demo" && mode != "serve" && mode != "client" && mode != "loadgen") {
    std::fprintf(stderr,
                 "kv_server: unknown --mode=%s (expected demo|serve|client|loadgen)\n",
                 mode.c_str());
    return 2;
  }
  if (load.connections < 1 || load.threads < 1 || load.pipeline < 1) {
    std::fprintf(stderr, "kv_server: --connections, --threads and --pipeline must be "
                 "positive\n");
    return 2;
  }

  if (mode == "client") {
    LatencyCollector latency;
    LoadTotals totals;
    bool ok = RunLoad(load, latency, totals);
    PrintClientStats(latency, totals);
    return ok && totals.order_violations.load() == 0 ? 0 : 1;
  }

  if (mode == "loadgen") {
    auto arrivals = ParseArrivalKind(arrivals_name);
    if (!arrivals) {
      std::fprintf(stderr, "kv_server: unknown --arrivals=%s (poisson|fixed)\n",
                   arrivals_name.c_str());
      return 2;
    }
    TcpLoadgenOptions gen;
    gen.host = load.host;
    gen.port = load.port;
    gen.connections = load.connections;
    gen.threads = load.threads;
    gen.arrivals = *arrivals;
    gen.rate_rps = rate;
    gen.duration = duration;
    gen.warmup = warmup;
    gen.seed = load.seed;
    gen.churn_mean_lifetime = churn_lifetime;
    gen.make_payload = [workload = KvWorkload(spec, load.seed)](Rng& rng,
                                                               std::string& out) {
      out = workload.SampleRequest(rng);
    };
    std::printf("kv_server: open-loop %s load, %.0f rps offered, %d connections, "
                "%.0f ms window (%.0f ms warmup), churn mean lifetime %.0f ms\n",
                ArrivalKindName(gen.arrivals), gen.rate_rps, gen.connections,
                static_cast<double>(gen.duration) / 1e6,
                static_cast<double>(gen.warmup) / 1e6,
                static_cast<double>(gen.churn_mean_lifetime) / 1e6);
    TcpLoadgenResult result = RunTcpLoadgen(gen);
    std::printf("loadgen: sent %llu  completed %llu  measured %llu  lost %llu  "
                "mismatches %llu  reconnects %llu  max send lag %.1f us\n",
                static_cast<unsigned long long>(result.sent),
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.measured),
                static_cast<unsigned long long>(result.lost),
                static_cast<unsigned long long>(result.mismatches),
                static_cast<unsigned long long>(result.reconnects),
                ToMicros(result.max_send_lag));
    std::printf("loadgen: achieved %.0f rps  latency p50 %.1f us  p99 %.1f us  "
                "p999 %.1f us (scheduled-send -> response, CO-safe)\n",
                result.achieved_rps(), ToMicros(result.latency.P50()),
                ToMicros(result.latency.P99()), ToMicros(result.latency.P999()));
    return result.clean ? 0 : 1;
  }

  auto server =
      StartServer(workers, max_flows, spec, load.port, transport_name);

  if (mode == "serve") {
    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
    std::printf("kv_server: serving until SIGINT/SIGTERM\n");
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("kv_server: signal %d, shutting down\n", static_cast<int>(g_signal));
    server->runtime->Shutdown();
    PrintServerStats(*server);
    return 0;
  }

  // demo: drive the server over real loopback-interface sockets, in process.
  load.port = server->transport->port();
  LatencyCollector latency;
  LoadTotals totals;
  bool ok = RunLoad(load, latency, totals);
  server->runtime->Shutdown();
  PrintClientStats(latency, totals);
  PrintServerStats(*server);
  if (!ok || totals.order_violations.load() != 0 ||
      totals.received.load() != totals.sent.load()) {
    std::printf("kv_server: FAILED (client error or missing responses)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
