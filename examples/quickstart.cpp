// Quickstart: a ZygOS-scheduled RPC server in ~60 lines.
//
// Builds a 2-worker runtime in full ZygOS mode (work stealing on) serving a
// synthetic spin-handler (the paper's microbenchmark application) on an ephemeral
// TCP port, drives it with the open-loop Poisson TCP generator (src/loadgen/
// tcp_loadgen.h) for --requests / --rate seconds, and prints the latency
// distribution — measured from each request's scheduled send time to its response,
// so it is coordinated-omission safe — plus the scheduler's own counters (steals,
// remote syscalls). Exits 1 unless both ledgers balance. The workers busy-poll and
// the generator runs two threads, so the default fits a 4-core host; more workers
// than cores minus two measure the OS scheduler, not the runtime.
//
// Run:  ./quickstart [--workers=2] [--rate=20000] [--requests=50000] [--spin_us=10]
#include <cstdio>
#include <memory>
#include <string>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"

namespace zygos {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  RuntimeOptions options;
  options.num_workers = static_cast<int>(flags.GetInt("workers", 2));

  TcpLoadgenOptions gen;
  gen.rate_rps = flags.GetDouble("rate", 20'000);
  const auto requests = flags.GetInt("requests", 50'000);
  gen.duration = static_cast<Nanos>(static_cast<double>(requests) * 1e9 / gen.rate_rps);
  gen.warmup = 0;
  gen.connections = 16;
  gen.make_payload = [](Rng&, std::string& out) { out.assign(32, 'x'); };
  const auto spin_us = flags.GetInt("spin_us", 10);

  // The application: spin for ~spin_us of CPU per request, echo the payload.
  // The request is a view into pooled RX memory; the reply is written straight
  // into the pooled TX frame.
  ViewHandler handler = [spin_us](uint64_t, std::string_view request,
                                  ResponseBuilder& response) {
    volatile uint64_t sink = 0;
    for (int64_t i = 0; i < spin_us * 300; ++i) {
      sink = sink + static_cast<uint64_t>(i);
    }
    response.Append(request);
  };

  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* tcp = transport.get();
  Runtime runtime(options, std::move(transport), handler);
  runtime.Start();
  gen.port = tcp->port();  // the ephemeral port is bound by Start

  std::printf("quickstart: %d workers, %.0f RPS offered, ~%lld requests, ~%lld us tasks\n",
              options.num_workers, gen.rate_rps, static_cast<long long>(requests),
              static_cast<long long>(spin_us));
  TcpLoadgenResult result = RunTcpLoadgen(gen);
  runtime.Shutdown();

  WorkerStats stats = runtime.TotalStats();
  const uint64_t sheds = stats.sheds_deadline;
  std::printf("completed %llu / sent %llu (shed %llu, lost %llu)\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.sent),
              static_cast<unsigned long long>(result.shed),
              static_cast<unsigned long long>(result.lost));
  std::printf("latency: p50 %.1f us  p99 %.1f us  max %.1f us  (wall-clock; noisy on "
              "oversubscribed hosts)\n",
              ToMicros(result.latency.P50()), ToMicros(result.latency.P99()),
              ToMicros(result.latency.Max()));
  std::printf("scheduler: %llu events, %llu stolen (%.1f%%), %llu remote syscalls\n",
              static_cast<unsigned long long>(stats.app_events),
              static_cast<unsigned long long>(stats.stolen_events),
              stats.app_events ? 100.0 * static_cast<double>(stats.stolen_events) /
                                     static_cast<double>(stats.app_events)
                               : 0.0,
              static_cast<unsigned long long>(stats.remote_syscalls));
  // Client side: every scheduled request completed, was shed, or is accounted lost.
  // Server side: every completion the runtime retired was answered or shed.
  const bool balanced =
      result.Balanced() && stats.app_events + sheds == runtime.Completed();
  if (!balanced) {
    std::printf("quickstart: LEDGER IMBALANCE\n");
  }
  return result.clean && balanced ? 0 : 1;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
