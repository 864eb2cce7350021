// Quickstart: a ZygOS-scheduled RPC server in ~40 lines.
//
// Builds a 4-worker runtime in full ZygOS mode (work stealing on), serves a
// synthetic spin-handler (the paper's microbenchmark application), drives it with an
// in-process open-loop Poisson generator (src/loadgen) for --requests / --rate
// seconds, and prints the latency distribution — measured from each request's
// scheduled send time, so it is coordinated-omission safe — plus the scheduler's own
// counters (steals, remote syscalls).
//
// Run:  ./quickstart [--workers=4] [--rate=20000] [--requests=50000] [--spin_us=10]
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/loadgen/loadgen.h"
#include "src/runtime/runtime.h"

namespace zygos {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  RuntimeOptions options;
  options.num_workers = static_cast<int>(flags.GetInt("workers", 4));
  options.num_flows = 64;

  GeneratorOptions gen;
  gen.rate_rps = flags.GetDouble("rate", 20'000);
  const auto requests = flags.GetInt("requests", 50'000);
  gen.duration = static_cast<Nanos>(static_cast<double>(requests) * 1e9 / gen.rate_rps);
  gen.num_flows = options.num_flows;
  const auto spin_us = flags.GetInt("spin_us", 10);

  // The application: spin for ~spin_us of CPU per request, echo the payload.
  RequestHandler handler = [spin_us](uint64_t, const std::string& request) {
    volatile uint64_t sink = 0;
    for (int64_t i = 0; i < spin_us * 300; ++i) {
      sink = sink + static_cast<uint64_t>(i);
    }
    return request;
  };

  MeasuredCompletion completion;
  Runtime runtime(options, handler, completion.Handler());
  runtime.Start();

  std::printf("quickstart: %d workers, %.0f RPS offered, ~%lld requests, ~%lld us tasks\n",
              options.num_workers, gen.rate_rps, static_cast<long long>(requests),
              static_cast<long long>(spin_us));
  LoopbackSink sink(runtime);
  GeneratorResult result = OpenLoopGenerator(gen).RunFrom(NowNanos(), sink);
  runtime.Shutdown();

  LatencyHistogram latency = completion.Snapshot();
  WorkerStats stats = runtime.TotalStats();
  std::printf("completed %llu / sent %llu (drops %llu)\n",
              static_cast<unsigned long long>(runtime.Completed()),
              static_cast<unsigned long long>(result.sent),
              static_cast<unsigned long long>(runtime.NicDrops()));
  std::printf("latency: p50 %.1f us  p99 %.1f us  max %.1f us  (wall-clock; noisy on "
              "oversubscribed hosts)\n",
              ToMicros(latency.P50()), ToMicros(latency.P99()), ToMicros(latency.Max()));
  std::printf("scheduler: %llu events, %llu stolen (%.1f%%), %llu remote syscalls\n",
              static_cast<unsigned long long>(stats.app_events),
              static_cast<unsigned long long>(stats.stolen_events),
              stats.app_events ? 100.0 * static_cast<double>(stats.stolen_events) /
                                     static_cast<double>(stats.app_events)
                               : 0.0,
              static_cast<unsigned long long>(stats.remote_syscalls));
  return 0;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
