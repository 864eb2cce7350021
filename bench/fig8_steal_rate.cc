// Figure 8 reproduction: normalized steal rate (steals per application event, %) vs
// throughput for ZygOS and ZygOS-without-interrupts, exponential service with
// S̄ = 25 µs.
//
// Expected shape (paper §6.1): few steals at low load (cores serve their own queues)
// and none at saturation (every core is busy with its own backlog); without interrupts
// the steal rate peaks around ~33% (the paper's cooperative-model simulator measured
// ~35%); interrupts substantially increase the peak rate, which occurs around ~77% of
// saturation.
//
// Usage: fig8_steal_rate [--requests=N] [--points=P] [--mean_us=25] [--json=PATH]
// --json writes the BENCH record (src/loadgen/experiment.h): the peak ZygOS steal rate.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/flags.h"
#include "src/loadgen/experiment.h"
#include "src/sysmodel/experiment.h"

namespace zygos {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto requests = static_cast<uint64_t>(flags.GetInt("requests", 120000));
  const int points = static_cast<int>(flags.GetInt("points", 14));
  const Nanos mean = FromMicros(flags.GetDouble("mean_us", 25.0));
  const std::string json_path = flags.GetString("json", "");
  constexpr uint64_t kSeed = 51;

  ExponentialDistribution service(mean);
  std::printf("# Figure 8: steal rate vs throughput, exponential S=%.0fus\n",
              ToMicros(mean));
  std::printf("system,load,throughput_mrps,steals_per_event_pct,ipis\n");
  double peak_steal_pct = 0;
  for (auto kind : {SystemKind::kZygos, SystemKind::kZygosNoIpi}) {
    SystemRunParams params;
    params.num_requests = requests;
    params.warmup = requests / 10;
    params.seed = kSeed;
    auto sweep = LatencyThroughputSweep(kind, params, service, EvenLoads(points, 0.995));
    for (const auto& pt : sweep) {
      std::printf("%s,%.3f,%.4f,%.2f,%llu\n", SystemKindName(kind).c_str(), pt.load,
                  pt.throughput_rps / 1e6, 100.0 * pt.steal_fraction,
                  static_cast<unsigned long long>(pt.ipis));
      if (kind == SystemKind::kZygos) {
        peak_steal_pct = std::max(peak_steal_pct, 100.0 * pt.steal_fraction);
      }
    }
    std::fflush(stdout);
  }
  std::printf("\n# Expected: both curves rise from ~0 and fall towards 0 at saturation;\n"
              "# the no-interrupt peak is ~33%%; interrupts raise the peak substantially "
              "(peak near ~77%% of saturation).\n");
  BenchReport report("zygos_peak_steal_rate", peak_steal_pct, "steals_per_event_pct");
  report.params()
      .Int("requests", static_cast<int64_t>(requests))
      .Int("points", points)
      .Num("mean_us", ToMicros(mean), 0)
      .Int("seed", kSeed);
  return report.Finish(json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
