// Figure 6 reproduction: 99th-percentile latency vs throughput for the synthetic
// microbenchmark, three distributions x {10 µs, 25 µs} mean task size.
// Systems: Linux (floating), IX, ZygOS (no interrupts), ZygOS, plus the theoretical
// M/G/16/FCFS lower bound. The horizontal SLO reference is 10x the mean.
//
// Also prints the §6.1 headline metric: ZygOS's achieved fraction of the theoretical
// maximum load at the SLO (paper: 75% for 10 µs exponential, 88% for 25 µs).
//
// Usage: fig6_latency_throughput [--requests=N] [--points=P] [--json=PATH]
// --json writes the BENCH record (src/loadgen/experiment.h): the first headline, the
// 10 µs exponential case (the paper's §6.1 primary claim).
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/flags.h"
#include "src/loadgen/experiment.h"
#include "src/queueing/models.h"
#include "src/queueing/slo_search.h"
#include "src/sysmodel/experiment.h"

namespace zygos {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto requests = static_cast<uint64_t>(flags.GetInt("requests", 120000));
  const int points = static_cast<int>(flags.GetInt("points", 10));
  const std::string json_path = flags.GetString("json", "");
  constexpr uint64_t kHeadlineSeed = 35;
  std::optional<double> headline_pct;  // the 10 us exponential headline

  const std::vector<SystemKind> systems = {SystemKind::kLinuxFloating, SystemKind::kIx,
                                           SystemKind::kZygosNoIpi, SystemKind::kZygos};

  for (Nanos mean : {10 * kMicrosecond, 25 * kMicrosecond}) {
    for (const auto& name : {std::string("deterministic"), std::string("exponential"),
                             std::string("bimodal1")}) {
      auto service = MakeDistribution(name, mean);
      Nanos slo = 10 * mean;
      std::printf("\n## distribution=%s mean_us=%.0f slo_us=%.0f\n", name.c_str(),
                  ToMicros(mean), ToMicros(slo));
      std::printf("system,load,throughput_mrps,p99_us\n");

      // Theoretical M/G/16/FCFS curve.
      for (int i = 1; i <= points; ++i) {
        double load = 0.98 * static_cast<double>(i) / points;
        QueueingRunParams q;
        q.load = load;
        q.num_requests = requests;
        q.warmup = requests / 10;
        q.seed = 31;
        auto ideal =
            RunQueueingModel({Discipline::kFcfs, Topology::kCentralized}, q, *service);
        double mrps = load * 16.0 / (ToMicros(mean));  // ideal throughput at this load
        std::printf("M/G/16/FCFS,%.3f,%.4f,%.1f\n", load, mrps,
                    ToMicros(ideal.sojourn.P99()));
      }

      for (auto kind : systems) {
        SystemRunParams params;
        params.num_requests = requests;
        params.warmup = requests / 10;
        params.seed = 33;
        auto sweep = LatencyThroughputSweep(kind, params, *service, EvenLoads(points, 0.98));
        for (const auto& pt : sweep) {
          std::printf("%s,%.3f,%.4f,%.1f\n", SystemKindName(kind).c_str(), pt.load,
                      pt.throughput_rps / 1e6, ToMicros(pt.p99));
        }
        std::fflush(stdout);
      }

      // §6.1 headline: fraction of theoretical max load at SLO (exponential only).
      if (name == "exponential") {
        auto ideal_p99 = [&](double load) {
          QueueingRunParams q;
          q.load = load;
          q.num_requests = requests;
          q.warmup = requests / 10;
          q.seed = kHeadlineSeed;
          return RunQueueingModel({Discipline::kFcfs, Topology::kCentralized}, q, *service)
              .sojourn.P99();
        };
        double ideal_max =
            FindMaxLoadAtSlo(ideal_p99, slo, {.max_load = 0.995, .iterations = 8});
        SystemRunParams params;
        params.num_requests = requests;
        params.warmup = requests / 10;
        params.seed = kHeadlineSeed;
        double zygos_max =
            MaxLoadAtSlo(SystemKind::kZygos, params, *service, slo, {.iterations = 8});
        const double pct = 100.0 * zygos_max / ideal_max;
        std::printf("# headline: ZygOS max load %.3f = %.0f%% of theoretical %.3f "
                    "(paper: %s)\n",
                    zygos_max, pct, ideal_max, mean == 10 * kMicrosecond ? "75%" : "88%");
        if (!headline_pct) {
          headline_pct = pct;
        }
      }
    }
  }
  BenchReport report("zygos_frac_of_theoretical_max_load", headline_pct.value_or(NAN),
                     "percent", /*precision=*/0);
  report.params()
      .Int("requests", static_cast<int64_t>(requests))
      .Int("points", points)
      .Str("distribution", "exponential")
      .Int("mean_us", 10)
      .Str("slo", "10x_mean")
      .Int("seed", kHeadlineSeed);
  return report.Finish(json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
