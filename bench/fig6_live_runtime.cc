// Fig. 6 on the LIVE runtime: p99 latency vs offered load for the real-thread ZygOS
// data plane (src/runtime), served over real sockets and driven by the open-loop,
// coordinated-omission-safe TCP generator (src/loadgen/tcp_loadgen.h) — the measured
// counterpart of the model-driven fig6_latency_throughput.
//
// Sweeps ascending load points for each requested runtime ablation:
//   zygos        full design (idle cores steal ready connections)
//   no-steal     RuntimeOptions::enable_stealing = false (the shared-nothing IX
//                baseline: every core serves only its own flows)
// It prints one CSV row per (config, load) cell; `--json=PATH` additionally writes
// the BENCH-contract report with the acceptance booleans as gates (the shared harness,
// src/loadgen/experiment.h; the process exits 1 iff a gate is false). The IPI
// ablation (ZygOS vs ZygOS-no-IPI) runs only in the discrete-event model
// (fig6_latency_throughput, ablation_design_choices section A): the live runtime
// polls and has no interrupt to ablate.
//
// Load points come from `--rates` (explicit rps list) or, by default, from a
// calibration probe: one deliberately overloaded run measures the peak sustainable
// throughput, and `--load-fractions` of that peak become the sweep. The service is
// the synthetic spin service (src/loadgen/spin_service.h); on hosts with fewer
// hardware threads than workers use `--service-mode=sleep` (see that header).
//
// `--transport` takes a comma-separated list of tcp (the default) and uring
// (LiveTransport in src/loadgen/experiment.h); every requested transport sweeps the
// SAME ascending rate list (calibrated once, on the first transport), so
// uring-vs-epoll comparisons happen at matched load, and the headline value is the
// zygos peak-load p99 on that first transport. Every cell also reports
// syscalls_per_req (Transport::IoSyscalls over completed requests): epoll's ~2/req
// against batched uring's ~1. uring on a host without io_uring is skipped with a
// `# skip:` note (exit 0 when nothing remains); `--probe-uring` reports availability
// (exit 0/1) so harnesses can decide before committing to a sweep.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/report.h"
#include "src/loadgen/spin_service.h"
#include "src/runtime/uring_transport.h"

namespace zygos {
namespace {

constexpr const char* kUsage =
    "usage: fig6_live_runtime [--transport=tcp|uring[,...]] [--workers=N]\n"
    "  [--connections=N] [--threads=N] [--arrivals=poisson|fixed] [--dist=NAME]\n"
    "  [--service-us=F] [--service-mode=spin|sleep] [--configs=zygos,no-steal]\n"
    "  [--rates=r1,r2,...] [--load-fractions=f1,f2,...] [--calibrate-rate=R]\n"
    "  [--cell-repeats=N] [--duration-ms=N] [--warmup-ms=N] [--payload=N]\n"
    "  [--seed=N] [--skew=BOOL] [--json=PATH] [--probe-uring]";

// Capability probe for harnesses (scripts/ci.sh): no sweep, just the verdict. The
// "available"/"unavailable" verdict is the stable grep target.
int PrintUringProbe() {
  if (!UringTransport::Available()) {
    std::printf("io_uring: unavailable: %s\n",
                UringTransport::UnavailableReason().c_str());
    return 1;
  }
  std::printf("io_uring: available\n");
  return 0;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string dist_name = flags.GetString("dist", "exponential");
  const double service_us = flags.GetDouble("service-us", 200.0);
  const std::string mode_name = flags.GetString("service-mode", "spin");
  const bool probe_uring = flags.GetBool("probe-uring", false);
  LiveSweep sweep;
  sweep.name = "fig6_live_runtime";
  sweep.usage = kUsage;
  if (!ParseLiveSweep(flags, sweep)) {
    return 2;
  }
  if (probe_uring) {
    return PrintUringProbe();
  }
  const std::optional<ServiceMode> service_mode = ParseServiceMode(mode_name);
  const std::shared_ptr<const ServiceTimeDistribution> service =
      MakeDistribution(dist_name, FromMicros(service_us));
  if (!service_mode || !service) {
    std::fprintf(stderr, "fig6_live_runtime: bad --service-mode or --dist\n%s\n",
                 kUsage);
    return 2;
  }
  if (!SelectTransports(sweep)) {
    return 0;
  }

  // The echoed transport list reflects what actually runs (post uring-skip).
  std::printf("# fig6_live_runtime: transport=%s dist=%s service_us=%.1f mode=%s "
              "arrivals=%s workers=%d connections=%d skew=%d duration_ms=%.0f "
              "warmup_ms=%.0f seed=%llu\n",
              sweep.TransportNames().c_str(), dist_name.c_str(), service_us,
              ServiceModeName(*service_mode), ArrivalKindName(*sweep.arrivals),
              sweep.workers, sweep.connections, sweep.skew ? 1 : 0,
              static_cast<double>(sweep.duration) / 1e6,
              static_cast<double>(sweep.warmup) / 1e6,
              static_cast<unsigned long long>(sweep.seed));

  auto run_cell = [&](const LiveTransport& transport, const LiveConfig& config,
                      double rate) {
    return RunSweepCell(sweep, transport, config, rate,
                        MakeSpinService(service, *service_mode, sweep.seed + 97));
  };
  // Overload probe: offered load far beyond nominal capacity; the achieved completion
  // rate IS the peak sustainable throughput on this host.
  const double nominal =
      static_cast<double>(sweep.workers) * 1e9 / service->MeanNanos();
  if (!CalibrateRates(sweep, 3.0 * nominal, run_cell)) {
    return 1;
  }
  const std::vector<LivePoint> points =
      RunLiveSweep(sweep, run_cell, [](const LiveCellResult&) {});

  // Headline: the acceptance view of the sweep (stable format). The peak p99s are
  // the headline cells: the highest load on the first (calibration) transport.
  const LivePoint* zygos = HeadlinePoint(points, "zygos");
  const LivePoint* no_steal = HeadlinePoint(points, "no-steal");
  const LivePoint* epoll = PeakPoint(points, "zygos", "tcp");
  const LivePoint* uring = PeakPoint(points, "zygos", "uring");
  std::printf("# headline: live p99@peak zygos=%.1fus no-steal=%.1fus sheds=%llu "
              "monotone=%s steal_leq_no_steal=%s\n",
              zygos != nullptr ? zygos->p99_us : 0.0,
              no_steal != nullptr ? no_steal->p99_us : 0.0,
              static_cast<unsigned long long>(zygos != nullptr ? zygos->sheds : 0),
              ZygosP99MonotoneInLoad(points) ? "yes" : "no",
              StealLeqNoStealAtPeak(points) ? "yes" : "no");
  std::printf("# headline: syscalls/req@peak epoll=%.3f uring=%.3f "
              "uring_p99_leq_epoll=%s uring_syscalls_below_epoll=%s\n",
              epoll != nullptr ? epoll->syscalls_per_req : 0.0,
              uring != nullptr ? uring->syscalls_per_req : 0.0,
              UringP99LeqEpollAtPeak(points) ? "yes" : "no",
              UringSyscallsBelowEpoll(points) ? "yes" : "no");

  BenchReport report = LiveSweepReport("live_zygos_p99_us_at_peak_load", sweep, points);
  report.params()
      .Str("distribution", dist_name)
      .Num("service_us", service_us, 2)
      .Str("service_mode", ServiceModeName(*service_mode));
  report.Gate("uring_p99_leq_epoll_at_peak", UringP99LeqEpollAtPeak(points))
      .Gate("uring_syscalls_below_epoll", UringSyscallsBelowEpoll(points));
  report.params().Object("curves", LiveCurves(points, true));
  return report.Finish(sweep.json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
