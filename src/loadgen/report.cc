#include "src/loadgen/report.h"

#include <algorithm>
#include <utility>

namespace zygos {

namespace {

std::vector<const LivePoint*> PointsOf(const std::vector<LivePoint>& points,
                                       const std::string& config,
                                       const std::string& transport) {
  std::vector<const LivePoint*> out;
  for (const LivePoint& point : points) {
    if (point.config == config && point.transport == transport) {
      out.push_back(&point);
    }
  }
  return out;
}

// Distinct transports in first-appearance order. A multi-transport sweep repeats the
// ascending rate list once per transport, so curve predicates must never mix
// transports (the restart at low load would read as a p99 decrease).
std::vector<std::string> TransportsOf(const std::vector<LivePoint>& points) {
  std::vector<std::string> out;
  for (const LivePoint& point : points) {
    if (std::find(out.begin(), out.end(), point.transport) == out.end()) {
      out.push_back(point.transport);
    }
  }
  return out;
}

// The two curves' cells at their highest COMMON load: both sweep the same ascending
// rate list, so that is the last row of the shorter curve. Nulls when either curve is
// absent.
std::pair<const LivePoint*, const LivePoint*> AtCommonPeak(
    const std::vector<LivePoint>& points, const std::string& config_a,
    const std::string& transport_a, const std::string& config_b,
    const std::string& transport_b) {
  std::vector<const LivePoint*> a = PointsOf(points, config_a, transport_a);
  std::vector<const LivePoint*> b = PointsOf(points, config_b, transport_b);
  if (a.empty() || b.empty()) {
    return {nullptr, nullptr};
  }
  size_t common = std::min(a.size(), b.size());
  return {a[common - 1], b[common - 1]};
}

}  // namespace

void PrintLiveCsvHeader(FILE* out) {
  std::fprintf(out,
               "config,offered_rps,achieved_rps,p50_us,p99_us,p999_us,mean_us,max_us,"
               "measured,sent,dropped,send_lag_max_us,steals,syscalls_per_req,transport,"
               "sheds\n");
}

void PrintLiveCsvRow(FILE* out, const LivePoint& p) {
  std::fprintf(out,
               "%s,%.0f,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f,%llu,%llu,%llu,%.1f,%llu,%.3f,"
               "%s,%llu\n",
               p.config.c_str(), p.offered_rps, p.achieved_rps, p.p50_us, p.p99_us,
               p.p999_us, p.mean_us, p.max_us,
               static_cast<unsigned long long>(p.measured),
               static_cast<unsigned long long>(p.sent),
               static_cast<unsigned long long>(p.dropped), p.send_lag_max_us,
               static_cast<unsigned long long>(p.steals), p.syscalls_per_req,
               p.transport.c_str(), static_cast<unsigned long long>(p.sheds));
}

// A cell's p99 is an order statistic over the top ~1% of its completions — a few
// dozen samples at trajectory cell lengths — so back-to-back identical cells
// disagree by 10-20% routinely (measured on the trajectory host; a single
// scheduler stall inflates one cell's tail even through median-of-3 repeats).
// The predicates below therefore test the tracked *shape* within that estimator
// noise (kP99NoiseTolerance, a one-sided 20% band) instead of demanding strict
// sample-level inequalities that flip on a healthy host. The regressions these
// gates exist to catch are nowhere near the band: a broken steal path shows up
// as 10-100x, and a steady drift past 20% cumulative still fails.
namespace {
constexpr double kP99NoiseTolerance = 0.8;
}  // namespace

bool ZygosP99MonotoneInLoad(const std::vector<LivePoint>& points) {
  for (const std::string& transport : TransportsOf(points)) {
    std::vector<const LivePoint*> zygos = PointsOf(points, "zygos", transport);
    // Each point must stay within noise of the running maximum (not just its
    // neighbor): pairwise slack would let a curve drift steadily DOWNWARD across
    // the sweep and still pass, which is exactly the regression this gate exists
    // to catch.
    double running_max = 0;
    for (size_t i = 0; i < zygos.size(); ++i) {
      if (zygos[i]->p99_us < kP99NoiseTolerance * running_max) {
        return false;
      }
      running_max = std::max(running_max, zygos[i]->p99_us);
    }
  }
  return true;
}

bool StealLeqNoStealAtPeak(const std::vector<LivePoint>& points) {
  for (const std::string& transport : TransportsOf(points)) {
    auto [zygos, no_steal] =
        AtCommonPeak(points, "zygos", transport, "no-steal", transport);
    if (zygos != nullptr && zygos->p99_us > no_steal->p99_us) {
      return false;
    }
  }
  return true;
}

bool UringP99LeqEpollAtPeak(const std::vector<LivePoint>& points) {
  auto [uring, epoll] = AtCommonPeak(points, "zygos", "uring", "zygos", "tcp");
  // "No latency cost" within p99 estimator noise: the hard, noise-free win the
  // uring backend claims is syscalls/request (below, strict); this predicate
  // guards against the batching path *costing* tail latency at matched load.
  return uring == nullptr || kP99NoiseTolerance * uring->p99_us <= epoll->p99_us;
}

bool UringSyscallsBelowEpoll(const std::vector<LivePoint>& points) {
  auto [uring, epoll] = AtCommonPeak(points, "zygos", "uring", "zygos", "tcp");
  return uring == nullptr || uring->syscalls_per_req < epoll->syscalls_per_req;
}

const LivePoint* PeakPoint(const std::vector<LivePoint>& points,
                           const std::string& config, const std::string& transport) {
  std::vector<const LivePoint*> curve = PointsOf(points, config, transport);
  return curve.empty() ? nullptr : curve.back();
}

const LivePoint* HeadlinePoint(const std::vector<LivePoint>& points,
                               const std::string& config) {
  return points.empty() ? nullptr : PeakPoint(points, config, points.front().transport);
}

}  // namespace zygos
