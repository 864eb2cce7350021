// Connection churn on the LIVE runtime: p99 latency and sustained accept rate as
// connections are born, die and reincarnate at increasing rates — the regime the
// flow-table recycling refactor exists for (connection handling, not service time,
// dominates tails under churn; cf. Sriraman et al., "Deconstructing the Tail at
// Scale Effect Across Network Protocols").
//
// Each cell runs the epoll TcpTransport runtime with a deliberately SMALL connection
// table (--max-flows, default 32) and drives it with the open-loop churn-mode TCP
// generator (src/loadgen/tcp_loadgen.h): per-connection lifetimes are exponential
// with mean --churn-ms, expired connections hang up and reconnect on fresh sockets.
// A sweep cell is healthy when:
//   - lifetime (distinct) connections far exceed the table capacity,
//   - zero capacity refusals (flow-id recycling kept every connect servable),
//   - table occupancy never exceeded the fixed capacity,
//   - pool misses per request stay ~0 after a warmup run (allocation-free recycling).
//
// stdout: one CSV row per churn point plus a `# headline:` line; `--json=PATH`
// writes the BENCH-contract report ({metric, value, unit, commit, params}) with the
// acceptance gates (src/loadgen/experiment.h; exit 1 iff one is false):
//   distinct_conns_exceed_capacity, zero_capacity_refusals, flat_table_occupancy,
//   allocation_free_after_warmup, all_runs_clean.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/spin_service.h"
#include "src/loadgen/tcp_loadgen.h"

namespace zygos {
namespace {

constexpr const char* kUsage =
    "usage: churn_live_runtime [--workers=N] [--connections=N] [--threads=N]\n"
    "  [--rate=RPS] [--churn-ms=l1,l2,...] [--duration-ms=N] [--warmup-ms=N]\n"
    "  [--max-flows=N] [--payload=N] [--seed=N] [--arrivals=poisson|fixed]\n"
    "  [--json=PATH]";

struct ChurnPoint {
  double churn_ms = 0;  // mean connection lifetime; 0 = no churn
  LivePoint live;       // the measured run: offered/achieved rate, latencies, measured
  uint64_t reconnects = 0;
  uint64_t distinct_conns = 0;      // lifetime connections accepted (measured run)
  double accept_rate_cps = 0;       // sustained accepts/second over the window
  uint64_t capacity_refusals = 0;
  uint64_t stall_drops = 0;
  uint64_t peak_open = 0;           // table occupancy high-water mark
  double pool_miss_per_req = 0;     // heap allocs per request AFTER the warmup run
  bool clean = false;
};

struct Experiment : LiveFlags {
  double rate = 4000;
  size_t max_flows = 32;
};

ChurnPoint RunCell(const Experiment& exp, double churn_ms) {
  RuntimeOptions options;
  options.num_workers = exp.workers;
  options.num_flows = exp.connections;
  options.max_flows = exp.max_flows;
  ChurnPoint point;
  point.churn_ms = churn_ms;
  auto drive = [&](Runtime& runtime, SocketTransportBase& tcp) {
    TcpLoadgenOptions gen = LiveLoadgenOptions(exp, tcp.port(), exp.rate);
    gen.churn_mean_lifetime = static_cast<Nanos>(churn_ms * 1e6);

    // Warmup run: grows every pool (and the per-core Connection freelists) to the
    // workload's working set, so the measured run can be judged allocation-free. Full
    // length: the in-flight buffer population scales with backlog depth, which needs
    // the same duration to reach its stationary range.
    gen.warmup = gen.duration / 2;
    RunTcpLoadgen(gen);
    uint64_t warmed_misses = runtime.TotalStats().pool_misses;
    uint64_t warmed_accepts = tcp.AcceptedConnections();

    // Measured run.
    gen.duration = exp.duration;
    gen.warmup = exp.warmup;
    gen.seed = exp.seed + 101;  // fresh schedule, same law
    TcpLoadgenResult result = RunTcpLoadgen(gen);
    point.distinct_conns = tcp.AcceptedConnections() - warmed_accepts;
    point.capacity_refusals = tcp.CapacityRefusals();
    point.stall_drops = tcp.StallDrops();
    point.peak_open = runtime.PeakOpenFlows();

    // Let in-flight teardowns retire before reading the recycle counters (workers are
    // still polling; bounded wait, not a timing assertion).
    uint64_t accepted = tcp.AcceptedConnections();
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (runtime.TotalStats().flows_recycled < accepted &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    point.pool_miss_per_req =
        result.measured > 0
            ? static_cast<double>(runtime.TotalStats().pool_misses - warmed_misses) /
                  static_cast<double>(result.measured)
            : 0.0;
    return result;
  };
  LiveCellResult cell = RunLiveCell(options, *ParseLiveTransport("tcp"), EchoHandler(),
                                    /*skew=*/false, drive);
  point.live = cell.point;
  point.live.offered_rps = exp.rate;
  point.reconnects = cell.tcp.reconnects;
  Nanos window = cell.tcp.measure_end - cell.tcp.measure_start;
  point.accept_rate_cps =
      window > 0 ? static_cast<double>(point.distinct_conns) * 1e9 /
                       static_cast<double>(window)
                 : 0.0;
  point.clean = cell.tcp.clean;
  return point;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Experiment exp;
  exp.name = "churn_live_runtime";
  exp.usage = kUsage;
  exp.duration = 1500 * kMillisecond;
  exp.warmup = 400 * kMillisecond;
  exp.rate = flags.GetDouble("rate", 4000);
  const std::string churn_csv = flags.GetString("churn-ms", "0,160,80,40,20");
  exp.max_flows = static_cast<size_t>(flags.GetInt("max-flows", 32));
  if (!ParseLiveFlags(flags, exp)) {
    return 2;
  }
  if (exp.max_flows < static_cast<size_t>(exp.connections)) {
    std::fprintf(stderr,
                 "churn_live_runtime: --max-flows must cover the concurrent "
                 "--connections\n%s\n",
                 kUsage);
    return 2;
  }

  std::vector<double> lifetimes;
  if (!ParseNumbers(exp, "churn-ms", churn_csv, ">= 0",
                    [](double lifetime) { return lifetime >= 0; }, lifetimes)) {
    return 2;
  }
  // Ascending churn RATE: the no-churn baseline (0) first, then longest lifetime to
  // shortest. The headline and the JSON read the LAST point as "fastest churn".
  std::sort(lifetimes.begin(), lifetimes.end(), [](double a, double b) {
    if ((a == 0) != (b == 0)) {
      return a == 0;  // 0 (no churn) sorts first
    }
    return a > b;
  });

  std::printf("# churn_live_runtime: workers=%d connections=%d threads=%d rate=%.0f "
              "arrivals=%s duration_ms=%.0f warmup_ms=%.0f max_flows=%zu payload=%zu "
              "seed=%llu\n",
              exp.workers, exp.connections, exp.threads, exp.rate,
              ArrivalKindName(*exp.arrivals), static_cast<double>(exp.duration) / 1e6,
              static_cast<double>(exp.warmup) / 1e6, exp.max_flows, *exp.payload,
              static_cast<unsigned long long>(exp.seed));
  std::printf("churn_ms,offered_rps,achieved_rps,p50_us,p99_us,p999_us,measured,"
              "reconnects,distinct_conns,accept_rate_cps,capacity_refusals,"
              "stall_drops,peak_open,table_capacity,pool_miss_per_req,clean\n");

  std::vector<ChurnPoint> points;
  for (double lifetime : lifetimes) {
    ChurnPoint point = RunCell(exp, lifetime);
    std::printf("%.0f,%.0f,%.0f,%.1f,%.1f,%.1f,%llu,%llu,%llu,%.1f,%llu,%llu,%llu,"
                "%zu,%.4f,%d\n",
                point.churn_ms, point.live.offered_rps, point.live.achieved_rps,
                point.live.p50_us, point.live.p99_us, point.live.p999_us,
                static_cast<unsigned long long>(point.live.measured),
                static_cast<unsigned long long>(point.reconnects),
                static_cast<unsigned long long>(point.distinct_conns),
                point.accept_rate_cps,
                static_cast<unsigned long long>(point.capacity_refusals),
                static_cast<unsigned long long>(point.stall_drops),
                static_cast<unsigned long long>(point.peak_open), exp.max_flows,
                point.pool_miss_per_req, point.clean ? 1 : 0);
    std::fflush(stdout);
    points.push_back(point);
  }

  const ChurnPoint& fastest = points.back();
  bool any_churn = fastest.churn_ms > 0;
  bool exceed_capacity =
      !any_churn || fastest.distinct_conns > static_cast<uint64_t>(exp.max_flows);
  bool zero_refusals = true;
  bool flat_occupancy = true;
  bool allocation_free = true;
  bool all_clean = true;
  double worst_miss_rate = 0;
  for (const ChurnPoint& point : points) {
    zero_refusals = zero_refusals && point.capacity_refusals == 0;
    flat_occupancy = flat_occupancy && point.peak_open <= exp.max_flows;
    // "~0" rather than exactly 0: a stray post-warmup slab growth (stochastic
    // backlog depth) is noise, while the smallest real regression — one heap
    // allocation per RECONNECT — already costs reconnects/requests ≈ 0.1 per
    // request, and a per-request allocation costs >= 1. The 0.01 gate sits an order
    // of magnitude below both.
    allocation_free = allocation_free && point.pool_miss_per_req < 0.01;
    all_clean = all_clean && point.clean;
    worst_miss_rate = std::max(worst_miss_rate, point.pool_miss_per_req);
  }
  std::printf("# headline: churn p99@fastest(%.0fms)=%.1fus accept_rate=%.0f/s "
              "distinct=%llu capacity=%zu exceed_capacity=%s zero_refusals=%s "
              "flat_occupancy=%s allocation_free=%s clean=%s\n",
              fastest.churn_ms, fastest.live.p99_us, fastest.accept_rate_cps,
              static_cast<unsigned long long>(fastest.distinct_conns), exp.max_flows,
              exceed_capacity ? "yes" : "no", zero_refusals ? "yes" : "no",
              flat_occupancy ? "yes" : "no", allocation_free ? "yes" : "no",
              all_clean ? "yes" : "no");

  BenchReport report("churn_p99_us_at_fastest_churn", fastest.live.p99_us, "us");
  AddRunParams(report.params(), exp);
  report.params()
      .Int("threads", exp.threads)
      .Num("rate_rps", exp.rate, 0)
      .Str("arrivals", ArrivalKindName(*exp.arrivals))
      .Int("table_capacity", exp.max_flows)
      .Int("payload", *exp.payload);
  report.Gate("distinct_conns_exceed_capacity", exceed_capacity)
      .Gate("zero_capacity_refusals", zero_refusals)
      .Gate("flat_table_occupancy", flat_occupancy)
      .Gate("allocation_free_after_warmup", allocation_free)
      .Gate("all_runs_clean", all_clean);
  auto column = [&points](auto ChurnPoint::*field) {
    return Column(points, [field](const ChurnPoint& point) { return point.*field; });
  };
  auto live_column = [&points](double LivePoint::*field) {
    return Column(points, [field](const ChurnPoint& point) { return point.live.*field; });
  };
  report.params()
      .Num("pool_miss_per_req_max", worst_miss_rate, 6)
      .Nums("churn_ms", column(&ChurnPoint::churn_ms), 0)
      .Nums("p99_us", live_column(&LivePoint::p99_us), 2)
      .Nums("achieved_rps", live_column(&LivePoint::achieved_rps), 0)
      .Nums("accept_rate_cps", column(&ChurnPoint::accept_rate_cps), 1)
      .Nums("distinct_conns", column(&ChurnPoint::distinct_conns), 0)
      .Nums("peak_open", column(&ChurnPoint::peak_open), 0);
  return report.Finish(exp.json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
