// Fan-out tail amplification through a degraded network, on the LIVE runtime: the
// tail-at-scale experiment (Dean & Barroso; Sriraman et al.) run end-to-end through
// the chaos proxy (src/chaos/chaos_proxy.h). A logical request fans into N
// sub-requests on distinct connections and completes at the max of the N — so any
// per-sub jitter the network injects is sampled N times per request, and the logical
// p99 must GROW with N. That amplification law is the acceptance gate, and it is
// exactly why microsecond-scale tails matter at all: a service that fans out to 100
// leaves lives at the p99.99 of its leaves.
//
// Two sweeps:
//   amplification  N in --fanouts, each {direct, through-proxy}; the proxy injects
//                  --proxy-s2c jitter (default ms-scale lognormal) on responses. The
//                  through-proxy p99-vs-N curve must rise (monotone within tolerance,
//                  and the largest N at least 1.2x the smallest).
//   steal-compare  (--steal-compare, on by default) N = max fanout through a
//                  --steal-jitter proxy, ZygOS work stealing on vs off, sleep-mode
//                  service with a skewed RSS table (all flows home to worker 0): the
//                  no-steal runtime serves the whole load from one worker and its
//                  logical p99 must not beat stealing's.
//
// stdout: one CSV row per cell plus `# headline:`; `--json=PATH` writes the
// BENCH-contract report with the acceptance gates (src/loadgen/experiment.h; exit 1
// iff one is false): p99_amplification_monotone_in_fanout,
// steal_leq_no_steal_under_jitter, all_runs_clean.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/chaos_proxy.h"
#include "src/common/distribution.h"
#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/spin_service.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"

namespace zygos {
namespace {

constexpr const char* kUsage =
    "usage: fanout_chaos [--workers=N] [--connections=N] [--threads=N]\n"
    "  [--logical-rate=RPS] [--fanouts=1,2,4,8] [--duration-ms=N] [--warmup-ms=N]\n"
    "  [--proxy-s2c=MODEL] [--steal-compare=BOOL] [--steal-rate=SUB_RPS]\n"
    "  [--steal-jitter=MODEL] [--service-us=F] [--payload=N] [--seed=N]\n"
    "  [--json=PATH]  (MODEL grammar: see src/chaos/chaos_proxy.h ParseDelayModel)";

struct Experiment : LiveFlags {
  double logical_rate = 250;
  DelayModel proxy_s2c;
  DelayModel steal_jitter;
  double steal_rate = 1200;  // SUB-requests/s for the steal-compare cells
  Nanos service = 300 * kMicrosecond;
};

struct Cell {
  std::string config;  // direct | proxy | steal | no-steal
  int fanout_n = 0;
  double offered_logical_rps = 0;
  double achieved_logical_rps = 0;
  double p50_us = 0;
  double p99_us = 0;   // LOGICAL (max-of-N) p99 — the amplification quantity
  double p999_us = 0;
  double sub_p99_us = 0;
  uint64_t logical_measured = 0;
  uint64_t logical_lost = 0;
  bool clean = false;
};

Cell Measure(const std::string& config, int fanout_n, double logical_rate,
             const TcpLoadgenResult& result) {
  Cell cell;
  cell.config = config;
  cell.fanout_n = fanout_n;
  cell.offered_logical_rps = logical_rate;
  cell.achieved_logical_rps = result.achieved_logical_rps();
  cell.p50_us = ToMicros(result.latency.P50());
  cell.p99_us = ToMicros(result.latency.P99());
  cell.p999_us = ToMicros(result.latency.P999());
  cell.sub_p99_us = ToMicros(result.sub_latency.P99());
  cell.logical_measured = result.logical_measured;
  cell.logical_lost = result.logical_lost;
  cell.clean = result.clean && result.logical_lost == 0;
  return cell;
}

TcpLoadgenOptions GenFor(const Experiment& exp, uint16_t port, int fanout_n,
                         double logical_rate, uint64_t seed) {
  // Arrivals are LOGICAL requests.
  TcpLoadgenOptions gen = LiveLoadgenOptions(exp, port, logical_rate);
  gen.fanout_n = fanout_n;
  gen.seed = seed;
  return gen;
}

// One amplification cell: echo runtime, optionally behind a response-jitter proxy.
// The service is a cheap echo so the injected network jitter dominates the sub
// latency — the cleanest reading of the max-of-N effect.
Cell RunFanoutCell(const Experiment& exp, int fanout_n, bool through_proxy) {
  RuntimeOptions options;
  options.num_workers = exp.workers;
  options.num_flows = exp.connections;
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* tcp = transport.get();
  ViewHandler echo = [](uint64_t, std::string_view request, ResponseBuilder& out) {
    out.Append(request);
  };
  Runtime runtime(options, std::move(transport), std::move(echo));
  runtime.Start();

  ChaosProxy* proxy = nullptr;
  std::unique_ptr<ChaosProxy> owned_proxy;
  uint16_t port = tcp->port();
  if (through_proxy) {
    ChaosProxyOptions chaos;
    chaos.upstream_port = tcp->port();
    chaos.server_to_client = exp.proxy_s2c;
    chaos.seed = exp.seed + static_cast<uint64_t>(fanout_n) * 13;
    owned_proxy = std::make_unique<ChaosProxy>(chaos);
    proxy = owned_proxy.get();
    if (!proxy->Start()) {
      std::fprintf(stderr, "fanout_chaos: proxy failed to start\n");
      std::exit(1);
    }
    port = proxy->port();
  }

  TcpLoadgenResult result = RunTcpLoadgen(
      GenFor(exp, port, fanout_n, exp.logical_rate, exp.seed + 7));
  if (proxy != nullptr) {
    proxy->Stop();
  }
  runtime.Shutdown();
  return Measure(through_proxy ? "proxy" : "direct", fanout_n, exp.logical_rate,
                 result);
}

// One steal-compare cell: sleep-mode service (host-thread friendly), RSS skewed so
// every flow homes to worker 0, jittery proxy in the path. With stealing off the
// whole load queues behind one worker; stealing spreads it — its logical p99 must
// not lose.
Cell RunStealCell(const Experiment& exp, int fanout_n, bool stealing) {
  RuntimeOptions options;
  options.num_workers = exp.workers;
  options.num_flows = exp.connections;
  options.enable_stealing = stealing;
  auto dist = std::shared_ptr<const ServiceTimeDistribution>(
      MakeDistribution("exponential", exp.service));
  ViewHandler handler = MakeSpinService(dist, ServiceMode::kSleep, exp.seed + 97);
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* tcp = transport.get();
  Runtime runtime(options, std::move(transport), std::move(handler));
  runtime.mutable_rss().SetIndirection(
      std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  runtime.Start();

  ChaosProxyOptions chaos;
  chaos.upstream_port = tcp->port();
  chaos.server_to_client = exp.steal_jitter;
  chaos.seed = exp.seed + (stealing ? 211 : 223);
  ChaosProxy proxy(chaos);
  if (!proxy.Start()) {
    std::fprintf(stderr, "fanout_chaos: proxy failed to start\n");
    std::exit(1);
  }

  double logical_rate = exp.steal_rate / fanout_n;
  TcpLoadgenResult result = RunTcpLoadgen(
      GenFor(exp, proxy.port(), fanout_n, logical_rate, exp.seed + 31));
  proxy.Stop();
  runtime.Shutdown();
  return Measure(stealing ? "steal" : "no-steal", fanout_n, logical_rate, result);
}

void PrintCell(const Cell& cell) {
  std::printf("%s,%d,%.0f,%.0f,%.1f,%.1f,%.1f,%.1f,%llu,%llu,%d\n",
              cell.config.c_str(), cell.fanout_n, cell.offered_logical_rps,
              cell.achieved_logical_rps, cell.p50_us, cell.p99_us, cell.p999_us,
              cell.sub_p99_us, static_cast<unsigned long long>(cell.logical_measured),
              static_cast<unsigned long long>(cell.logical_lost),
              cell.clean ? 1 : 0);
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Experiment exp;
  exp.name = "fanout_chaos";
  exp.usage = kUsage;
  exp.threads = 1;
  exp.duration = 3000 * kMillisecond;
  exp.warmup = 800 * kMillisecond;
  exp.payload = 24;
  exp.arrivals.reset();
  exp.logical_rate = flags.GetDouble("logical-rate", 250);
  const std::string fanouts_csv = flags.GetString("fanouts", "1,2,4,8");
  const std::string proxy_s2c = flags.GetString("proxy-s2c", "lognormal:1000:0.8");
  const bool steal_compare = flags.GetBool("steal-compare", true);
  exp.steal_rate = flags.GetDouble("steal-rate", 1200);
  const std::string steal_jitter = flags.GetString("steal-jitter", "uniform:50:100");
  exp.service = static_cast<Nanos>(flags.GetDouble("service-us", 300) * 1000);
  if (!ParseLiveFlags(flags, exp)) {
    return 2;
  }
  auto s2c_model = ParseDelayModel(proxy_s2c);
  auto jitter_model = ParseDelayModel(steal_jitter);
  if (!s2c_model || !jitter_model) {
    std::fprintf(stderr, "fanout_chaos: bad delay model '%s'\n%s\n",
                 (!s2c_model ? proxy_s2c : steal_jitter).c_str(), kUsage);
    return 2;
  }
  exp.proxy_s2c = *s2c_model;
  exp.steal_jitter = *jitter_model;

  std::vector<double> widths;
  if (!ParseNumbers(exp, "fanouts", fanouts_csv, "integers in [1, --connections]",
                    [&exp](double n) {
                      return n >= 1 && n <= exp.connections && n == std::floor(n);
                    },
                    widths)) {
    return 2;
  }
  std::vector<int> fanouts(widths.begin(), widths.end());
  std::sort(fanouts.begin(), fanouts.end());
  fanouts.erase(std::unique(fanouts.begin(), fanouts.end()), fanouts.end());

  std::printf("# fanout_chaos: workers=%d connections=%d threads=%d "
              "logical_rate=%.0f duration_ms=%.0f warmup_ms=%.0f proxy_s2c=%s "
              "steal_compare=%d steal_rate=%.0f steal_jitter=%s service_us=%.0f "
              "seed=%llu\n",
              exp.workers, exp.connections, exp.threads, exp.logical_rate,
              static_cast<double>(exp.duration) / 1e6,
              static_cast<double>(exp.warmup) / 1e6,
              DelayModelName(exp.proxy_s2c).c_str(), steal_compare ? 1 : 0,
              exp.steal_rate, DelayModelName(exp.steal_jitter).c_str(),
              static_cast<double>(exp.service) / 1000,
              static_cast<unsigned long long>(exp.seed));
  std::printf("config,fanout_n,offered_logical_rps,achieved_logical_rps,p50_us,"
              "p99_us,p999_us,sub_p99_us,logical_measured,logical_lost,clean\n");

  std::vector<Cell> direct_curve;
  std::vector<Cell> proxy_curve;
  for (int n : fanouts) {
    Cell direct = RunFanoutCell(exp, n, /*through_proxy=*/false);
    PrintCell(direct);
    direct_curve.push_back(direct);
    Cell proxied = RunFanoutCell(exp, n, /*through_proxy=*/true);
    PrintCell(proxied);
    proxy_curve.push_back(proxied);
  }

  Cell steal_cell;
  Cell no_steal_cell;
  if (steal_compare) {
    int steal_fanout = fanouts.back();
    steal_cell = RunStealCell(exp, steal_fanout, /*stealing=*/true);
    PrintCell(steal_cell);
    no_steal_cell = RunStealCell(exp, steal_fanout, /*stealing=*/false);
    PrintCell(no_steal_cell);
  }

  // Acceptance booleans.
  //
  // Monotone-within-tolerance on the through-proxy curve: each step may dip at most
  // 10% (p99 estimation noise on finite samples), and the largest fan-out must
  // amplify the smallest's p99 by >= 1.2x — the max-of-N quantile shift for the
  // default ms-scale lognormal predicts ~1.7x at N=8, so 1.2 is a robust floor, while
  // a fan-out implementation that measured subs instead of maxes would sit at 1.0.
  bool monotone = proxy_curve.size() >= 2;
  for (size_t i = 0; i + 1 < proxy_curve.size(); ++i) {
    monotone = monotone && proxy_curve[i + 1].p99_us >= 0.9 * proxy_curve[i].p99_us;
  }
  monotone = monotone &&
             proxy_curve.back().p99_us >= 1.2 * proxy_curve.front().p99_us;
  // Stealing must not lose under injected jitter (5% tolerance for shared noise).
  bool steal_leq =
      !steal_compare || steal_cell.p99_us <= no_steal_cell.p99_us * 1.05;
  bool all_clean = true;
  auto fold_clean = [&all_clean](const Cell& cell) {
    all_clean = all_clean && cell.clean;
  };
  for (const Cell& cell : direct_curve) {
    fold_clean(cell);
  }
  for (const Cell& cell : proxy_curve) {
    fold_clean(cell);
  }
  if (steal_compare) {
    fold_clean(steal_cell);
    fold_clean(no_steal_cell);
  }

  double amplification = proxy_curve.front().p99_us > 0
                             ? proxy_curve.back().p99_us / proxy_curve.front().p99_us
                             : 0;
  std::printf("# headline: fanout x%d proxy p99 %.1fus vs x%d %.1fus "
              "(amplification %.2fx) monotone=%s steal_leq_no_steal=%s clean=%s\n",
              proxy_curve.back().fanout_n, proxy_curve.back().p99_us,
              proxy_curve.front().fanout_n, proxy_curve.front().p99_us,
              amplification, monotone ? "yes" : "no",
              steal_compare ? (steal_leq ? "yes" : "no") : "skipped",
              all_clean ? "yes" : "no");

  BenchReport report("fanout_p99_amplification", amplification, "x", 3);
  AddRunParams(report.params(), exp);
  report.params()
      .Int("threads", exp.threads)
      .Num("logical_rate_rps", exp.logical_rate, 0)
      .Str("proxy_s2c", DelayModelName(exp.proxy_s2c))
      .Str("steal_jitter", DelayModelName(exp.steal_jitter))
      .Num("steal_rate_rps", exp.steal_rate, 0)
      .Num("service_us", static_cast<double>(exp.service) / 1000, 1)
      .Int("payload", *exp.payload)
      .Bool("steal_compare", steal_compare);
  report.Gate("p99_amplification_monotone_in_fanout", monotone)
      .Gate("steal_leq_no_steal_under_jitter", steal_leq)
      .Gate("all_runs_clean", all_clean);
  auto p99 = [](const Cell& cell) { return cell.p99_us; };
  report.params()
      .Num("steal_p99_us", steal_cell.p99_us, 2)
      .Num("no_steal_p99_us", no_steal_cell.p99_us, 2)
      .Nums("fanout_n", Column(proxy_curve, [](const Cell& c) { return c.fanout_n; }), 0)
      .Nums("direct_p99_us", Column(direct_curve, p99), 2)
      .Nums("proxy_p99_us", Column(proxy_curve, p99), 2)
      .Nums("proxy_sub_p99_us",
            Column(proxy_curve, [](const Cell& c) { return c.sub_p99_us; }), 2);
  return report.Finish(exp.json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
