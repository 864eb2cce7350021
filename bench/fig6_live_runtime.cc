// Fig. 6 on the LIVE runtime: p99 latency vs offered load for the real-thread ZygOS
// data plane (src/runtime) under an open-loop, coordinated-omission-safe generator
// (src/loadgen) — the measured counterpart of the model-driven fig6_latency_throughput.
//
// Sweeps ascending load points for each requested runtime ablation:
//   zygos        full design (stealing + doorbells)
//   no-steal     RuntimeOptions::enable_stealing = false
//   no-ipi       RuntimeOptions::enable_doorbells = false
//   partitioned  RuntimeMode::kPartitioned (the shared-nothing IX baseline)
// and prints one CSV row per (config, load) cell; `--json=PATH` additionally writes
// the BENCH-contract report (src/loadgen/report.h) with the acceptance booleans
// scripts/ci.sh and scripts/bench_trajectory.sh grep.
//
// Load points come from `--rates` (explicit rps list) or, by default, from a
// calibration probe: one deliberately overloaded run measures the peak sustainable
// throughput, and `--load-fractions` of that peak become the sweep. The service is
// the synthetic spin service (src/loadgen/spin_service.h); on hosts with fewer
// hardware threads than workers use `--service-mode=sleep` (see that header).
//
// `--transport` takes a comma-separated list drawn from loopback|tcp|uring plus the
// io_uring feature-ladder rungs uring+ms|uring+ms+sqp ("uring" is the rung-0
// baseline: multishot and SQPOLL off, i.e. the re-arm pooled-recv path); every
// requested transport sweeps the SAME ascending rate list (calibrated once, on the
// first transport), so uring-vs-epoll and rung-vs-rung comparisons happen at matched
// load. `--uring-ladder` is shorthand for
// `--transport=tcp,uring,uring+ms,uring+ms+sqp`. Socket transports
// additionally report syscalls_per_req (Transport::IoSyscalls over completed
// requests) — the ladder's headline, stepping from epoll's ~2/req through batched
// uring's ~0.7 toward ~0 with SQPOLL. A host without io_uring drops the uring legs
// with a printed `# skip:` note (exit 0 when nothing remains), and a rung whose
// feature the kernel denies is likewise skipped, not silently degraded;
// `--probe-uring` reports availability and the per-feature support set (exit 0/1) so
// harnesses can decide before committing to a sweep.
//
// Usage: fig6_live_runtime [--transport=loopback|tcp|uring|uring+ms|...[,...]]
//   [--uring-ladder] [--workers=N]
//   [--connections=N] [--threads=N] [--arrivals=poisson|fixed] [--dist=NAME]
//   [--service-us=F] [--service-mode=spin|sleep] [--configs=a,b,...]
//   [--rates=r1,r2,...] [--load-fractions=f1,f2,...] [--calibrate-rate=R]
//   [--cell-repeats=N] [--duration-ms=N] [--warmup-ms=N] [--payload=N] [--seed=N]
//   [--skew=BOOL] [--json=PATH] [--probe-uring]
//
// `--cell-repeats=N` (default 1) measures every cell N times and reports the
// median-p99 row (and calibrates from the median peak estimate) — the standard
// defense against one-off scheduler stalls on shared/oversubscribed hosts.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/flags.h"
#include "src/hw/perf_counters.h"
#include "src/common/time_units.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/loadgen.h"
#include "src/loadgen/report.h"
#include "src/loadgen/spin_service.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/socket_transport.h"
#include "src/runtime/tcp_transport.h"
#include "src/runtime/uring_transport.h"

namespace zygos {
namespace {

constexpr const char* kUsage =
    "usage: fig6_live_runtime [--transport=loopback|tcp|uring|uring+ms|uring+ms+sqp"
    "[,...]]\n"
    "  [--uring-ladder] [--workers=N]\n"
    "  [--connections=N] [--threads=N] [--arrivals=poisson|fixed] [--dist=NAME]\n"
    "  [--service-us=F] [--service-mode=spin|sleep] [--configs=zygos,no-steal,...]\n"
    "  [--rates=r1,r2,...] [--load-fractions=f1,f2,...] [--calibrate-rate=R]\n"
    "  [--cell-repeats=N] [--duration-ms=N] [--warmup-ms=N] [--payload=N]\n"
    "  [--seed=N] [--skew=BOOL] [--json=PATH] [--probe-uring]";

struct Config {
  std::string name;
  RuntimeMode mode = RuntimeMode::kZygos;
  bool stealing = true;
  bool doorbells = true;
};

std::optional<Config> ParseConfig(const std::string& name) {
  if (name == "zygos") {
    return Config{name, RuntimeMode::kZygos, true, true};
  }
  if (name == "no-steal") {
    return Config{name, RuntimeMode::kZygos, false, true};
  }
  if (name == "no-ipi") {
    return Config{name, RuntimeMode::kZygos, true, false};
  }
  if (name == "partitioned") {
    return Config{name, RuntimeMode::kPartitioned, false, false};
  }
  return std::nullopt;
}

// io_uring feature-ladder rung encoded in a transport name. Rung 0 ("uring") turns
// every ladder feature OFF — the re-arm pooled-recv baseline — so the
// historical "uring" curve (and the uring-vs-epoll predicates keyed on it) keep
// measuring the same thing; later rungs add features cumulatively.
struct UringRung {
  bool multishot = false;
  bool sqpoll = false;
};

std::optional<UringRung> ParseUringRung(const std::string& name) {
  if (name == "uring") {
    return UringRung{false, false};
  }
  if (name == "uring+ms") {
    return UringRung{true, false};
  }
  if (name == "uring+ms+sqp") {
    return UringRung{true, true};
  }
  return std::nullopt;
}

// Empty when the kernel grants everything the rung requests; otherwise the name of
// the first denied feature (for the `# skip:` note). A rung a kernel cannot serve is
// dropped from the sweep rather than silently degraded — a ladder column must
// measure the feature it is named after.
std::string RungDenied(const UringRung& rung) {
  const UringProbe& probe = ProbeUring();
  if (rung.multishot && !(probe.buf_ring && probe.multishot)) {
    return "multishot recv / provided-buffer ring";
  }
  if (rung.sqpoll && !probe.sqpoll) {
    return "SQPOLL";
  }
  return "";
}

struct Experiment {
  std::string transport;  // "loopback" | "tcp" | "uring[+rungs]" (one cell's backend)
  int workers = 2;
  int connections = 8;
  int threads = 2;
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  std::shared_ptr<const ServiceTimeDistribution> service;
  ServiceMode service_mode = ServiceMode::kSpin;
  Nanos duration = 0;
  Nanos warmup = 0;
  size_t payload = 32;
  uint64_t seed = 1;
  bool skew = true;
};

// Per-request hardware-counter rates from the cell's summed worker counters. The
// denominator is every completion of the run (warmup included) — like
// syscalls_per_req, a steady-state cost ratio, not a window measurement.
void FillPerfRates(LivePoint& point, const WorkerStats& stats, uint64_t completed) {
  if (stats.perf_workers == 0 || completed == 0) {
    return;  // perf_event_open denied (or an idle cell): rates stay "not measured"
  }
  point.perf_valid = true;
  point.cycles_per_req =
      static_cast<double>(stats.perf_cycles) / static_cast<double>(completed);
  point.instructions_per_req =
      static_cast<double>(stats.perf_instructions) / static_cast<double>(completed);
  point.cache_misses_per_req =
      static_cast<double>(stats.perf_cache_misses) / static_cast<double>(completed);
}

// Runs one (config, rate) cell on the live runtime and returns the measured point.
LivePoint RunCell(const Experiment& exp, const Config& config, double rate) {
  RuntimeOptions options;
  options.num_workers = exp.workers;
  options.mode = config.mode;
  options.num_flows = exp.connections;
  options.enable_stealing = config.stealing;
  options.enable_doorbells = config.doorbells;

  ViewHandler handler = MakeSpinService(exp.service, exp.service_mode, exp.seed + 97);

  LivePoint point;
  point.config = config.name;
  point.transport = exp.transport;
  point.offered_rps = rate;

  std::optional<UringRung> rung = ParseUringRung(exp.transport);
  if (exp.transport == "tcp" || rung) {
    // Transport geometry derives from the runtime options (single source of truth
    // for the flow cap — see TcpOptionsFor).
    std::unique_ptr<SocketTransportBase> transport;
    if (rung) {
      UringTransportOptions uring(TcpOptionsFor(options));
      uring.multishot = rung->multishot;
      uring.sqpoll = rung->sqpoll;
      transport = std::make_unique<UringTransport>(uring);
    } else {
      transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
    }
    SocketTransportBase* sock = transport.get();
    Runtime runtime(options, std::move(transport), handler);
    if (exp.skew) {
      runtime.mutable_rss().SetIndirection(
          std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
    }
    runtime.Start();

    TcpLoadgenOptions gen;
    gen.port = sock->port();
    gen.connections = exp.connections;
    gen.threads = exp.threads;
    gen.arrivals = exp.arrivals;
    gen.rate_rps = rate;
    gen.duration = exp.duration;
    gen.warmup = exp.warmup;
    gen.seed = exp.seed;
    gen.make_payload = [size = exp.payload](Rng&, std::string& out) {
      out.assign(size, 'x');
    };
    TcpLoadgenResult result = RunTcpLoadgen(gen);
    runtime.Shutdown();

    point.achieved_rps = result.achieved_rps();
    point.sent = result.sent;
    point.measured = result.measured;
    point.dropped = result.lost;
    point.send_lag_max_us = ToMicros(result.max_send_lag);
    point.p50_us = ToMicros(result.latency.P50());
    point.p99_us = ToMicros(result.latency.P99());
    point.p999_us = ToMicros(result.latency.P999());
    point.mean_us = result.latency.Mean() / 1e3;
    point.max_us = ToMicros(result.latency.Max());
    WorkerStats stats = runtime.TotalStats();
    point.steals = runtime.TotalShuffleStats().steals;
    point.stolen_events = stats.stolen_events;
    point.doorbells_sent = stats.doorbells_sent;
    point.remote_syscalls = stats.remote_syscalls;
    point.sheds = stats.sheds_deadline + stats.sheds_fairness + stats.sheds_admission;
    // Data-path syscalls amortized over every completed echo of the run (warmup
    // included — it is a steady-state ratio, not a window measurement). epoll pays
    // recv+send per request; batched uring pays io_uring_enter per poll pass.
    uint64_t completed = runtime.Completed();
    point.syscalls_per_req =
        completed > 0 ? static_cast<double>(sock->IoSyscalls()) /
                            static_cast<double>(completed)
                      : 0.0;
    FillPerfRates(point, stats, completed);
    if (!result.clean) {
      std::fprintf(stderr,
                   "fig6_live_runtime: [%s @ %.0f rps] unclean TCP run "
                   "(lost=%llu mismatches=%llu)\n",
                   config.name.c_str(), rate,
                   static_cast<unsigned long long>(result.lost),
                   static_cast<unsigned long long>(result.mismatches));
    }
    return point;
  }

  // Loopback: in-process generator thread drives Runtime::Inject directly.
  MeasuredCompletion completion;
  Runtime runtime(options, handler, completion.Handler());
  if (exp.skew) {
    runtime.mutable_rss().SetIndirection(
        std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  }
  runtime.Start();

  GeneratorOptions gen;
  gen.arrivals = exp.arrivals;
  gen.rate_rps = rate;
  gen.duration = exp.duration;
  gen.num_flows = exp.connections;
  gen.payload_size = exp.payload;
  gen.seed = exp.seed;
  OpenLoopGenerator generator(gen);
  LoopbackSink sink(runtime);

  Nanos start = NowNanos();
  completion.set_measure_start(start + exp.warmup);
  GeneratorResult sent = generator.RunFrom(start, sink);
  // Quiesce before reading the clock: achieved throughput counts the drain tail, so
  // an overloaded point honestly reports its sustainable rate, not the offered one.
  while (runtime.Completed() < runtime.Injected()) {
    std::this_thread::yield();
  }
  Nanos end = NowNanos();
  runtime.Shutdown();

  LatencyHistogram hist = completion.Snapshot();
  Nanos window = end - completion.measure_start();
  point.achieved_rps = window > 0 ? static_cast<double>(completion.measured_count()) *
                                        1e9 / static_cast<double>(window)
                                  : 0.0;
  point.sent = sent.sent;
  point.measured = completion.measured_count();
  point.dropped = sent.dropped;
  point.send_lag_max_us = ToMicros(sent.max_send_lag);
  point.p50_us = ToMicros(hist.P50());
  point.p99_us = ToMicros(hist.P99());
  point.p999_us = ToMicros(hist.P999());
  point.mean_us = hist.Mean() / 1e3;
  point.max_us = ToMicros(hist.Max());
  WorkerStats stats = runtime.TotalStats();
  point.steals = runtime.TotalShuffleStats().steals;
  point.stolen_events = stats.stolen_events;
  point.doorbells_sent = stats.doorbells_sent;
  point.remote_syscalls = stats.remote_syscalls;
  point.sheds = stats.sheds_deadline + stats.sheds_fairness + stats.sheds_admission;
  FillPerfRates(point, stats, runtime.Completed());
  return point;
}

// Runs a cell `repeats` times and keeps the row with the MEDIAN p99. On an
// oversubscribed host, one scheduler stall inside a cell adds tens of ms that the
// CO-safe accounting must (and does) book into that cell's tail; the median
// discards such one-off artifacts without the downward bias min-of-N would have.
// The whole median ROW is returned (not per-field medians) so a point's counters
// — steals, syscalls_per_req, achieved_rps — stay mutually consistent.
LivePoint MeasureCell(const Experiment& exp, const Config& config, double rate,
                      int repeats) {
  std::vector<LivePoint> runs;
  runs.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    runs.push_back(RunCell(exp, config, rate));
  }
  std::sort(runs.begin(), runs.end(), [](const LivePoint& a, const LivePoint& b) {
    return a.p99_us < b.p99_us;
  });
  return runs[runs.size() / 2];
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Experiment exp;
  exp.transport = flags.GetString("transport", "loopback");
  exp.workers = static_cast<int>(flags.GetInt("workers", 2));
  exp.connections = static_cast<int>(flags.GetInt("connections", 8));
  exp.threads = static_cast<int>(flags.GetInt("threads", 2));
  const std::string arrivals_name = flags.GetString("arrivals", "poisson");
  const std::string dist_name = flags.GetString("dist", "exponential");
  const double service_us = flags.GetDouble("service-us", 200.0);
  const std::string mode_name = flags.GetString("service-mode", "spin");
  const std::string configs_csv = flags.GetString("configs", "zygos,no-steal,no-ipi");
  const std::string rates_csv = flags.GetString("rates", "");
  const std::string fractions_csv =
      flags.GetString("load-fractions", "0.25,0.5,0.75,0.95");
  const double calibrate_rate = flags.GetDouble("calibrate-rate", 0.0);
  const int cell_repeats = static_cast<int>(flags.GetInt("cell-repeats", 1));
  exp.duration = flags.GetInt("duration-ms", 500) * kMillisecond;
  exp.warmup = flags.GetInt("warmup-ms", 150) * kMillisecond;
  exp.payload = static_cast<size_t>(flags.GetInt("payload", 32));
  exp.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  exp.skew = flags.GetBool("skew", true);
  const std::string json_path = flags.GetString("json", "");
  const bool probe_uring = flags.GetBool("probe-uring", false);
  const bool uring_ladder = flags.GetBool("uring-ladder", false);
  if (!flags.CheckUnknown(kUsage)) {
    return 2;
  }

  if (probe_uring) {
    // Capability probe for harnesses (scripts/ci.sh): no sweep, just the verdict.
    // The first line's "available"/"unavailable" verdict is the stable grep target;
    // the second line carries the per-feature support set so harnesses can gate
    // individual ladder rungs (`grep 'sqpoll=1'`).
    if (UringTransport::Available()) {
      const UringProbe& probe = ProbeUring();
      std::printf("io_uring: available\n");
      std::printf("io_uring: features multishot=%d sqpoll=%d\n",
                  (probe.buf_ring && probe.multishot) ? 1 : 0, probe.sqpoll ? 1 : 0);
      return 0;
    }
    std::printf("io_uring: unavailable: %s\n",
                UringTransport::UnavailableReason().c_str());
    return 1;
  }

  if (uring_ladder) {
    // The full matched-load ladder: epoll reference, then each uring rung.
    exp.transport = "tcp,uring,uring+ms,uring+ms+sqp";
  }
  std::vector<std::string> transports;
  for (const std::string& name : SplitCsv(exp.transport)) {
    std::optional<UringRung> rung = ParseUringRung(name);
    if (name != "loopback" && name != "tcp" && !rung) {
      std::fprintf(stderr, "fig6_live_runtime: unknown --transport=%s\n%s\n",
                   name.c_str(), kUsage);
      return 2;
    }
    if (rung) {
      // Graceful capability fallback: drop the leg, keep the sweep honest about it.
      if (!UringTransport::Available()) {
        std::printf("# skip: transport=%s (io_uring unavailable: %s)\n", name.c_str(),
                    UringTransport::UnavailableReason().c_str());
        continue;
      }
      std::string denied = RungDenied(*rung);
      if (!denied.empty()) {
        std::printf("# skip: transport=%s (kernel denies %s)\n", name.c_str(),
                    denied.c_str());
        continue;
      }
    }
    if (std::find(transports.begin(), transports.end(), name) == transports.end()) {
      transports.push_back(name);
    }
  }
  if (transports.empty()) {
    std::printf("# skip: no usable transport requested — nothing to sweep\n");
    return 0;
  }
  // The echoed transport list reflects what actually runs (post uring-skip).
  std::string transports_joined;
  for (const std::string& name : transports) {
    transports_joined += (transports_joined.empty() ? "" : ",") + name;
  }
  exp.transport = transports.front();
  auto arrivals = ParseArrivalKind(arrivals_name);
  auto service_mode = ParseServiceMode(mode_name);
  if (!arrivals || !service_mode) {
    std::fprintf(stderr, "fig6_live_runtime: bad --arrivals or --service-mode\n%s\n",
                 kUsage);
    return 2;
  }
  exp.arrivals = *arrivals;
  exp.service_mode = *service_mode;
  exp.service = MakeDistribution(dist_name, FromMicros(service_us));
  if (!exp.service) {
    std::fprintf(stderr, "fig6_live_runtime: unknown --dist=%s\n%s\n",
                 dist_name.c_str(), kUsage);
    return 2;
  }
  if (exp.workers < 1 || exp.connections < 1 || exp.threads < 1 ||
      exp.duration <= exp.warmup) {
    std::fprintf(stderr,
                 "fig6_live_runtime: need workers/connections/threads >= 1 and "
                 "--duration-ms > --warmup-ms\n%s\n",
                 kUsage);
    return 2;
  }
  if (cell_repeats < 1) {
    std::fprintf(stderr, "fig6_live_runtime: --cell-repeats must be >= 1\n%s\n",
                 kUsage);
    return 2;
  }

  std::vector<Config> configs;
  for (const std::string& name : SplitCsv(configs_csv)) {
    auto config = ParseConfig(name);
    if (!config) {
      std::fprintf(stderr, "fig6_live_runtime: unknown config '%s' in --configs\n%s\n",
                   name.c_str(), kUsage);
      return 2;
    }
    configs.push_back(*config);
  }
  if (configs.empty()) {
    std::fprintf(stderr, "fig6_live_runtime: --configs is empty\n%s\n", kUsage);
    return 2;
  }

  std::printf("# fig6_live_runtime: transport=%s dist=%s service_us=%.1f mode=%s "
              "arrivals=%s workers=%d connections=%d skew=%d duration_ms=%.0f "
              "warmup_ms=%.0f seed=%llu\n",
              transports_joined.c_str(), dist_name.c_str(), service_us,
              ServiceModeName(exp.service_mode), ArrivalKindName(exp.arrivals),
              exp.workers, exp.connections, exp.skew ? 1 : 0,
              static_cast<double>(exp.duration) / 1e6,
              static_cast<double>(exp.warmup) / 1e6,
              static_cast<unsigned long long>(exp.seed));

  // Load points: explicit list, or fractions of a calibrated peak.
  std::vector<double> rates;
  for (const std::string& token : SplitCsv(rates_csv)) {
    double rate = ParseFlagNumberOrDie("rates", token, kUsage);
    if (rate <= 0) {
      std::fprintf(stderr, "fig6_live_runtime: --rates entries must be > 0\n");
      return 2;
    }
    rates.push_back(rate);
  }
  if (rates.empty()) {
    // Overload probe: offered load far beyond nominal capacity; the achieved
    // completion rate IS the peak sustainable throughput on this host. Calibrated
    // once, on the first requested transport, so every transport then sweeps the
    // same rate list (matched-load comparisons).
    double nominal = static_cast<double>(exp.workers) * 1e9 /
                     exp.service->MeanNanos();
    double probe = calibrate_rate > 0 ? calibrate_rate : 3.0 * nominal;
    std::printf("# calibration: probing peak throughput at %.0f rps (zygos, %s)...\n",
                probe, transports.front().c_str());
    std::fflush(stdout);
    exp.transport = transports.front();
    // Median of `--cell-repeats` probes, by achieved rps (the statistic this step
    // reads): a single probe's peak estimate swings ~15% run to run on a noisy
    // host, and every downstream rate is a fraction of it.
    std::vector<double> peaks;
    for (int i = 0; i < cell_repeats; ++i) {
      peaks.push_back(RunCell(exp, Config{"zygos", RuntimeMode::kZygos, true, true},
                              probe)
                          .achieved_rps);
    }
    std::sort(peaks.begin(), peaks.end());
    double peak = peaks[peaks.size() / 2];
    if (peak <= 0) {
      std::fprintf(stderr, "fig6_live_runtime: calibration produced no throughput\n");
      return 1;
    }
    std::printf("# calibration: peak sustainable throughput = %.0f rps\n", peak);
    for (const std::string& token : SplitCsv(fractions_csv)) {
      double fraction = ParseFlagNumberOrDie("load-fractions", token, kUsage);
      if (fraction <= 0) {
        std::fprintf(stderr,
                     "fig6_live_runtime: --load-fractions entries must be > 0\n");
        return 2;
      }
      rates.push_back(fraction * peak);
    }
  }
  // The peak-load headline, the JSON metric and both acceptance predicates all read
  // the LAST point of a curve as "the highest load" — make that true by construction.
  std::sort(rates.begin(), rates.end());

  LiveRunInfo info;
  info.transport = transports_joined;
  info.distribution = dist_name;
  info.service_us = service_us;
  info.service_mode = ServiceModeName(exp.service_mode);
  info.arrivals = ArrivalKindName(exp.arrivals);
  info.workers = exp.workers;
  info.connections = exp.connections;
  info.skew = exp.skew;
  info.duration_ms = static_cast<double>(exp.duration) / 1e6;
  info.warmup_ms = static_cast<double>(exp.warmup) / 1e6;
  info.seed = exp.seed;
  info.perf_available = PerfCountersAvailable();
  info.perf_reason = info.perf_available ? "" : PerfCountersUnavailableReason();
  if (!info.perf_available) {
    std::printf("# note: perf counters unavailable (%s) — cycles/insns/miss "
                "columns report 0\n",
                info.perf_reason.c_str());
  }

  PrintLiveCsvHeader(stdout);
  std::vector<LivePoint> points;
  for (const std::string& transport : transports) {
    exp.transport = transport;
    for (const Config& config : configs) {
      for (double rate : rates) {
        LivePoint point = MeasureCell(exp, config, rate, cell_repeats);
        PrintLiveCsvRow(stdout, point);
        std::fflush(stdout);
        points.push_back(std::move(point));
      }
    }
  }

  // Headline: the acceptance view of the sweep (stable format; scripts grep it).
  // Peaks read the last matching row: rates ascend, so that is the highest load of
  // the LAST swept transport (all transports run the same rate list).
  double zygos_peak = 0, no_steal_peak = 0;
  double uring_syscalls = 0, epoll_syscalls = 0;
  uint64_t zygos_sheds = 0;
  for (const LivePoint& point : points) {
    if (point.config == "zygos") {
      zygos_peak = point.p99_us;
      zygos_sheds = point.sheds;
      if (point.transport == "uring") {
        uring_syscalls = point.syscalls_per_req;
      } else if (point.transport == "tcp") {
        epoll_syscalls = point.syscalls_per_req;
      }
    }
    if (point.config == "no-steal") {
      no_steal_peak = point.p99_us;
    }
  }
  std::printf("# headline: live p99@peak zygos=%.1fus no-steal=%.1fus sheds=%llu "
              "monotone=%s steal_leq_no_steal=%s\n",
              zygos_peak, no_steal_peak,
              static_cast<unsigned long long>(zygos_sheds),
              ZygosP99MonotoneInLoad(points) ? "yes" : "no",
              StealLeqNoStealAtPeak(points) ? "yes" : "no");
  std::printf("# headline: syscalls/req@peak epoll=%.3f uring=%.3f "
              "uring_p99_leq_epoll=%s uring_syscalls_below_epoll=%s\n",
              epoll_syscalls, uring_syscalls,
              UringP99LeqEpollAtPeak(points) ? "yes" : "no",
              UringSyscallsBelowEpoll(points) ? "yes" : "no");
  // Ladder headline only when at least one feature rung actually swept: the
  // rung-by-rung syscall staircase plus its two JSON acceptance booleans.
  bool any_rung = false;
  std::string ladder_cells;
  for (const char* name : {"uring", "uring+ms", "uring+ms+sqp"}) {
    double syscalls = -1;
    for (const LivePoint& point : points) {
      if (point.config == "zygos" && point.transport == name) {
        syscalls = point.syscalls_per_req;  // rates ascend: last row = peak load
      }
    }
    if (syscalls < 0) {
      continue;
    }
    any_rung = any_rung || std::string(name) != "uring";
    char cell[64];
    std::snprintf(cell, sizeof cell, " %s=%.3f", name, syscalls);
    ladder_cells += cell;
  }
  if (any_rung) {
    std::printf("# headline: uring ladder syscalls/req@peak%s "
                "strictly_decreasing=%s full_ladder_leq_0.1=%s\n",
                ladder_cells.c_str(),
                UringLadderSyscallsStrictlyDecreasing(points) ? "yes" : "no",
                UringFullLadderSyscallsLeq0p1(points) ? "yes" : "no");
  }

  if (!json_path.empty() && !WriteLiveJsonReport(json_path, info, points)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
