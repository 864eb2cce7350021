// Overload control on the LIVE runtime: goodput, shed rate and p99-of-admitted as
// offered load sweeps past saturation — the regime the fig6 sweeps deliberately
// avoid and production systems live in. SWP ("Microsecond Network SLOs Without
// Priorities", PAPERS.md) frames admission as an SLO problem: the server should
// serve its capacity *inside* the SLO and refuse the rest early, instead of letting
// unbounded queueing make every completion late (the no-shed baseline here, and the
// collapse "Deconstructing the Tail at Scale Effect" attributes to queueing delay).
//
// Protocol (all loads are multiples of a CALIBRATED peak, not the analytic nominal,
// so host speed never skews the sweep):
//   1. calibrate  — overload-enabled run at 3x the analytic nominal rate
//                   (workers / service): achieved_rps is the host's true service
//                   capacity, `peak`.
//   2. baseline   — no-shed run at 0.8x peak: its p99/max seed the deadline budget,
//                   budget = max(3 x p99_base, 2 x max_base, 4 x analytic M/M/c p99
//                   wait, 10 ms) — the analytic floor ties the budget to the
//                   queueing layer's operating point (src/queueing/analytic.h), the
//                   measured terms make "zero sheds below saturation" robust on a
//                   noisy host. SLO = 4 x budget (2x for the server-side queueing
//                   budget, 2x again for client-observed residency the server
//                   cannot measure: kernel socket buffers, TX, generator lag).
//   3. sweep      — {0.8, 1, 2, 4, 10} x peak, configs `zygos` (deadline shedding +
//                   adaptive admission) and `no-shed` (overload control off).
//                   Goodput = completions inside the SLO per second of measured
//                   window; sheds are counted separately on both sides of the wire
//                   and the loadgen ledger must balance (completed + shed + lost
//                   == sent) in every cell.
//
// stdout: one CSV row per cell (config FIRST column, bench/README.md contract) plus
// a `# headline:` line; --json=PATH writes the BENCH-contract report with the
// acceptance booleans scripts/bench_trajectory.sh and scripts/ci.sh gate on:
//   goodput_at_2x_geq_090_peak, admitted_p99_bounded_under_overload,
//   no_shed_collapses, zero_sheds_below_saturation, shed_fraction_tracks_analytic,
//   ledger_balanced
// and the measured shed curve next to the analytic prediction max(0, 1 - 1/m).
// Exit status is 0 iff every boolean holds (gates of the shared BENCH writer,
// src/loadgen/experiment.h).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/overload/admission.h"
#include "src/queueing/analytic.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"

namespace zygos {
namespace {

constexpr const char* kUsage =
    "usage: overload_live_runtime [--workers=N] [--connections=N] [--threads=N]\n"
    "  [--service-us=N] [--multipliers=m1,m2,...] [--duration-ms=N] [--warmup-ms=N]\n"
    "  [--budget-ms=N] [--slo-ms=N] [--payload=N] [--seed=N] [--json=PATH]";

struct Experiment : LiveFlags {
  Nanos service = kMillisecond;
};

// One sweep cell, finished once the SLO is known.
struct Cell {
  std::string config;  // "zygos" | "no-shed"
  double multiplier = 0;
  double offered_rps = 0;
  double achieved_rps = 0;   // admitted completions / measured window
  double goodput_rps = 0;    // completions inside the SLO / measured window
  double p99_admitted_us = 0;
  double shed_fraction = 0;  // shed / sent, whole run
  double predicted_shed = 0; // analytic max(0, 1 - 1/m)
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t lost = 0;
  uint64_t sheds_deadline = 0;
  uint64_t sheds_fairness = 0;
  uint64_t sheds_admission = 0;
  bool clean = false;
  bool ledger_ok = false;
};

struct RawCell {
  TcpLoadgenResult result;
  WorkerStats stats;
};

// Echo with a fixed sleep service time: capacity = workers / service independent of
// host CPU speed (sleeps overlap even on one hardware thread), so the overload
// multipliers mean the same thing on every machine.
ViewHandler SleepEcho(Nanos service) {
  return [service](uint64_t, std::string_view request, ResponseBuilder& out) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(service));
    out.Append(request);
  };
}

RawCell RunRaw(const Experiment& exp, bool overload_on, double rate, Nanos budget,
               Nanos slo, uint64_t seed_salt) {
  RuntimeOptions options;
  options.num_workers = exp.workers;
  options.num_flows = std::max(64, exp.connections);
  options.overload.enabled = overload_on;
  options.overload.slo = slo;
  options.overload.deadline_budget = budget;
  options.overload.adaptive = overload_on;  // target derives to budget/2
  auto transport = std::make_unique<TcpTransport>(TcpOptionsFor(options));
  TcpTransport* tcp = transport.get();
  Runtime runtime(options, std::move(transport), SleepEcho(exp.service));
  runtime.Start();

  TcpLoadgenOptions gen = LiveLoadgenOptions(exp, tcp->port(), rate);
  gen.seed = exp.seed + seed_salt;
  // Bounded drain: a collapsed no-shed cell holds seconds of backlog the harness
  // must not wait out — undrained requests count as `lost`, the ledger still
  // balances, and teardown refusals reclaim the server side.
  gen.drain_timeout = 3 * kSecond;
  RawCell raw;
  raw.result = RunTcpLoadgen(gen);
  runtime.Shutdown();
  raw.stats = runtime.TotalStats();
  return raw;
}

Cell FinishCell(const std::string& config, double multiplier, double rate,
                const RawCell& raw, Nanos slo) {
  const TcpLoadgenResult& r = raw.result;
  Cell cell;
  cell.config = config;
  cell.multiplier = multiplier;
  cell.offered_rps = rate;
  cell.achieved_rps = r.achieved_rps();
  Nanos window = r.measure_end - r.measure_start;
  if (window > 0 && r.latency.Count() > 0) {
    double within =
        static_cast<double>(r.latency.Count()) * (1.0 - r.latency.Ccdf(slo));
    cell.goodput_rps = within * 1e9 / static_cast<double>(window);
  }
  cell.p99_admitted_us = ToMicros(r.latency.P99());
  cell.sent = r.sent;
  cell.completed = r.completed;
  cell.shed = r.shed;
  cell.lost = r.lost;
  cell.shed_fraction =
      r.sent > 0 ? static_cast<double>(r.shed) / static_cast<double>(r.sent) : 0.0;
  cell.predicted_shed = PredictedShedFraction(multiplier);
  cell.sheds_deadline = raw.stats.sheds_deadline;
  cell.sheds_fairness = raw.stats.sheds_fairness;
  cell.sheds_admission = raw.stats.sheds_admission;
  cell.clean = r.clean;
  cell.ledger_ok = r.completed + r.shed + r.lost == r.sent;
  return cell;
}

void PrintCell(const Cell& cell) {
  std::printf("%s,%.2f,%.0f,%.0f,%.0f,%.1f,%llu,%llu,%llu,%llu,%.4f,%.4f,"
              "%llu,%llu,%llu,%d,%d\n",
              cell.config.c_str(), cell.multiplier, cell.offered_rps,
              cell.achieved_rps, cell.goodput_rps, cell.p99_admitted_us,
              static_cast<unsigned long long>(cell.sent),
              static_cast<unsigned long long>(cell.completed),
              static_cast<unsigned long long>(cell.shed),
              static_cast<unsigned long long>(cell.lost), cell.shed_fraction,
              cell.predicted_shed,
              static_cast<unsigned long long>(cell.sheds_deadline),
              static_cast<unsigned long long>(cell.sheds_fairness),
              static_cast<unsigned long long>(cell.sheds_admission),
              cell.clean ? 1 : 0, cell.ledger_ok ? 1 : 0);
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Experiment exp;
  exp.name = "overload_live_runtime";
  exp.usage = kUsage;
  exp.duration = 1200 * kMillisecond;
  exp.warmup = 300 * kMillisecond;
  exp.arrivals.reset();
  exp.service = flags.GetInt("service-us", 1000) * kMicrosecond;
  const std::string multipliers_csv = flags.GetString("multipliers", "0.8,1,2,4,10");
  Nanos budget_flag = flags.GetInt("budget-ms", 0) * kMillisecond;
  Nanos slo_flag = flags.GetInt("slo-ms", 0) * kMillisecond;
  if (!ParseLiveFlags(flags, exp)) {
    return 2;
  }
  if (exp.service <= 0) {
    std::fprintf(stderr, "overload_live_runtime: need --service-us > 0\n%s\n", kUsage);
    return 2;
  }
  std::vector<double> multipliers;
  if (!ParseNumbers(exp, "multipliers", multipliers_csv, "> 0",
                    [](double m) { return m > 0; }, multipliers)) {
    return 2;
  }
  std::sort(multipliers.begin(), multipliers.end());

  double nominal_rps =
      static_cast<double>(exp.workers) * 1e9 / static_cast<double>(exp.service);

  // 1. Calibrate the host's true peak with overload control ON (a generous
  // provisional budget): shedding keeps the run sane at 3x nominal, achieved_rps is
  // the service capacity after sleep overshoot and runtime overhead. An
  // underestimate only makes the sweep gentler relative to true capacity — every
  // boolean is calibration-relative, so the protocol stays sound.
  Nanos provisional_budget = std::max<Nanos>(20 * exp.service, 50 * kMillisecond);
  std::printf("# calibrating peak at 3x nominal (%.0f rps)...\n", 3 * nominal_rps);
  std::fflush(stdout);
  RawCell calib = RunRaw(exp, /*overload_on=*/true, 3 * nominal_rps,
                         provisional_budget, 4 * provisional_budget,
                         /*seed_salt=*/7001);
  double peak_rps = calib.result.achieved_rps();
  if (peak_rps <= 0) {
    std::fprintf(stderr, "overload_live_runtime: calibration served nothing\n");
    return 1;
  }

  // 2. Baseline at 0.8x peak with overload OFF: seeds the deadline budget and
  // doubles as the no-shed 0.8x sweep cell.
  std::printf("# baseline no-shed at 0.8x peak (%.0f rps)...\n", 0.8 * peak_rps);
  std::fflush(stdout);
  RawCell baseline = RunRaw(exp, /*overload_on=*/false, 0.8 * peak_rps, 0, 0,
                            /*seed_salt=*/7002);
  Nanos p99_base = baseline.result.latency.P99();
  Nanos max_base = baseline.result.latency.Max();
  // Analytic floor: M/M/c p99 waiting time at the baseline operating point (rates
  // in events/ns, src/queueing/analytic.h) — the slo_search-style seed the adaptive
  // controller's target ultimately derives from (target = budget/2 via the
  // resolver).
  double mu = 1.0 / static_cast<double>(exp.service);
  double lambda_base = 0.8 * peak_rps / 1e9;
  double analytic_wait =
      lambda_base < exp.workers * mu
          ? MmcWaitQuantile(exp.workers, lambda_base, mu, 0.99)
          : 0.0;
  Nanos budget = budget_flag > 0
                     ? budget_flag
                     : std::max({3 * p99_base, 2 * max_base,
                                 static_cast<Nanos>(4.0 * analytic_wait),
                                 10 * kMillisecond});
  Nanos slo = slo_flag > 0 ? slo_flag : 4 * budget;

  std::printf("# overload_live_runtime: workers=%d connections=%d threads=%d "
              "service_us=%.0f peak_rps=%.0f budget_ms=%.1f slo_ms=%.1f "
              "analytic_wait_p99_us=%.1f duration_ms=%.0f warmup_ms=%.0f seed=%llu\n",
              exp.workers, exp.connections, exp.threads, ToMicros(exp.service),
              peak_rps, static_cast<double>(budget) / 1e6,
              static_cast<double>(slo) / 1e6, analytic_wait / 1e3,
              static_cast<double>(exp.duration) / 1e6,
              static_cast<double>(exp.warmup) / 1e6,
              static_cast<unsigned long long>(exp.seed));
  std::printf("config,multiplier,offered_rps,achieved_rps,goodput_rps,"
              "p99_admitted_us,sent,completed,shed,lost,shed_fraction,"
              "predicted_shed,sheds_deadline,sheds_fairness,sheds_admission,"
              "clean,ledger_ok\n");

  // 3. The sweep: both configs over every multiplier, ascending, zygos first per
  // load. The baseline run above is reused as the no-shed cell nearest 0.8x.
  std::vector<Cell> cells;
  for (size_t i = 0; i < multipliers.size(); ++i) {
    double m = multipliers[i];
    double rate = m * peak_rps;
    RawCell zygos_raw = RunRaw(exp, /*overload_on=*/true, rate, budget, slo,
                               /*seed_salt=*/100 + i);
    cells.push_back(FinishCell("zygos", m, rate, zygos_raw, slo));
    PrintCell(cells.back());
    if (std::abs(m - 0.8) < 1e-9) {
      cells.push_back(FinishCell("no-shed", m, rate, baseline, slo));
    } else {
      RawCell no_shed_raw = RunRaw(exp, /*overload_on=*/false, rate, 0, 0,
                                   /*seed_salt=*/200 + i);
      cells.push_back(FinishCell("no-shed", m, rate, no_shed_raw, slo));
    }
    PrintCell(cells.back());
  }

  auto find_cell = [&cells](const std::string& config,
                            double m) -> const Cell* {
    for (const Cell& cell : cells) {
      if (cell.config == config && std::abs(cell.multiplier - m) < 1e-9) {
        return &cell;
      }
    }
    return nullptr;
  };

  // The no-overload peak goodput: best no-shed cell at or below saturation.
  double peak_goodput = 0;
  for (const Cell& cell : cells) {
    if (cell.config == "no-shed" && cell.multiplier <= 1.0 + 1e-9) {
      peak_goodput = std::max(peak_goodput, cell.goodput_rps);
    }
  }

  const Cell* zygos_2x = find_cell("zygos", 2.0);
  const Cell* no_shed_2x = find_cell("no-shed", 2.0);
  bool goodput_at_2x = true;
  bool no_shed_collapses = true;
  double goodput_ratio_2x = 0;
  if (zygos_2x != nullptr && peak_goodput > 0) {
    goodput_ratio_2x = zygos_2x->goodput_rps / peak_goodput;
    goodput_at_2x = goodput_ratio_2x >= 0.9;
  }
  if (no_shed_2x != nullptr && peak_goodput > 0) {
    no_shed_collapses = no_shed_2x->goodput_rps < 0.5 * peak_goodput;
  }
  // p99-of-admitted stays inside the SLO at the acceptance cell (2x). Deeper
  // overload cells are reported in the arrays: past ~4x the client-observed tail
  // includes kernel-socket residency the server's budget cannot see.
  bool admitted_p99_bounded =
      zygos_2x == nullptr ||
      zygos_2x->p99_admitted_us <= static_cast<double>(slo) / 1e3;
  bool zero_sheds_below_saturation = true;
  bool shed_tracks_analytic = true;
  bool ledger_balanced = true;
  for (const Cell& cell : cells) {
    ledger_balanced = ledger_balanced && cell.ledger_ok;
    if (cell.config != "zygos") {
      continue;
    }
    if (cell.multiplier < 1.0 - 1e-9) {
      zero_sheds_below_saturation = zero_sheds_below_saturation && cell.shed == 0 &&
                                    cell.sheds_deadline == 0 &&
                                    cell.sheds_fairness == 0 &&
                                    cell.sheds_admission == 0;
    }
    if (cell.multiplier >= 2.0 - 1e-9) {
      shed_tracks_analytic =
          shed_tracks_analytic &&
          std::abs(cell.shed_fraction - cell.predicted_shed) <= 0.2;
    }
  }

  std::printf("# headline: overload goodput@2x=%.0f/s peak=%.0f/s ratio=%.2f "
              "goodput_at_2x_geq_090_peak=%s admitted_p99_bounded=%s "
              "no_shed_collapses=%s zero_sheds_below_saturation=%s "
              "shed_fraction_tracks_analytic=%s ledger_balanced=%s\n",
              zygos_2x != nullptr ? zygos_2x->goodput_rps : 0.0, peak_goodput,
              goodput_ratio_2x, goodput_at_2x ? "yes" : "no",
              admitted_p99_bounded ? "yes" : "no", no_shed_collapses ? "yes" : "no",
              zero_sheds_below_saturation ? "yes" : "no",
              shed_tracks_analytic ? "yes" : "no", ledger_balanced ? "yes" : "no");

  BenchReport report("overload_goodput_ratio_at_2x", goodput_ratio_2x, "ratio", 3);
  report.params()
      .Int("threads", exp.threads)
      .Num("service_us", ToMicros(exp.service), 0)
      .Int("payload", *exp.payload)
      .Num("peak_rps", peak_rps, 0)
      .Num("peak_goodput_rps", peak_goodput, 0)
      .Num("budget_ms", static_cast<double>(budget) / 1e6, 2)
      .Num("slo_ms", static_cast<double>(slo) / 1e6, 2)
      .Num("analytic_wait_p99_us", analytic_wait / 1e3, 1);
  AddRunParams(report.params(), exp);
  report.Gate("goodput_at_2x_geq_090_peak", goodput_at_2x)
      .Gate("admitted_p99_bounded_under_overload", admitted_p99_bounded)
      .Gate("no_shed_collapses", no_shed_collapses)
      .Gate("zero_sheds_below_saturation", zero_sheds_below_saturation)
      .Gate("shed_fraction_tracks_analytic", shed_tracks_analytic)
      .Gate("ledger_balanced", ledger_balanced);
  auto column = [&cells](const std::string& config, double Cell::*field) {
    std::vector<double> values;
    for (const Cell& cell : cells) {
      if (cell.config == config) {
        values.push_back(cell.*field);
      }
    }
    return values;
  };
  report.params()
      .Nums("multipliers", column("zygos", &Cell::multiplier), 2)
      .Nums("zygos_goodput_rps", column("zygos", &Cell::goodput_rps), 0)
      .Nums("no_shed_goodput_rps", column("no-shed", &Cell::goodput_rps), 0)
      .Nums("zygos_p99_admitted_us", column("zygos", &Cell::p99_admitted_us), 1)
      .Nums("no_shed_p99_us", column("no-shed", &Cell::p99_admitted_us), 1)
      .Nums("zygos_shed_fraction", column("zygos", &Cell::shed_fraction), 4)
      .Nums("predicted_shed_fraction", column("zygos", &Cell::predicted_shed), 4);
  return report.Finish(exp.json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
