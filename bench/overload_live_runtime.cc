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
//   3. sweep      — {0.8, 1, 2, 4, 10} x peak, configs `zygos` (deadline shedding:
//                   a request whose queueing delay exceeds the budget is answered
//                   with the wire-level shed frame) and `no-shed` (budget 0).
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
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/spin_service.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/queueing/analytic.h"

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
  double multiplier = 0;
  // Config ("zygos" | "no-shed"), offered rate, admitted completions / measured
  // window, p99 of the admitted, sent, lost (`dropped`) and the server's deadline
  // sheds.
  LivePoint live;
  double goodput_rps = 0;    // completions inside the SLO / measured window
  double shed_fraction = 0;  // shed / sent, whole run
  double predicted_shed = 0; // analytic max(0, 1 - 1/m)
  uint64_t completed = 0;
  uint64_t shed = 0;
  bool clean = false;
  bool ledger_ok = false;
};

// One run at `rate` of the sleep service behind a runtime whose deadline budget is
// `budget` (RuntimeOptions::deadline_budget: > 0 turns on deadline shedding, 0 is the
// no-shed server). The service echoes after a fixed sleep: capacity = workers /
// service independent of host CPU speed (sleeps overlap even on one hardware thread),
// so the overload multipliers mean the same thing on every machine.
LiveCellResult RunCell(const Experiment& exp, double rate, Nanos budget,
                       uint64_t seed_salt) {
  RuntimeOptions options;
  options.num_workers = exp.workers;
  options.num_flows = std::max(64, exp.connections);
  options.deadline_budget = budget;
  LiveCellResult run = RunLiveCell(
      options, *ParseLiveTransport("tcp"),
      MakeSpinService(MakeDistribution("fixed", exp.service), ServiceMode::kSleep,
                      exp.seed),
      /*skew=*/false, [&](Runtime&, SocketTransportBase& tcp) {
        TcpLoadgenOptions gen = LiveLoadgenOptions(exp, tcp.port(), rate);
        gen.seed = exp.seed + seed_salt;
        // Bounded drain: a collapsed no-shed cell holds seconds of backlog the
        // harness must not wait out — undrained requests count as `lost`, the ledger
        // still balances, and teardown refusals reclaim the server side.
        gen.drain_timeout = 3 * kSecond;
        return RunTcpLoadgen(gen);
      });
  run.point.offered_rps = rate;
  return run;
}

Cell FinishCell(const std::string& config, double multiplier, const LiveCellResult& run,
                Nanos slo) {
  const TcpLoadgenResult& r = run.tcp;
  Cell cell;
  cell.multiplier = multiplier;
  cell.live = run.point;
  cell.live.config = config;
  Nanos window = r.measure_end - r.measure_start;
  if (window > 0 && r.latency.Count() > 0) {
    double within =
        static_cast<double>(r.latency.Count()) * (1.0 - r.latency.Ccdf(slo));
    cell.goodput_rps = within * 1e9 / static_cast<double>(window);
  }
  cell.completed = r.completed;
  cell.shed = r.shed;
  cell.shed_fraction =
      r.sent > 0 ? static_cast<double>(r.shed) / static_cast<double>(r.sent) : 0.0;
  cell.predicted_shed = PredictedShedFraction(multiplier);
  cell.clean = r.clean;
  cell.ledger_ok = r.Balanced();
  return cell;
}

void PrintCell(const Cell& cell) {
  std::printf("%s,%.2f,%.0f,%.0f,%.0f,%.1f,%llu,%llu,%llu,%llu,%.4f,%.4f,"
              "%llu,%d,%d\n",
              cell.live.config.c_str(), cell.multiplier, cell.live.offered_rps,
              cell.live.achieved_rps, cell.goodput_rps, cell.live.p99_us,
              static_cast<unsigned long long>(cell.live.sent),
              static_cast<unsigned long long>(cell.completed),
              static_cast<unsigned long long>(cell.shed),
              static_cast<unsigned long long>(cell.live.dropped), cell.shed_fraction,
              cell.predicted_shed, static_cast<unsigned long long>(cell.live.sheds),
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
  LiveCellResult calib =
      RunCell(exp, 3 * nominal_rps, provisional_budget, /*seed_salt=*/7001);
  double peak_rps = calib.point.achieved_rps;
  if (peak_rps <= 0) {
    std::fprintf(stderr, "overload_live_runtime: calibration served nothing\n");
    return 1;
  }

  // 2. Baseline at 0.8x peak with overload OFF: seeds the deadline budget and
  // doubles as the no-shed 0.8x sweep cell.
  std::printf("# baseline no-shed at 0.8x peak (%.0f rps)...\n", 0.8 * peak_rps);
  std::fflush(stdout);
  LiveCellResult baseline =
      RunCell(exp, 0.8 * peak_rps, /*budget=*/0, /*seed_salt=*/7002);
  Nanos p99_base = baseline.tcp.latency.P99();
  Nanos max_base = baseline.tcp.latency.Max();
  // Analytic floor: M/M/c p99 waiting time at the baseline operating point (rates
  // in events/ns, src/queueing/analytic.h) — the slo_search-style seed of the
  // deadline budget.
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
              "predicted_shed,sheds_deadline,clean,ledger_ok\n");

  // 3. The sweep: both configs over every multiplier, ascending, zygos first per
  // load. The baseline run above is reused as the no-shed cell nearest 0.8x.
  std::vector<Cell> cells;
  for (size_t i = 0; i < multipliers.size(); ++i) {
    double m = multipliers[i];
    double rate = m * peak_rps;
    cells.push_back(
        FinishCell("zygos", m, RunCell(exp, rate, budget, /*seed_salt=*/100 + i), slo));
    PrintCell(cells.back());
    if (std::abs(m - 0.8) < 1e-9) {
      cells.push_back(FinishCell("no-shed", m, baseline, slo));
    } else {
      cells.push_back(FinishCell(
          "no-shed", m, RunCell(exp, rate, /*budget=*/0, /*seed_salt=*/200 + i), slo));
    }
    PrintCell(cells.back());
  }

  auto find_cell = [&cells](const std::string& config,
                            double m) -> const Cell* {
    for (const Cell& cell : cells) {
      if (cell.live.config == config && std::abs(cell.multiplier - m) < 1e-9) {
        return &cell;
      }
    }
    return nullptr;
  };

  // The no-overload peak goodput: best no-shed cell at or below saturation.
  double peak_goodput = 0;
  for (const Cell& cell : cells) {
    if (cell.live.config == "no-shed" && cell.multiplier <= 1.0 + 1e-9) {
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
      zygos_2x->live.p99_us <= static_cast<double>(slo) / 1e3;
  bool zero_sheds_below_saturation = true;
  bool shed_tracks_analytic = true;
  bool ledger_balanced = true;
  for (const Cell& cell : cells) {
    ledger_balanced = ledger_balanced && cell.ledger_ok;
    if (cell.live.config != "zygos") {
      continue;
    }
    if (cell.multiplier < 1.0 - 1e-9) {
      zero_sheds_below_saturation =
          zero_sheds_below_saturation && cell.shed == 0 && cell.live.sheds == 0;
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
  auto column = [&cells](const std::string& config, auto field) {
    std::vector<double> values;
    for (const Cell& cell : cells) {
      if (cell.live.config == config) {
        values.push_back(std::invoke(field, cell));
      }
    }
    return values;
  };
  auto p99 = [](const Cell& cell) { return cell.live.p99_us; };
  report.params()
      .Nums("multipliers", column("zygos", &Cell::multiplier), 2)
      .Nums("zygos_goodput_rps", column("zygos", &Cell::goodput_rps), 0)
      .Nums("no_shed_goodput_rps", column("no-shed", &Cell::goodput_rps), 0)
      .Nums("zygos_p99_admitted_us", column("zygos", p99), 1)
      .Nums("no_shed_p99_us", column("no-shed", p99), 1)
      .Nums("zygos_shed_fraction", column("zygos", &Cell::shed_fraction), 4)
      .Nums("predicted_shed_fraction", column("zygos", &Cell::predicted_shed), 4);
  return report.Finish(exp.json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
