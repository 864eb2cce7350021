// Fig. 10 on the LIVE runtime: Silo/TPC-C served by the real-thread ZygOS data plane
// (src/services/tpcc_service.h) under the open-loop, coordinated-omission-safe
// generator (src/loadgen) — the measured counterpart of the model-driven
// fig10a/fig10b latency benches.
//
// Each request is one transaction from the standard TPC-C mix (45/43/4/4/4), fully
// sampled client-side (src/loadgen/tpcc_gen.h) so the request stream is a pure
// function of --seed. Transaction service times are long and heavy-tailed — the
// regime where work stealing matters most — so the sweep compares:
//   zygos        full design (idle cores steal ready connections)
//   no-steal     RuntimeOptions::enable_stealing = false (the shared-nothing IX
//                baseline: every core serves only its own flows)
// over ascending load and prints one CSV row per (config, load) cell. The sweep is the
// shared live harness's (src/loadgen/experiment.h: configs, transports, calibration,
// median-of-N cells); this binary adds the TPC-C
// handler, the payload factory and the per-cell ledger. `--json=PATH` writes the
// BENCH-contract report with three acceptance gates (exit 1 iff one is false):
//   zygos_p99_monotone_in_load  p99 CCDF shape: never drops below 0.8x its running
//                               max as load rises (shared predicate, report.h)
//   steal_leq_no_steal_at_peak  stealing never hurts the tail at the peak cell
//   ledger_balanced             every cell's transaction ledger is exact:
//                               commits + user aborts + malformed + shed (+ lost on
//                               TCP) == requests sent, and malformed == 0 (our own
//                               generator must never emit garbage)
//
// Every cell runs against a FRESH database (LoadTpcc per cell): cells are
// independent, and consistency checks (tests/tpcc_test.cc) stay meaningful.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/time_units.h"
#include "src/db/tpcc_loader.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/report.h"
#include "src/loadgen/tpcc_gen.h"
#include "src/services/tpcc_service.h"

namespace zygos {
namespace {

constexpr const char* kUsage =
    "usage: fig10_live_runtime [--transport=loopback|tcp|uring[,...]] [--workers=N]\n"
    "  [--connections=N] [--threads=N] [--arrivals=poisson|fixed] [--warehouses=N]\n"
    "  [--scale=tiny|full] [--service-pad-us=F] [--configs=zygos,no-steal]\n"
    "  [--rates=r1,r2,...] [--load-fractions=f1,f2,...] [--calibrate-rate=R]\n"
    "  [--cell-repeats=N] [--duration-ms=N] [--warmup-ms=N] [--seed=N]\n"
    "  [--skew=BOOL] [--json=PATH]";

// The served handler: optional blocking pad, then one TPC-C transaction. The pad
// has the same rationale as spin_service's sleep mode: on CI hosts with fewer
// hardware threads than workers, CPU-burn service times make every scheduling policy
// look alike (all workers timeshare one core); a blocking pad restores real
// per-worker concurrency so stealing-vs-no-steal stays distinguishable. It also
// models the paper's longer Silo service times relative to this reduced-scale
// database.
ViewHandler PaddedHandler(TpccService& service, Nanos pad) {
  return [&service, pad](uint64_t flow_id, std::string_view request,
                         ResponseBuilder& response) {
    (void)flow_id;
    if (pad > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(pad));
    }
    service.HandleView(request, response);
  };
}

// One cell's transaction accounting. Balanced means every scheduled request is
// accounted for end to end — the "commit+abort+shed+lost == sent" gate.
struct CellLedger {
  uint64_t sent = 0;
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t malformed = 0;
  uint64_t shed = 0;
  uint64_t lost = 0;  // TCP: requests on severed connections; loopback: ring refusals
  uint64_t occ_retries = 0;
  bool balanced = false;

  void Accumulate(const CellLedger& other) {
    sent += other.sent;
    commits += other.commits;
    user_aborts += other.user_aborts;
    malformed += other.malformed;
    shed += other.shed;
    lost += other.lost;
    occ_retries += other.occ_retries;
  }
};

struct TpccCell {
  LivePoint point;
  CellLedger ledger;
};

// The ledger hook: the service's books for one run, checked against the run's raw
// loadgen/generator result.
CellLedger LedgerOf(const LiveCellResult& cell, const LiveTransport& transport,
                    const TpccService& service) {
  CellLedger ledger;
  ledger.commits = service.commits();
  ledger.user_aborts = service.user_aborts();
  ledger.malformed = service.malformed();
  ledger.occ_retries = service.occ_retries();
  uint64_t answered = ledger.commits + ledger.user_aborts + ledger.malformed;
  if (transport.socket) {
    const TcpLoadgenResult& tcp = cell.tcp;
    ledger.sent = tcp.sent;
    ledger.shed = tcp.shed;
    ledger.lost = tcp.lost;
    // Client side: every scheduled request completed, was shed, or is accounted
    // lost. Server side: every completion the runtime retired was answered by the
    // service (or refused as shed). Both must hold.
    ledger.balanced = tcp.completed + tcp.shed + tcp.lost == tcp.sent &&
                      answered + cell.point.sheds == cell.runtime_completed;
  } else {
    // GeneratorResult::sent excludes the ingress-ring refusals (`dropped`), which never
    // reached the service: every scheduled request is sent + dropped.
    ledger.sent = cell.loopback.sent + cell.loopback.dropped;
    ledger.shed = cell.point.sheds;
    ledger.lost = cell.loopback.dropped;
    ledger.balanced = answered + ledger.shed + ledger.lost == ledger.sent;
  }
  return ledger;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int warehouses = static_cast<int>(flags.GetInt("warehouses", 1));
  const std::string scale_name = flags.GetString("scale", "tiny");
  const double pad_us = flags.GetDouble("service-pad-us", 0.0);
  const auto pad = static_cast<Nanos>(pad_us * 1e3);
  LiveSweep sweep;
  sweep.name = "fig10_live_runtime";
  sweep.usage = kUsage;
  sweep.payload.reset();  // requests come from the TPC-C mix
  if (!ParseLiveSweep(flags, sweep)) {
    return 2;
  }
  LoaderOptions scale;
  if (scale_name == "tiny") {
    scale = LoaderOptions::Tiny(warehouses);
  } else if (scale_name == "full") {
    scale.num_warehouses = warehouses;
  } else {
    std::fprintf(stderr, "fig10_live_runtime: unknown --scale=%s (tiny|full)\n%s\n",
                 scale_name.c_str(), kUsage);
    return 2;
  }
  if (warehouses < 1) {
    std::fprintf(stderr, "fig10_live_runtime: need --warehouses >= 1\n%s\n", kUsage);
    return 2;
  }
  if (!SelectTransports(sweep)) {
    return 0;
  }
  sweep.make_payload = MakeTpccPayloadFactory(scale);

  std::printf("# fig10_live_runtime: transport=%s scale=%s warehouses=%d arrivals=%s "
              "workers=%d connections=%d pad_us=%.1f skew=%d duration_ms=%.0f "
              "warmup_ms=%.0f seed=%llu\n",
              sweep.TransportNames().c_str(), scale_name.c_str(), warehouses,
              ArrivalKindName(*sweep.arrivals), sweep.workers, sweep.connections,
              pad_us, sweep.skew ? 1 : 0, static_cast<double>(sweep.duration) / 1e6,
              static_cast<double>(sweep.warmup) / 1e6,
              static_cast<unsigned long long>(sweep.seed));

  auto run_cell = [&](const LiveTransport& transport, const LiveConfig& config,
                      double rate) {
    Database db;
    TpccTables tables = LoadTpcc(db, scale);
    TpccService service(db, tables, scale);
    LiveCellResult cell =
        RunLiveCell(sweep, transport, config, rate, PaddedHandler(service, pad));
    return TpccCell{cell.point, LedgerOf(cell, transport, service)};
  };
  // TPC-C has no closed-form service time, so calibration is always an overload
  // probe. With a blocking pad the nominal capacity is workers/pad (the pad dominates
  // reduced-scale transaction times), probed at 3x; without a pad there is no closed
  // form — 30k rps is several times the peak on modest hosts (override with
  // --calibrate-rate on fast ones). Keeping the probe a small multiple of the peak
  // matters: the drain of the probe's backlog is serial.
  const double probe = pad > 0 ? 3.0 * static_cast<double>(sweep.workers) * 1e9 /
                                     static_cast<double>(pad)
                               : 30'000.0;
  if (!CalibrateRates(sweep, probe, run_cell)) {
    return 1;
  }

  CellLedger totals;
  bool all_cells_balanced = true;
  auto on_cell = [&](const TpccCell& cell) {
    if (!cell.ledger.balanced) {
      all_cells_balanced = false;
      std::printf("# ledger imbalance: config=%s rate=%.0f sent=%llu commits=%llu "
                  "aborts=%llu malformed=%llu shed=%llu lost=%llu\n",
                  cell.point.config.c_str(), cell.point.offered_rps,
                  static_cast<unsigned long long>(cell.ledger.sent),
                  static_cast<unsigned long long>(cell.ledger.commits),
                  static_cast<unsigned long long>(cell.ledger.user_aborts),
                  static_cast<unsigned long long>(cell.ledger.malformed),
                  static_cast<unsigned long long>(cell.ledger.shed),
                  static_cast<unsigned long long>(cell.ledger.lost));
    }
    totals.Accumulate(cell.ledger);
  };
  const std::vector<LivePoint> points = RunLiveSweep(sweep, run_cell, on_cell);

  // Headline: the acceptance view of the sweep (stable format).
  const LivePoint* zygos = HeadlinePoint(points, "zygos");
  const LivePoint* no_steal = HeadlinePoint(points, "no-steal");
  const bool ledger_balanced = all_cells_balanced && totals.malformed == 0;
  std::printf("# headline: tpcc live p99@peak zygos=%.1fus no-steal=%.1fus "
              "commits=%llu aborts=%llu monotone=%s steal_leq_no_steal=%s "
              "ledger_balanced=%s\n",
              zygos != nullptr ? zygos->p99_us : 0.0,
              no_steal != nullptr ? no_steal->p99_us : 0.0,
              static_cast<unsigned long long>(totals.commits),
              static_cast<unsigned long long>(totals.user_aborts),
              ZygosP99MonotoneInLoad(points) ? "yes" : "no",
              StealLeqNoStealAtPeak(points) ? "yes" : "no",
              ledger_balanced ? "yes" : "no");

  BenchReport report =
      LiveSweepReport("fig10_live_zygos_p99_us_at_peak_load", sweep, points);
  report.params()
      .Str("scale", scale_name)
      .Int("warehouses", warehouses)
      .Num("service_pad_us", pad_us, 1);
  report.Gate("ledger_balanced", ledger_balanced);
  report.params()
      .Int("tpcc_sent", totals.sent)
      .Int("tpcc_commits", totals.commits)
      .Int("tpcc_user_aborts", totals.user_aborts)
      .Int("tpcc_malformed", totals.malformed)
      .Int("tpcc_shed", totals.shed)
      .Int("tpcc_lost", totals.lost)
      .Int("tpcc_occ_retries", totals.occ_retries)
      .Object("curves", LiveCurves(points, false));
  return report.Finish(sweep.json_path);
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
