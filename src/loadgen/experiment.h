// The shared live-experiment harness: what the five live benches (fig6_live_runtime,
// fig10_live_runtime, overload_live_runtime, churn_live_runtime, fanout_chaos) have
// in common — the shared flag block, the runtime configs and transports by name, the
// one cell runner (RunLiveCell: every live cell's server, its lifetime and its
// LivePoint), the p99-vs-load sweep (calibration, median-of-N) and the BENCH_*.json
// writer driven by a table of gates (the process exits 1 iff a gate is false).
// fig6/fig10 add only a handler, a payload factory and their own headline and gates;
// churn, fanout and overload keep their own sweeps, CSV rows and gates, and hand
// RunLiveCell their runtime options, handler and drive.
//
// Contract: single-threaded harness code (each cell's runtime and generators run their
// own threads internally); output goes to stdout (CSV, `#` prose) and the JSON file.
#ifndef ZYGOS_LOADGEN_EXPERIMENT_H_
#define ZYGOS_LOADGEN_EXPERIMENT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/time_units.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/report.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/socket_transport.h"

namespace zygos {

// --- Flags ----------------------------------------------------------------------------

// The flag block all five live benches share. The initial values are the defaults a
// binary passes in; an empty optional means the binary has no such flag.
struct LiveFlags {
  const char* name = "live";  // program name for diagnostics
  const char* usage = "";
  int workers = 2;                   // --workers
  int connections = 8;               // --connections
  int threads = 2;                   // --threads (generator threads)
  Nanos duration = 500 * kMillisecond;  // --duration-ms (includes the warmup)
  Nanos warmup = 150 * kMillisecond;    // --warmup-ms
  uint64_t seed = 1;                 // --seed
  std::string json_path;             // --json (empty: no report file)
  std::optional<size_t> payload = 32;  // --payload (request bytes)
  std::optional<ArrivalKind> arrivals = ArrivalKind::kPoisson;  // --arrivals
};

// Reads the shared flags, then rejects unknown flags (Flags::CheckUnknown) and invalid
// values. Call it after the binary has read its own flags, so they count as known.
// Returns false after printing the problem and the usage line (exit status 2).
bool ParseLiveFlags(const Flags& flags, LiveFlags& live);

// The measurement-window rule of every live binary: warmup >= 0 (a negative one opens
// the window before the run starts) and duration > warmup (else nothing is measured).
// False after printing the problem and `usage` under `name` (exit status 2).
bool CheckMeasurementWindow(const char* name, const char* usage, Nanos duration,
                            Nanos warmup);

// Parses the comma-separated flag --`flag` into `out`, each entry required to pass
// `valid` (the error names the rule as `requirement`). False, after printing the
// problem and the usage line, when an entry fails or the list is empty (exit 2); a
// malformed number exits 2 directly (ParseFlagNumberOrDie).
bool ParseNumbers(const LiveFlags& live, const std::string& flag, const std::string& csv,
                  const std::string& requirement,
                  const std::function<bool(double)>& valid, std::vector<double>& out);

// TCP loadgen options for `live` against `port` at `rate_rps`: its connections,
// threads, arrivals, duration/warmup, seed, and requests of --payload fixed bytes.
TcpLoadgenOptions LiveLoadgenOptions(const LiveFlags& live, uint16_t port,
                                     double rate_rps);

// --- Configs and transports -----------------------------------------------------------

// A runtime ablation by name: "zygos" (full design) or "no-steal"
// (RuntimeOptions::enable_stealing = false, the shared-nothing IX baseline).
struct LiveConfig {
  std::string name;
  bool stealing = true;
};
std::optional<LiveConfig> ParseLiveConfig(const std::string& name);
// Every name of a comma-separated list, in order; nullopt when a name is unknown or
// the list is empty.
std::optional<std::vector<LiveConfig>> ParseLiveConfigs(const std::string& csv);

// A transport by name: "tcp" (epoll) or "uring" (io_uring). Both serve over real
// loopback-interface sockets.
struct LiveTransport {
  std::string name;
  bool uring = false;
};
std::optional<LiveTransport> ParseLiveTransport(const std::string& name);
// Empty when this host can serve `transport`; otherwise why not (uring without
// io_uring), for a skip line or an error message.
std::string TransportDenied(const LiveTransport& transport);
// The socket backend `transport` names, built from `options` (derive them with
// TcpOptionsFor). The one place a transport name becomes a backend; check
// TransportDenied first.
std::unique_ptr<SocketTransportBase> MakeLiveTransport(const LiveTransport& transport,
                                                       TcpTransportOptions options);

// --- The p99-vs-load sweep ------------------------------------------------------------

struct LiveSweep : LiveFlags {
  std::string transport_csv = "tcp";                     // --transport
  std::string configs_csv = "zygos,no-steal";            // --configs
  std::string load_fractions_csv = "0.25,0.5,0.75,0.95";  // --load-fractions
  double calibrate_rate = 0;  // --calibrate-rate (0: the binary's default probe rate)
  int cell_repeats = 1;       // --cell-repeats
  bool skew = true;           // --skew: every flow group homed on core 0

  // Filled by ParseLiveSweep / SelectTransports / CalibrateRates.
  std::vector<LiveTransport> transports;
  std::vector<LiveConfig> configs;
  std::vector<double> rates;  // --rates, else fractions of the calibrated peak
  std::vector<double> load_fractions;
  // Per-request payload factory; empty means `payload` fixed bytes.
  std::function<void(Rng&, std::string&)> make_payload;

  // The swept transport names, comma-joined (the CSV preamble and JSON `transport`).
  std::string TransportNames() const;
};

// ParseLiveFlags plus the sweep flags: every --transport name must parse (capability is
// checked later, by SelectTransports), --configs must name known configs, --rates and
// --load-fractions entries must be > 0, --cell-repeats >= 1. False means exit 2.
bool ParseLiveSweep(const Flags& flags, LiveSweep& sweep);

// Resolves sweep.transport_csv (names ParseLiveSweep accepted) into sweep.transports,
// in order and without duplicates.
// A transport this host cannot serve (uring without io_uring) is dropped with a
// `# skip:` line. Returns false, after a `# skip:` note, when nothing is left to
// sweep (the binary then exits 0).
bool SelectTransports(LiveSweep& sweep);

// One cell's measurement, plus the raw run it came from for binaries that keep their
// own books on top (fig10's TPC-C ledger, overload's goodput, fanout's sub-request
// tail).
struct LiveCellResult {
  LivePoint point;
  uint64_t runtime_completed = 0;  // Runtime::Completed() at shutdown (served + shed)
  TcpLoadgenResult tcp;            // the run the cell's drive returned
};

// A cell's load: runs against the started runtime, whose transport serves on
// transport.port(), and returns the loadgen run the cell reports. It may run the
// loadgen more than once and read the runtime's counters between and after runs; the
// runtime shuts down when it returns.
using LiveDrive =
    std::function<TcpLoadgenResult(Runtime& runtime, SocketTransportBase& transport)>;

// Runs one live cell: a fresh runtime built from `options`, serving `handler` over
// `transport` on an ephemeral port (`skew`: every flow group homed on core 0), started,
// driven by `drive`, shut down. Fills every measured LivePoint field from the run
// `drive` returned and the runtime's books: latencies and achieved_rps of the
// warmup-trimmed window (logical requests, src/loadgen/fanout.h: the same as wire
// requests unless fanned out), sent/measured/dropped, syscalls_per_req, steals, sheds.
// The labels, point.config and point.offered_rps, are the caller's. The one place a
// live bench builds a server.
LiveCellResult RunLiveCell(const RuntimeOptions& options, const LiveTransport& transport,
                           ViewHandler handler, bool skew, const LiveDrive& drive);

// One (transport, config, rate) cell of `sweep`: RunLiveCell on sweep.workers workers
// and sweep.connections flows with the config's stealing and sweep.skew, driven by one
// open-loop run of sweep.duration (LiveLoadgenOptions; sweep.make_payload when set).
// The point is labelled with the config and the rate.
LiveCellResult RunSweepCell(const LiveSweep& sweep, const LiveTransport& transport,
                            const LiveConfig& config, double rate, ViewHandler handler);

// Runs `run` `repeats` (>= 1) times and returns the run whose key(run) is the median
// (sorted[n/2], the upper median for even n). The whole run is kept, not per-field
// medians, so a row's counters stay mutually consistent. On an oversubscribed host
// one scheduler stall adds tens of ms that CO-safe accounting must book into that
// run's tail; the median discards such one-offs without min-of-N's downward bias.
template <typename Run, typename Key>
auto MedianOfN(int repeats, Run run, Key key) {
  std::vector<decltype(run())> runs;
  runs.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    runs.push_back(run());
  }
  std::sort(runs.begin(), runs.end(),
            [&key](const auto& a, const auto& b) { return key(a) < key(b); });
  return runs[runs.size() / 2];
}

// Fills sweep.rates, ascending (every predicate and headline reads a curve's last
// point as its highest load): the explicit --rates, or --load-fractions of the peak a
// deliberately overloaded zygos cell achieves on the first transport. The probe runs
// at --calibrate-rate, else `default_probe_rps`, median of --cell-repeats probes by
// achieved rps: one probe's estimate swings ~15% run to run on a noisy host, and every
// swept rate is a fraction of it. Calibrating once means every transport sweeps the
// same rates (matched-load comparisons). `run_cell(transport, config, rate)` returns
// a struct with a `point`. False when the probe served nothing (exit 1).
template <typename RunCell>
bool CalibrateRates(LiveSweep& sweep, double default_probe_rps, RunCell run_cell) {
  if (sweep.rates.empty()) {
    double probe = sweep.calibrate_rate > 0 ? sweep.calibrate_rate : default_probe_rps;
    const LiveTransport& transport = sweep.transports.front();
    std::printf("# calibration: probing peak throughput at %.0f rps (zygos, %s)...\n",
                probe, transport.name.c_str());
    std::fflush(stdout);
    LivePoint peak = MedianOfN(
        sweep.cell_repeats,
        [&] { return run_cell(transport, *ParseLiveConfig("zygos"), probe).point; },
        [](const LivePoint& point) { return point.achieved_rps; });
    if (peak.achieved_rps <= 0) {
      std::fprintf(stderr, "%s: calibration produced no throughput\n", sweep.name);
      return false;
    }
    std::printf("# calibration: peak sustainable throughput = %.0f rps\n",
                peak.achieved_rps);
    for (double fraction : sweep.load_fractions) {
      sweep.rates.push_back(fraction * peak.achieved_rps);
    }
  }
  std::sort(sweep.rates.begin(), sweep.rates.end());
  return true;
}

// Sweeps every (transport, config, rate) cell — transports outermost — keeping the
// median-p99 run of --cell-repeats. Prints the CSV header and one row per cell, hands
// each kept run to `on_cell`, and returns the points in sweep order.
template <typename RunCell, typename OnCell>
std::vector<LivePoint> RunLiveSweep(const LiveSweep& sweep, RunCell run_cell,
                                    OnCell on_cell) {
  PrintLiveCsvHeader(stdout);
  std::vector<LivePoint> points;
  for (const LiveTransport& transport : sweep.transports) {
    for (const LiveConfig& config : sweep.configs) {
      for (double rate : sweep.rates) {
        auto cell = MedianOfN(
            sweep.cell_repeats, [&] { return run_cell(transport, config, rate); },
            [](const auto& run) { return run.point.p99_us; });
        PrintLiveCsvRow(stdout, cell.point);
        on_cell(cell);
        std::fflush(stdout);
        points.push_back(cell.point);
      }
    }
  }
  return points;
}

// --- The BENCH report -----------------------------------------------------------------

// A JSON object whose fields render in insertion order, one per line.
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Int(const std::string& key, int64_t value);
  // Fixed-point with `precision` decimals; a non-finite value renders as null.
  JsonObject& Num(const std::string& key, double value, int precision);
  JsonObject& Nums(const std::string& key, const std::vector<double>& values,
                   int precision);
  JsonObject& Strs(const std::string& key, const std::vector<std::string>& values);
  JsonObject& Object(const std::string& key, const JsonObject& value);
  std::string Render() const;

 private:
  JsonObject& Add(const std::string& key, std::string json);
  std::vector<std::pair<std::string, std::string>> fields_;  // key, rendered value
};

// One BENCH-contract record, {metric, value, unit, commit, params}. `commit` is
// written empty and stamped by scripts/bench_trajectory.sh. Each gate is a flat
// `"name": true|false` param (the historical keys) and its name is listed in
// `params.gates`, so a harness checks every gate without knowing their names.
class BenchReport {
 public:
  BenchReport(std::string metric, double value, std::string unit, int precision = 2);

  JsonObject& params() { return params_; }
  double value() const { return value_; }
  BenchReport& Gate(const std::string& name, bool ok);
  std::string ToJson() const;
  // Writes ToJson() to `path` (nothing when empty) and returns the exit status: 0 iff
  // the write succeeded and every gate holds; each false gate is named on stderr.
  int Finish(const std::string& path) const;

 private:
  std::string metric_;
  double value_;
  std::string unit_;
  int precision_;
  JsonObject params_;
  std::vector<std::pair<std::string, bool>> gates_;
};

// `getter(cell)` for every cell, as doubles (a JSON array column).
template <typename Cells, typename Getter>
std::vector<double> Column(const Cells& cells, Getter getter) {
  std::vector<double> out;
  for (const auto& cell : cells) {
    out.push_back(static_cast<double>(getter(cell)));
  }
  return out;
}

// The run parameters every live report echoes: workers, connections, duration_ms,
// warmup_ms, seed.
void AddRunParams(JsonObject& params, const LiveFlags& live);

// The report of a p99-vs-load sweep. value = the zygos peak-load p99 on the first swept
// transport (HeadlinePoint; null when zygos was not swept) and params.headline_transport
// names that transport. params: the sweep's run configuration, the two shape gates
// (zygos_p99_monotone_in_load, steal_leq_no_steal_at_peak); the binary adds its own
// params and gates, then the `curves` block (LiveCurves).
BenchReport LiveSweepReport(const std::string& metric, const LiveSweep& sweep,
                            const std::vector<LivePoint>& points);

// One curve object per (config, transport) in first-appearance order, each holding
// offered_rps, achieved_rps, p50_us, p99_us, p999_us (+ syscalls_per_req) arrays. Keys
// are the config name — suffixed with the transport when several were swept — with
// '-' mapped to '_' ("no-steal" + "uring" -> "no_steal_uring").
JsonObject LiveCurves(const std::vector<LivePoint>& points, bool with_syscalls);

}  // namespace zygos

#endif  // ZYGOS_LOADGEN_EXPERIMENT_H_
