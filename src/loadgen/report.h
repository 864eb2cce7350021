// Result reporting for live-runtime experiments: the stable CSV stdout contract and
// the BENCH_*.json report file that scripts/bench_trajectory.sh and scripts/ci.sh
// consume (bench/README.md "live-runtime figures").
//
// One LivePoint per (config, load) cell of a sweep. The JSON report follows the
// repo's BENCH contract ({metric, value, unit, commit, params}): the headline value
// is the full-ZygOS p99 at the highest swept load, and params carries every curve
// plus four precomputed acceptance booleans —
//   zygos_p99_monotone_in_load : ZygOS p99 never drops below 0.8x its running max
//                                as offered load rises (one-sided estimator-noise
//                                tolerance — a cell's p99 rests on a few dozen tail
//                                samples and flips 10-20% between identical cells).
//                                SQPOLL ladder rungs (transport name contains
//                                "sqp") are exempt: without a spare core for the
//                                kernel poller the tail is scheduling-dominated
//                                and the shape carries no signal — those rungs
//                                are gated on their exact syscall counters
//                                instead
//   steal_leq_no_steal_at_peak : ZygOS p99 <= no-steal p99 at the highest common load
//   uring_p99_leq_epoll_at_peak : uring p99 <= epoll p99 at the highest matched load
//                                (same 0.8x noise tolerance)
//   uring_syscalls_below_epoll  : uring syscalls/request strictly below epoll's
//                                (counter-exact, no tolerance)
//   uring_ladder_syscalls_strictly_decreasing : syscalls/request at peak load falls
//                                strictly at each feature rung of the io_uring ladder
//                                that was swept ("uring" baseline -> "uring+ms" ->
//                                "uring+ms+sqp"; counter-exact)
//   uring_full_ladder_syscalls_leq_0p1 : the full ladder ("uring+ms+sqp") reaches
//                                <= 0.1 syscalls/request at peak load
// so shell harnesses can grep instead of re-deriving them. `commit` is written empty
// ("") and stamped by scripts/bench_trajectory.sh.
//
// Contract: not thread-safe (assemble points after the run); latencies in the CSV and
// JSON are microseconds, rates are requests/second.
#ifndef ZYGOS_LOADGEN_REPORT_H_
#define ZYGOS_LOADGEN_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace zygos {

// One measured sweep cell. `config` is the runtime ablation ("zygos", "no-steal",
// "no-ipi"); load cells of one config must be appended in ascending offered_rps order.
// `transport` is the backend that served the cell ("loopback" | "tcp" | "uring", or
// an io_uring ladder rung like "uring+ms+sqp" — see the ladder predicates below) —
// sweeps may run the same configs over several transports at matched rates.
struct LivePoint {
  std::string config;
  std::string transport = "loopback";
  double offered_rps = 0;
  double achieved_rps = 0;
  uint64_t sent = 0;
  uint64_t measured = 0;  // completions inside the measurement window
  uint64_t dropped = 0;   // ingress drops (loopback ring full) or TCP losses
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_us = 0;
  double max_us = 0;
  double send_lag_max_us = 0;  // generator lateness (see GeneratorResult::max_send_lag)
  uint64_t steals = 0;
  uint64_t stolen_events = 0;
  uint64_t doorbells_sent = 0;
  uint64_t remote_syscalls = 0;
  // Data-path syscalls per completed request (Transport::IoSyscalls over completions;
  // see bench/README.md "syscalls_per_request"). 0 for loopback. The headline the
  // uring backend exists to lower: epoll pays ~2+/req, batched uring well under 1.
  double syscalls_per_req = 0;
  // Overload refusals the server issued during the cell (WorkerStats sheds_* sum).
  // 0 unless the cell ran with overload control enabled.
  uint64_t sheds = 0;
  // Hardware-counter cost per completed request (WorkerStats perf_* sums over the
  // cell's whole run, src/hw/perf_counters.h). perf_valid=false (rates 0) when
  // perf_event_open is denied on the host — "not measured", never "measured zero".
  bool perf_valid = false;
  double cycles_per_req = 0;
  double instructions_per_req = 0;
  double cache_misses_per_req = 0;
};

// Experiment-wide parameters echoed into the CSV preamble and the JSON params block.
struct LiveRunInfo {
  std::string transport;     // "loopback" | "tcp"
  std::string distribution;  // service-time distribution name
  double service_us = 0;
  std::string service_mode;  // "spin" | "sleep"
  std::string arrivals;      // "poisson" | "fixed"
  int workers = 0;
  int connections = 0;
  bool skew = false;  // all flow groups homed on core 0
  double duration_ms = 0;
  double warmup_ms = 0;
  uint64_t seed = 0;
  // perf_event_open capability on this host (src/hw/perf_counters.h): echoed into
  // the JSON params.perf_counters block so a trajectory reader can tell a locked-
  // down host from a zero-cost run.
  bool perf_available = false;
  std::string perf_reason;  // empty when available
};

// CSV contract (stdout): header row then one row per point, `#` lines are prose.
// `config` stays the FIRST column (harnesses grep `^zygos,`); new columns are only
// ever appended at the end.
//   config,offered_rps,achieved_rps,p50_us,p99_us,p999_us,mean_us,max_us,
//   measured,sent,dropped,send_lag_max_us,steals,doorbells,syscalls_per_req,transport,
//   sheds,cycles_per_req,insns_per_req,cache_misses_per_req
void PrintLiveCsvHeader(FILE* out);
void PrintLiveCsvRow(FILE* out, const LivePoint& point);

// Acceptance predicates (see the header comment). Configs are matched by exact name;
// an absent config makes the predicate vacuously true. The single-transport
// predicates treat every transport's curve of that config as one ascending sweep per
// transport (they are evaluated per transport and AND-ed).
bool ZygosP99MonotoneInLoad(const std::vector<LivePoint>& points);
bool StealLeqNoStealAtPeak(const std::vector<LivePoint>& points);
// Cross-transport acceptance, full-ZygOS config at the highest common load point
// (both transports sweep the same ascending rate list):
//   UringP99LeqEpollAtPeak    uring p99 <= epoll p99 at matched load, within the
//                             one-sided p99 noise tolerance (see header comment)
//   UringSyscallsBelowEpoll   uring syscalls/request strictly below epoll's
// Vacuously true when either transport's curve is absent.
bool UringP99LeqEpollAtPeak(const std::vector<LivePoint>& points);
bool UringSyscallsBelowEpoll(const std::vector<LivePoint>& points);
// io_uring feature-ladder acceptance, full-ZygOS config, peak (= last) load point.
// Rung names are transport strings: "uring" (all rungs off — the re-arm pooled-recv
// baseline), "uring+ms" (+multishot recv over a provided-buffer ring), "uring+ms+sqp"
// (+SQPOLL, the full ladder). Both are vacuously true when the relevant rungs are
// absent from the sweep (fewer than two rungs / no full-ladder rung).
bool UringLadderSyscallsStrictlyDecreasing(const std::vector<LivePoint>& points);
bool UringFullLadderSyscallsLeq0p1(const std::vector<LivePoint>& points);

// Writes the BENCH-contract JSON report. Returns false (and prints to stderr) on I/O
// failure. `points` must hold at least one "zygos" row.
bool WriteLiveJsonReport(const std::string& path, const LiveRunInfo& info,
                         const std::vector<LivePoint>& points);

}  // namespace zygos

#endif  // ZYGOS_LOADGEN_REPORT_H_
