// Result reporting for live-runtime experiments: one LivePoint per (config,
// transport, load) cell of a sweep, the stable CSV stdout contract, the headline cell
// and the acceptance predicates the BENCH_*.json reports carry as gates
// (src/loadgen/experiment.h writes them; bench/README.md documents them):
//   zygos_p99_monotone_in_load : ZygOS p99 never drops below 0.8x its running max
//                                as offered load rises (one-sided estimator-noise
//                                tolerance — a cell's p99 rests on a few dozen tail
//                                samples and flips 10-20% between identical cells)
//   steal_leq_no_steal_at_peak : ZygOS p99 <= no-steal p99 at the highest common load
//   uring_p99_leq_epoll_at_peak : uring p99 <= epoll p99 at the highest matched load
//                                (same 0.8x noise tolerance)
//   uring_syscalls_below_epoll  : uring syscalls/request strictly below epoll's
//                                (counter-exact, no tolerance)
//
// Contract: not thread-safe (assemble points after the run); latencies in the CSV and
// JSON are microseconds, rates are requests/second.
#ifndef ZYGOS_LOADGEN_REPORT_H_
#define ZYGOS_LOADGEN_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace zygos {

// One measured sweep cell. `config` is the runtime ablation ("zygos", "no-steal");
// load cells of one config must be appended in ascending offered_rps order.
// `transport` is the backend that served the cell ("tcp" | "uring") — sweeps may run
// the same configs over several transports at matched rates.
struct LivePoint {
  std::string config;
  std::string transport = "tcp";
  double offered_rps = 0;
  // Measured requests per second of the window; this rate and the latencies count
  // logical requests, the same as wire requests unless the cell fans out (fanout.h).
  double achieved_rps = 0;
  uint64_t sent = 0;
  uint64_t measured = 0;  // completions inside the measurement window
  uint64_t dropped = 0;   // requests the loadgen counted lost (TcpLoadgenResult::lost)
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_us = 0;
  double max_us = 0;
  double send_lag_max_us = 0;  // generator lateness (TcpLoadgenResult::max_send_lag)
  uint64_t steals = 0;
  // Data-path syscalls per completed request (Transport::IoSyscalls over completions;
  // see bench/README.md "syscalls_per_request"). The headline the uring backend
  // exists to lower: epoll pays ~2+/req, batched uring about 1.
  double syscalls_per_req = 0;
  // Overload refusals the server issued during the cell (WorkerStats sheds_* sum).
  // 0 unless the cell ran with overload control enabled.
  uint64_t sheds = 0;
};

// CSV contract (stdout): header row then one row per point, `#` lines are prose.
// `config` stays the FIRST column (harnesses grep `^zygos,`); new columns are only
// ever appended at the end.
//   config,offered_rps,achieved_rps,p50_us,p99_us,p999_us,mean_us,max_us,
//   measured,sent,dropped,send_lag_max_us,steals,syscalls_per_req,transport,sheds
void PrintLiveCsvHeader(FILE* out);
void PrintLiveCsvRow(FILE* out, const LivePoint& point);

// Acceptance predicates (see the header comment). Configs are matched by exact name;
// an absent config makes the predicate vacuously true. The single-transport
// predicates treat every transport's curve of that config as one ascending sweep per
// transport (they are evaluated per transport and AND-ed).
bool ZygosP99MonotoneInLoad(const std::vector<LivePoint>& points);
bool StealLeqNoStealAtPeak(const std::vector<LivePoint>& points);
// Cross-transport acceptance, full-ZygOS config at the highest common load point
// (both transports sweep the same ascending rate list); vacuously true when either
// transport's curve is absent.
bool UringP99LeqEpollAtPeak(const std::vector<LivePoint>& points);
bool UringSyscallsBelowEpoll(const std::vector<LivePoint>& points);

// The last (= highest-load) point of `config` on `transport`; null when absent.
const LivePoint* PeakPoint(const std::vector<LivePoint>& points,
                           const std::string& config, const std::string& transport);
// The headline cell: `config`'s peak point on the FIRST swept transport — the one the
// rate list was calibrated on — so a headline never depends on the order of the
// transports after it. Null when `config` was not swept there.
const LivePoint* HeadlinePoint(const std::vector<LivePoint>& points,
                               const std::string& config);

}  // namespace zygos

#endif  // ZYGOS_LOADGEN_REPORT_H_
