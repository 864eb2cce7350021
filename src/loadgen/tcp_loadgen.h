// Open-loop load generator over real TCP sockets (the external-client role mutilate
// plays in the paper), and the only load path of every live bench and demo: N
// connections fanned over T generator threads, each thread pacing an independent
// arrival process of rate R/T — the superposition is a Poisson process of rate R —
// while polling its connections for responses.
//
// Coordinated-omission safety: each thread's send schedule (times and count) is drawn
// from its arrival process alone, so a slow server can delay actual sends but never
// move or thin the scheduled ones. Every request carries its *scheduled* send time in
// the per-connection in-flight FIFO, and latency is measured scheduled-send →
// response-received. A stalled server (or a blocking send on a full socket buffer)
// therefore inflates the recorded tail rather than suppressing measurements
// (TcpLoadgenFanoutTest.LogicalScheduleIsIndependentOfNetworkDegradation).
//
// Payload bytes and connection choices come from ONE per-thread Rng, in send order.
// The schedule stays pure, but the connection picks depend on the payload factory:
// a factory that draws from the Rng (TPC-C draws one u64 per request, the KV
// workloads a per-request number) shifts every later pick compared with fixed bytes.
// A seed still reproduces the whole run for one factory.
//
// Fan-out mode (fanout_n > 1) adds the tail-at-scale dimension: each scheduled
// arrival becomes one LOGICAL request of N sub-requests on distinct connections,
// measured as the max of its subs (src/loadgen/fanout.h). The schedule itself is
// untouched — fan-out widens each arrival, it never adds or moves arrivals — so the
// logical measurement keeps the same CO-safety argument.
//
// Churn mode (churn_mean_lifetime > 0) adds the connection-lifecycle dimension: each
// connection lives an exponentially distributed lifetime, then hangs up and
// reconnects with a fresh socket — the workload that exercises the server's
// accept/teardown/slot-recycling path (bench/churn_live_runtime.cc) instead of only
// its steady-state data plane.
//
// Contract: RunTcpLoadgen blocks until the send window closes and every in-flight
// request is answered (or drain_timeout expires — then clean=false and the unanswered
// requests are counted in `lost`). Latencies are wall-clock Nanos, measured on the
// generator threads. The payload factory is called on generator threads and must be
// thread-compatible (it receives the thread's own Rng).
#ifndef ZYGOS_LOADGEN_TCP_LOADGEN_H_
#define ZYGOS_LOADGEN_TCP_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/time_units.h"
#include "src/loadgen/arrival.h"

namespace zygos {

struct TcpLoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 8;
  int threads = 2;  // clamped to [1, connections]
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  double rate_rps = 10'000;        // aggregate across all threads
  Nanos duration = kSecond;        // send window, including warmup
  Nanos warmup = kSecond / 5;      // completions scheduled before start+warmup discarded
  uint64_t seed = 1;
  Nanos drain_timeout = 10 * kSecond;  // wait for stragglers after the window closes
  // Connection churn: when > 0, each connection's lifetime is drawn from an
  // exponential distribution with this mean; an expired connection closes (once its
  // in-flight requests have drained, so accounting stays exact and the server sees a
  // clean hangup) and immediately reconnects with a fresh socket. The send schedule
  // is untouched — churn swaps the socket behind a connection index, never the
  // arrival process — so the measurement stays coordinated-omission safe. 0 = off
  // (connections live for the whole run).
  Nanos churn_mean_lifetime = 0;
  // Fan-out: each logical request fans into this many sub-requests, sent to
  // `fanout_n` DISTINCT connections drawn uniformly from the thread's share; the
  // logical request completes when its slowest sub completes (latency = max of the
  // N — the tail-at-scale amplification quantity), and is lost (exactly once) if
  // ANY sub is lost. The top-level histogram and logical_* counters operate on
  // logical requests; sent/completed/measured/lost/sub_latency stay sub-request
  // granularity. 1 = off (logical == sub, byte-identical schedule and RNG stream to
  // the pre-fan-out generator). Threads are clamped so every thread's connection
  // share can seat `fanout_n` distinct picks.
  int fanout_n = 1;
  // Fills `out` with one request payload (e.g. a KV protocol request or fixed bytes).
  std::function<void(Rng& rng, std::string& out)> make_payload;
};

struct TcpLoadgenResult {
  bool clean = false;       // all connections healthy and fully drained
  // Sub-request (wire-level) counters; with fanout_n == 1 these ARE the requests.
  uint64_t sent = 0;
  uint64_t completed = 0;   // responses received (any window)
  uint64_t measured = 0;    // responses whose request was scheduled in the window
  // Requests with no measured completion: unanswered at drain_timeout, in flight on
  // a connection severed after an ordering violation, or scheduled onto a connection
  // that had already died (those are never counted in `sent`).
  uint64_t lost = 0;
  // Overload refusals (responses carrying kFrameFlagShed): the server answered, but
  // with "no". Disjoint from `completed` and excluded from every latency histogram,
  // so on a clean run completed + shed + lost == sent (the overload-ledger test).
  uint64_t shed = 0;
  // Ordering violations (response id != FIFO head). Each one severs its connection —
  // its send-time matching is unrecoverable — and counts the in-flight tail in
  // `lost`.
  uint64_t mismatches = 0;
  // Churn-mode reconnects performed (fresh sockets after an expired lifetime);
  // 0 when churn_mean_lifetime == 0.
  uint64_t reconnects = 0;
  // Logical-request counters (src/loadgen/fanout.h). logical_sent counts scheduled
  // logical requests and is a pure function of (seed, rate, duration, threads) —
  // the server cannot suppress it, which is what the schedule-independence CO test
  // pins down. Every scheduled logical request resolves exactly once:
  // logical_completed + logical_lost == logical_sent.
  uint64_t logical_sent = 0;
  uint64_t logical_completed = 0;
  uint64_t logical_measured = 0;  // completed AND scheduled inside the window
  uint64_t logical_lost = 0;      // >= 1 sub lost (counted once per logical request)
  // >= 1 sub shed and none lost (counted once): the logical request resolved but was
  // not fully served. logical_completed + logical_shed + logical_lost == logical_sent.
  uint64_t logical_shed = 0;
  Nanos max_send_lag = 0;   // worst (actual send - scheduled send) across threads
  Nanos measure_start = 0;
  Nanos measure_end = 0;    // when the last generator thread finished draining
  // Measured-window LOGICAL latencies (max-of-N), merged across threads. With
  // fanout_n == 1 this is identical to sub_latency — existing consumers keep their
  // meaning.
  LatencyHistogram latency;
  LatencyHistogram sub_latency;  // measured-window per-sub-request latencies
  // measured / (measure_end - measure_start), in sub-requests/s.
  double achieved_rps() const;
  // logical_measured over the same window, in logical requests/s.
  double achieved_logical_rps() const;
  // The open-loop ledger: every sent request resolved exactly once,
  // completed + shed + lost == sent.
  bool Balanced() const { return completed + shed + lost == sent; }
};

TcpLoadgenResult RunTcpLoadgen(const TcpLoadgenOptions& options);

}  // namespace zygos

#endif  // ZYGOS_LOADGEN_TCP_LOADGEN_H_
