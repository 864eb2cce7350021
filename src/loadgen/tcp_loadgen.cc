#include "src/loadgen/tcp_loadgen.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "src/concurrency/spinlock.h"
#include "src/loadgen/fanout.h"
#include "src/net/message.h"

namespace zygos {

namespace {

int ConnectTo(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &resolved);
  if (rc != 0) {
    std::fprintf(stderr, "tcp_loadgen: cannot resolve %s: %s\n", host.c_str(),
                 ::gai_strerror(rc));
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    std::fprintf(stderr, "tcp_loadgen: cannot connect to %s:%u: %s\n", host.c_str(),
                 static_cast<unsigned>(port), std::strerror(errno));
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t w = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

// One sub-request awaiting its response: wire id, the schedule's send time, and the
// logical request (FanoutAccounting slot) it belongs to.
struct InFlight {
  uint64_t id = 0;
  Nanos scheduled = 0;
  uint64_t slot = 0;
};

// One generator-side connection: socket, response reassembly, and the FIFO of
// sub-requests awaiting responses. Per-connection response ordering (the §4.3
// guarantee) makes latency matching a queue pop.
struct GenConn {
  int fd = -1;
  FrameParser parser;
  std::deque<InFlight> in_flight;
  uint64_t next_id = 0;
  Nanos expires_at = 0;  // churn mode: when this socket's lifetime ends (0 = never)
};

// Everything one generator thread shares with the aggregation step.
struct ThreadTotals {
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t measured = 0;
  uint64_t lost = 0;
  uint64_t shed = 0;  // overload refusals (kFrameFlagShed replies)
  uint64_t mismatches = 0;
  uint64_t reconnects = 0;
  uint64_t logical_sent = 0;
  uint64_t logical_completed = 0;
  uint64_t logical_measured = 0;
  uint64_t logical_lost = 0;
  uint64_t logical_shed = 0;
  Nanos max_send_lag = 0;
  Nanos finished_at = 0;
  bool clean = true;
  LatencyHistogram latency;      // logical (max-of-N) latencies
  LatencyHistogram sub_latency;  // per-sub-request latencies
};

// Severs `conn` and fails every sub-request it still owes — each one propagates to
// its logical request, which resolves as lost the moment its last sub does.
void SeverConn(GenConn& conn, ThreadTotals& totals, FanoutAccounting& fanout) {
  ::close(conn.fd);
  conn.fd = -1;
  totals.lost += conn.in_flight.size();
  for (const InFlight& sub : conn.in_flight) {
    fanout.SubFailed(sub.slot);
  }
  conn.in_flight.clear();
}

// Drains whatever is readable on `conn`, matching responses against the in-flight
// FIFO and recording measured-window latencies.
void DrainReadable(GenConn& conn, std::string& buffer, Nanos measure_start,
                   ThreadTotals& totals, FanoutAccounting& fanout) {
  while (true) {
    ssize_t r = ::recv(conn.fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    if (r <= 0) {
      totals.clean = false;  // peer hung up (or hard error) with requests outstanding
      SeverConn(conn, totals, fanout);
      return;
    }
    conn.parser.Feed(buffer.data(), static_cast<size_t>(r));
    for (Message& msg : conn.parser.TakeMessages()) {
      Nanos now = NowNanos();
      if (conn.in_flight.empty() || conn.in_flight.front().id != msg.request_id) {
        // Ordering violation: responses can no longer be matched to send times, so
        // every number this connection would produce is suspect. Sever it and count
        // the outstanding requests as lost — keeping it alive would let the stale
        // responses cascade into fresh mismatches and silently corrupt accounting.
        totals.mismatches++;
        SeverConn(conn, totals, fanout);
        return;
      }
      InFlight sub = conn.in_flight.front();
      conn.in_flight.pop_front();
      if (msg.shed) {
        // Overload refusal: the sub resolved (FIFO advances, nothing lost) but was
        // not served — it gets its own ledger column and stays out of the latency
        // histograms. completed + shed + lost == sent, always.
        totals.shed++;
        fanout.SubShed(sub.slot, now);
        continue;
      }
      totals.completed++;
      if (sub.scheduled >= measure_start) {
        totals.sub_latency.Record(now - sub.scheduled);
        totals.measured++;
      }
      fanout.SubCompleted(sub.slot, now);
    }
    if (static_cast<size_t>(r) < buffer.size()) {
      return;  // socket drained
    }
  }
}

void GeneratorThread(const TcpLoadgenOptions& options, int thread_index, int threads,
                     int fanout_n, Nanos start, ThreadTotals& totals) {
  const uint64_t thread_seed = options.seed + static_cast<uint64_t>(thread_index) * 7919;
  Rng lifetime_rng(thread_seed ^ 0x51c3a9b7ULL);  // churn lifetimes only
  auto sample_lifetime = [&lifetime_rng, &options]() -> Nanos {
    return static_cast<Nanos>(lifetime_rng.NextExponential(
        static_cast<double>(options.churn_mean_lifetime)));
  };

  // This thread's connection share.
  std::vector<GenConn> conns;
  for (int c = thread_index; c < options.connections; c += threads) {
    GenConn conn;
    conn.fd = ConnectTo(options.host, options.port);
    if (conn.fd < 0) {
      totals.clean = false;
      for (GenConn& opened : conns) {
        ::close(opened.fd);
      }
      totals.finished_at = NowNanos();
      return;
    }
    if (options.churn_mean_lifetime > 0) {
      conn.expires_at = NowNanos() + sample_lifetime();
    }
    conns.push_back(std::move(conn));
  }

  const Nanos measure_start = start + options.warmup;
  const Nanos window_end = start + options.duration;
  ArrivalProcess arrivals(options.arrivals, options.rate_rps / threads, thread_seed);
  Rng rng(thread_seed ^ 0x7cb9fe1dULL);  // payloads + connection choice
  FanoutAccounting fanout(fanout_n, measure_start);
  std::string buffer(16 * 1024, '\0');
  std::string payload;
  std::string frame;
  std::vector<pollfd> pfds(conns.size());
  std::vector<size_t> pick(conns.size());  // partial Fisher-Yates scratch

  // Churn: an expired connection hangs up once its in-flight FIFO has drained (a
  // clean close — the server sees an orderly hangup, the accounting loses nothing)
  // and reconnects with a fresh socket and fresh parser state. The schedule never
  // sees the swap: the connection *index* it picks stays valid throughout.
  auto maybe_recycle = [&](GenConn& conn) {
    if (options.churn_mean_lifetime <= 0 || conn.fd < 0 || !conn.in_flight.empty()) {
      return;
    }
    Nanos now = NowNanos();
    if (now < conn.expires_at || now >= window_end) {
      return;  // not expired yet — or the window closed (don't churn the drain)
    }
    ::close(conn.fd);
    conn.parser = FrameParser();
    conn.fd = ConnectTo(options.host, options.port);
    if (conn.fd < 0) {
      totals.clean = false;  // refused mid-run (e.g. server at its concurrency cap)
      return;
    }
    conn.expires_at = now + sample_lifetime();
    totals.reconnects++;
  };

  auto poll_once = [&](int timeout_ms) {
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = pollfd{conns[i].fd, POLLIN, 0};
    }
    if (::poll(pfds.data(), pfds.size(), timeout_ms) > 0) {
      for (size_t i = 0; i < conns.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && conns[i].fd >= 0) {
          DrainReadable(conns[i], buffer, measure_start, totals, fanout);
        }
      }
    }
    if (options.churn_mean_lifetime > 0) {
      for (GenConn& conn : conns) {
        maybe_recycle(conn);  // idle lifetimes expire too, not just busy ones
      }
    }
  };

  // Send window: pace the schedule, reaping responses while waiting for each slot.
  // Threads are phase-staggered by i/R: with fixed gaps, identical start times would
  // turn T independent rate-R/T schedules into synchronized T-request bursts instead
  // of one evenly spaced rate-R stream (for Poisson the phase shift is harmless —
  // the superposition argument needs only independence).
  Nanos next = start + static_cast<Nanos>(static_cast<double>(thread_index) *
                                          (1e9 / options.rate_rps));
  while (true) {
    next += arrivals.NextGapNanos();
    if (next >= window_end) {
      break;
    }
    // Wait out the gap without going deaf: sleep inside poll() while the slot is
    // far (ms granularity), spin with zero-timeout polls for the last stretch.
    while (true) {
      Nanos now = NowNanos();
      if (now >= next) {
        break;
      }
      Nanos remaining = next - now;
      poll_once(remaining > 2 * kMillisecond
                    ? static_cast<int>((remaining - kMillisecond) / kMillisecond)
                    : 0);
    }
    // One logical request: fanout_n sub-requests on DISTINCT connections. The picks
    // come from a partial Fisher-Yates shuffle, which for fanout_n == 1 degenerates
    // to the single NextBounded draw the pre-fan-out generator made — byte-identical
    // RNG stream, so existing seeds reproduce exactly.
    uint64_t slot = fanout.Open(next);
    for (size_t i = 0; i < pick.size(); ++i) {
      pick[i] = i;
    }
    for (int sub = 0; sub < fanout_n; ++sub) {
      size_t swap_with =
          static_cast<size_t>(sub) +
          static_cast<size_t>(rng.NextBounded(pick.size() - static_cast<size_t>(sub)));
      std::swap(pick[static_cast<size_t>(sub)], pick[swap_with]);
      GenConn& conn = conns[pick[static_cast<size_t>(sub)]];
      maybe_recycle(conn);  // expired and drained: swap the socket before sending
      if (conn.fd < 0) {
        // Connection died earlier: the scheduled sub-request cannot be sent — count
        // it as lost so sent/lost accounting still covers the whole schedule.
        totals.clean = false;
        totals.lost++;
        fanout.SubFailed(slot);
        continue;
      }
      payload.clear();
      options.make_payload(rng, payload);
      frame.clear();
      EncodeMessage(conn.next_id, payload, frame);
      if (!SendAll(conn.fd, frame)) {
        totals.clean = false;
        SeverConn(conn, totals, fanout);
        totals.lost++;  // this sub never reached the wire either
        fanout.SubFailed(slot);
        continue;
      }
      conn.in_flight.push_back(InFlight{conn.next_id, next, slot});
      conn.next_id++;
      totals.sent++;
      totals.max_send_lag = std::max(totals.max_send_lag, NowNanos() - next);
    }
  }

  // Drain: the window is closed; wait (bounded) for every outstanding response.
  const Nanos drain_deadline = NowNanos() + options.drain_timeout;
  while (NowNanos() < drain_deadline) {
    bool outstanding = false;
    for (GenConn& conn : conns) {
      outstanding |= conn.fd >= 0 && !conn.in_flight.empty();
    }
    if (!outstanding) {
      break;
    }
    poll_once(10);
  }
  for (GenConn& conn : conns) {
    if (conn.fd >= 0) {
      if (!conn.in_flight.empty()) {
        totals.clean = false;
        SeverConn(conn, totals, fanout);
      } else {
        ::close(conn.fd);
      }
    }
  }
  // Safety net: every logical request should have resolved through its subs by now;
  // anything still open is force-lost so logical accounting always balances.
  fanout.FinalizeOutstanding();
  totals.logical_sent = fanout.opened();
  totals.logical_completed = fanout.completed();
  totals.logical_measured = fanout.measured();
  totals.logical_lost = fanout.lost();
  totals.logical_shed = fanout.shed();
  totals.latency = fanout.latency();
  totals.finished_at = NowNanos();
}

}  // namespace

double TcpLoadgenResult::achieved_rps() const {
  Nanos window = measure_end - measure_start;
  if (window <= 0) {
    return 0.0;
  }
  return static_cast<double>(measured) * 1e9 / static_cast<double>(window);
}

double TcpLoadgenResult::achieved_logical_rps() const {
  Nanos window = measure_end - measure_start;
  if (window <= 0) {
    return 0.0;
  }
  return static_cast<double>(logical_measured) * 1e9 / static_cast<double>(window);
}

TcpLoadgenResult RunTcpLoadgen(const TcpLoadgenOptions& options) {
  TcpLoadgenResult result;
  // Every thread's connection share must seat fanout_n DISTINCT picks, so threads
  // clamp to connections / fanout_n (each share then holds >= fanout_n connections).
  const int fanout_n = std::max(1, std::min(options.fanout_n, options.connections));
  int threads =
      std::max(1, std::min(options.threads, options.connections / fanout_n));
  Nanos start = NowNanos();
  result.measure_start = start + options.warmup;

  std::vector<ThreadTotals> totals(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(GeneratorThread, std::cref(options), t, threads, fanout_n,
                         start, std::ref(totals[static_cast<size_t>(t)]));
  }
  for (auto& worker : workers) {
    worker.join();
  }

  result.clean = true;
  for (const ThreadTotals& thread_totals : totals) {
    result.clean = result.clean && thread_totals.clean;
    result.sent += thread_totals.sent;
    result.completed += thread_totals.completed;
    result.measured += thread_totals.measured;
    result.lost += thread_totals.lost;
    result.shed += thread_totals.shed;
    result.mismatches += thread_totals.mismatches;
    result.reconnects += thread_totals.reconnects;
    result.logical_sent += thread_totals.logical_sent;
    result.logical_completed += thread_totals.logical_completed;
    result.logical_measured += thread_totals.logical_measured;
    result.logical_lost += thread_totals.logical_lost;
    result.logical_shed += thread_totals.logical_shed;
    result.max_send_lag = std::max(result.max_send_lag, thread_totals.max_send_lag);
    result.measure_end = std::max(result.measure_end, thread_totals.finished_at);
    result.latency.Merge(thread_totals.latency);
    result.sub_latency.Merge(thread_totals.sub_latency);
  }
  result.clean = result.clean && result.mismatches == 0;
  return result;
}

}  // namespace zygos
