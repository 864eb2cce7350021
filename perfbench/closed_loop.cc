#include "perfbench/closed_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>

#include "src/net/message.h"

namespace perfbench {
namespace {

// How long after the measurement window the driver waits for outstanding answers
// before it counts them lost.
constexpr zygos::Nanos kDrainTimeout = 5 * zygos::kSecond;

struct Conn {
  int fd = -1;
  uint64_t next_id = 0;
  zygos::FrameParser parser;
  std::deque<std::pair<uint64_t, Expectation>> in_flight;  // (wire id, expectation)
  std::string out;  // frames queued for the next send
};

}  // namespace

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

ClosedLoopResult RunClosedLoop(const ClosedLoopOptions& options, Oracle& oracle) {
  ClosedLoopResult result;
  zygos::Rng rng(options.seed);
  std::vector<Conn> conns(static_cast<size_t>(options.connections));
  std::string payload;

  auto sever = [&result](Conn& conn) {
    ::close(conn.fd);
    conn.fd = -1;
    result.lost += conn.in_flight.size();
    conn.in_flight.clear();
  };
  auto issue = [&](int index) {
    Conn& conn = conns[static_cast<size_t>(index)];
    Expectation expect;
    payload.clear();
    oracle.Next(index, rng, payload, expect);
    zygos::EncodeMessage(conn.next_id, payload, conn.out);
    conn.in_flight.emplace_back(conn.next_id, expect);
    conn.next_id++;
    result.sent++;
  };
  auto flush = [&](Conn& conn) {
    if (!conn.out.empty() && conn.fd >= 0) {
      if (!SendAll(conn.fd, conn.out)) {
        sever(conn);
      }
    }
    conn.out.clear();
  };

  const zygos::Nanos start = zygos::NowNanos();
  const zygos::Nanos measure_start = start + options.warmup;
  const zygos::Nanos end = start + options.duration;
  const auto slices = static_cast<size_t>(std::max<zygos::Nanos>(
      1, (end - measure_start) / options.slice));
  std::vector<uint64_t> slice_counts(slices, 0);

  for (int c = 0; c < options.connections; ++c) {
    Conn& conn = conns[static_cast<size_t>(c)];
    conn.fd = ConnectLoopback(options.port);
    if (conn.fd < 0) {
      result.lost++;  // the connection itself failed: count one failed operation
      continue;
    }
    for (int w = 0; w < options.window; ++w) {
      issue(c);
    }
    flush(conn);
  }

  std::vector<pollfd> pfds(conns.size());
  std::string buffer(64 * 1024, '\0');
  while (true) {
    zygos::Nanos now = zygos::NowNanos();
    bool outstanding = false;
    for (const Conn& conn : conns) {
      outstanding |= conn.fd >= 0 && !conn.in_flight.empty();
    }
    if (!outstanding || now >= end + kDrainTimeout) {
      break;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = pollfd{conns[i].fd, POLLIN, 0};
    }
    // Zero timeout: the driver stays runnable, so host steal on it is visible
    // (perfbench/host.h) instead of hiding in a blocked poll.
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) {
      continue;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = conns[i];
      if (conn.fd < 0 || (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      ssize_t r = ::recv(conn.fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        continue;
      }
      if (r <= 0 || !conn.parser.Feed(buffer.data(), static_cast<size_t>(r))) {
        sever(conn);
        continue;
      }
      now = zygos::NowNanos();
      for (const zygos::Message& msg : conn.parser.TakeMessages()) {
        if (conn.in_flight.empty() || conn.in_flight.front().first != msg.request_id) {
          result.mismatches++;
          sever(conn);
          break;
        }
        Expectation expect = conn.in_flight.front().second;
        conn.in_flight.pop_front();
        if (msg.shed) {
          result.shed++;
        } else {
          result.answered++;
          if (!oracle.Check(expect, msg.payload)) {
            result.wrong++;
          }
          if (now >= measure_start && now < end) {
            size_t slice = static_cast<size_t>((now - measure_start) / options.slice);
            if (slice < slices) {
              slice_counts[slice]++;
            }
          }
        }
        if (now < end) {
          issue(static_cast<int>(i));
        }
      }
      flush(conn);
    }
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) {
      result.lost += conn.in_flight.size();
      ::close(conn.fd);
    }
  }
  const double slice_seconds = static_cast<double>(options.slice) / 1e9;
  result.measure_start = measure_start;
  for (uint64_t count : slice_counts) {
    result.slice_rps.push_back(static_cast<double>(count) / slice_seconds);
  }
  return result;
}

}  // namespace perfbench
