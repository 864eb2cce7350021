#include "src/runtime/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace zygos {

namespace {

constexpr int kAcceptPollMillis = 20;

}  // namespace

void FlowSendPlan::Build(std::span<const TxSegment> batch) {
  order_.clear();
  iov_.clear();
  flows_.clear();
  for (size_t i = 0; i < batch.size(); ++i) {
    order_.emplace_back(batch[i].flow_id, static_cast<uint32_t>(i));
  }
  // Sorting (flow, batch index) pairs groups by flow and keeps batch order within
  // each flow.
  std::sort(order_.begin(), order_.end());
  for (size_t slot = 0; slot < order_.size(); ++slot) {
    std::string_view frame = batch[order_[slot].second].frame.view();
    iov_.push_back(iovec{const_cast<char*>(frame.data()), frame.size()});
    if (slot == 0 || order_[slot].first != order_[slot - 1].first) {
      flows_.push_back(Flow{.flow_id = order_[slot].first, .begin = slot,
                            .next = slot});
    }
    flows_.back().end = slot + 1;
  }
}

msghdr* FlowSendPlan::NextOp(Flow& flow) {
  flow.msg = msghdr{};
  flow.msg.msg_iov = &iov_[flow.next];
  flow.msg.msg_iovlen = std::min<size_t>(flow.unsent(), IOV_MAX);
  return &flow.msg;
}

void FlowSendPlan::Advance(Flow& flow, size_t bytes) {
  while (flow.next < flow.end && iov_[flow.next].iov_len <= bytes) {
    bytes -= iov_[flow.next].iov_len;
    flow.next++;
  }
  if (bytes > 0) {
    iovec& partial = iov_[flow.next];
    partial.iov_base = static_cast<char*>(partial.iov_base) + bytes;
    partial.iov_len -= bytes;
  }
}

SocketTransportBase::SocketTransportBase(TcpTransportOptions options,
                                         const char* backend_name)
    : options_(std::move(options)),
      rss_(options_.num_flow_groups, options_.num_queues),
      backend_name_(backend_name),
      // Every id in [0, max_flows) may be in the freelist at once.
      free_ids_(std::max<uint64_t>(options_.max_flows, 1)) {
  accept_rings_.reserve(static_cast<size_t>(options_.num_queues));
  io_syscalls_.reserve(static_cast<size_t>(options_.num_queues));
  for (int q = 0; q < options_.num_queues; ++q) {
    // Bounded handoff: more un-registered connections than the listen backlog means
    // the worker is badly behind; refusing at that point is the honest backpressure.
    accept_rings_.push_back(std::make_unique<SpscRing<AcceptedConn>>(
        static_cast<size_t>(std::max(options_.listen_backlog, 16))));
    io_syscalls_.push_back(std::make_unique<PaddedCounter>());
  }
}

SocketTransportBase::~SocketTransportBase() { StopListener(); }

void SocketTransportBase::Fatal(const char* what) const {
  std::fprintf(stderr, "zygos: %s: %s: %s\n", backend_name_, what,
               std::strerror(errno));
  std::abort();
}

uint64_t SocketTransportBase::IoSyscalls() const {
  uint64_t total = 0;
  for (const auto& counter : io_syscalls_) {
    total += counter->value.load(std::memory_order_relaxed);
  }
  return total;
}

void SocketTransportBase::StartListener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    Fatal("socket");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    Fatal("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Fatal("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    Fatal("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Fatal("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  accepting_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void SocketTransportBase::StopListener() {
  if (accepting_.exchange(false, std::memory_order_acq_rel)) {
    acceptor_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Quiescent teardown (workers have stopped): connections still in the handoff
  // rings never reached a worker — close them directly.
  for (auto& ring : accept_rings_) {
    while (auto pending = ring->TryPop()) {
      ::close(pending->fd);
    }
  }
}

std::optional<uint64_t> SocketTransportBase::MintFlowId() {
  // Recycled ids first: they keep the working set of the runtime's slot table (and
  // its per-core Connection freelists) warm. Fresh ids only until the cap.
  if (auto recycled = free_ids_.TryPop()) {
    return *recycled;
  }
  uint64_t fresh = next_flow_.load(std::memory_order_relaxed);
  while (fresh < options_.max_flows) {
    if (next_flow_.compare_exchange_weak(fresh, fresh + 1,
                                         std::memory_order_relaxed)) {
      return fresh;
    }
  }
  return std::nullopt;
}

void SocketTransportBase::ReleaseFlowId(uint64_t flow_id) {
  // Cannot fail: at most max_flows ids exist and the queue is sized for all of them.
  free_ids_.TryPush(flow_id);
}

void SocketTransportBase::AcceptLoop() {
  while (accepting_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kAcceptPollMillis);
    if (ready <= 0) {
      continue;
    }
    while (true) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          // Hard error (e.g. EMFILE): the listener stays readable, so breaking
          // straight back to poll() would busy-spin. Back off before retrying.
          std::this_thread::sleep_for(std::chrono::milliseconds(kAcceptPollMillis));
        }
        break;
      }
      std::optional<uint64_t> flow = MintFlowId();
      if (!flow) {
        // max_flows ids outstanding (concurrent connections at the cap): refuse
        // rather than overrun the runtime's table. Ids return when closed
        // connections finish recycling, so this is a concurrency cap, not a
        // lifetime one.
        ::close(fd);
        capacity_refusals_.fetch_add(1, std::memory_order_relaxed);
        drops_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      // Steer through the indirection table, as RSS would hash a new 5-tuple: the
      // connection's home queue is fixed here, at accept time.
      int queue = rss_.HomeCoreOf(*flow);
      // Lock-free handoff to the home worker: it registers the socket with its own
      // I/O engine and announces kFlowOpened on its next poll pass. A full ring means
      // the worker is swamped — refuse, as a NIC drops when its queue overflows.
      // That is worker lag, NOT id exhaustion, so it counts as a plain drop and not
      // a capacity refusal (the churn acceptance gate reads CapacityRefusals as
      // "the recycling fell behind"; a descheduled worker must not fail it).
      if (!accept_rings_[static_cast<size_t>(queue)]->TryPush(
              AcceptedConn{fd, *flow, queue})) {
        ::close(fd);
        ReleaseFlowId(*flow);
        drops_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      accepted_connections_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace zygos
