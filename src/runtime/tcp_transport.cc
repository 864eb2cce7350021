#include "src/runtime/tcp_transport.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>

namespace zygos {

namespace {

constexpr int kMaxEpollEvents = 64;
// Granularity of the bounded TX wait: the stall deadline (a TcpTransportOptions
// field) is split into poll() slices this long.
constexpr int kTxPollMillis = 10;

}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : SocketTransportBase(std::move(options), "tcp transport") {
  queues_.reserve(static_cast<size_t>(options_.num_queues));
  for (int q = 0; q < options_.num_queues; ++q) {
    queues_.push_back(std::make_unique<PerQueue>());
  }
}

TcpTransport::~TcpTransport() { Stop(); }

void TcpTransport::Start() {
  for (auto& pq : queues_) {
    pq->epfd = ::epoll_create1(0);
    if (pq->epfd < 0) {
      Fatal("epoll_create1");
    }
  }
  StartListener();
}

void TcpTransport::Stop() {
  StopListener();
  // Quiescent teardown (workers have stopped): close every registered connection.
  for (auto& pq : queues_) {
    for (auto& [flow, conn] : pq->conns) {
      if (pq->epfd >= 0) {
        ::epoll_ctl(pq->epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
      }
      ::close(conn->fd);
    }
    pq->conns.clear();
    pq->pending_control.clear();
    if (pq->epfd >= 0) {
      ::close(pq->epfd);
      pq->epfd = -1;
    }
  }
}

void TcpTransport::CloseConn(PerQueue& pq, Conn* conn) {
  ::epoll_ctl(pq.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  // Announce the close upstream; the next PollBatch delivers it and the runtime
  // recycles the slot (eventually handing the id back via ReleaseFlowId).
  pq.pending_control.push_back(
      ControlEvent{ControlEventKind::kFlowClosed, conn->flow_id});
  pq.conns.erase(conn->flow_id);  // frees *conn
}

size_t TcpTransport::PollBatch(int queue, std::span<Segment> out,
                               std::vector<ControlEvent>& control) {
  PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  if (pq.epfd < 0 || out.empty()) {
    return 0;
  }
  // Closes buffered since the last poll (TX stall drops, severs) go first: they
  // cannot be followed by segments of their flow, preserving the control ordering.
  if (!pq.pending_control.empty()) {
    control.insert(control.end(), pq.pending_control.begin(),
                   pq.pending_control.end());
    pq.pending_control.clear();
  }
  // Newborn connections from the acceptor: register with this worker's epoll set and
  // announce them. Registration happens here — on the home core — so an open always
  // precedes the flow's first segment within this queue's event stream.
  while (auto handed = accept_ring(queue).TryPop()) {
    auto conn = std::make_unique<Conn>(Conn{handed->fd, handed->flow_id,
                                            handed->home_queue});
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(pq.epfd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      ::close(conn->fd);
      ReleaseFlowId(conn->flow_id);  // never announced; the id is free again
      CountDrop();
      continue;
    }
    control.push_back(ControlEvent{ControlEventKind::kFlowOpened, conn->flow_id});
    pq.conns.emplace(conn->flow_id, std::move(conn));
  }
  std::array<epoll_event, kMaxEpollEvents> events;
  int max_events = static_cast<int>(std::min(out.size(), events.size()));
  int ready = ::epoll_wait(pq.epfd, events.data(), max_events, 0);
  CountSyscalls(queue, 1);
  if (ready <= 0) {
    return 0;
  }
  size_t produced = 0;
  for (int i = 0; i < ready; ++i) {
    Conn* conn = static_cast<Conn*>(events[static_cast<size_t>(i)].data.ptr);
    // One recv per ready connection per pass: level-triggered epoll re-reports any
    // residue next pass, so a chatty connection cannot monopolize the batch. The recv
    // lands directly in a pooled buffer that becomes the Segment — zero copies from
    // socket to parser. The spare survives EAGAIN/hangup passes, so a spurious
    // readiness event costs no pool round-trip.
    if (!pq.rx_spare) {
      pq.rx_spare = AllocBuffer(options_.max_segment_bytes);
    }
    size_t budget = std::min(pq.rx_spare.capacity(), options_.max_segment_bytes);
    ssize_t r = ::recv(conn->fd, pq.rx_spare.data(), budget, 0);
    CountSyscalls(queue, 1);
    if (r > 0) {
      pq.rx_spare.set_size(static_cast<size_t>(r));
      Segment& segment = out[produced++];
      segment.flow_id = conn->flow_id;
      segment.buf = std::move(pq.rx_spare);
      segment.arrival = NowNanos();
      segment.rx_nanos = segment.arrival;  // socket recv time == transport arrival
    } else if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      CloseConn(pq, conn);  // orderly hangup or hard error
    }
  }
  return produced;
}

size_t TcpTransport::TransmitBatch(int queue, std::span<TxSegment> batch) {
  PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  // One pass resolves every flow in the batch. No lock: `conns` is home-worker-only
  // now that the acceptor hands connections over the ring, and this IS the home
  // worker (the transmit discipline the runtime enforces).
  std::unordered_map<uint64_t, Conn*>& resolved = pq.tx_resolved;
  resolved.clear();
  for (const TxSegment& tx : batch) {
    auto it = pq.conns.find(tx.flow_id);
    resolved[tx.flow_id] = it == pq.conns.end() ? nullptr : it->second.get();
  }
  const int max_tx_retries = static_cast<int>(
      std::max<Nanos>(options_.stall_drop_deadline, kMillisecond) /
      (kTxPollMillis * kMillisecond));
  for (const TxSegment& tx : batch) {
    Conn* conn = resolved[tx.flow_id];
    if (conn == nullptr) {
      // Connection hung up before its response: the TX hits the floor, as a NIC would
      // drop a frame for a dead link. Completion still fires (the request retired).
      CountDrop();
      NotifyComplete(tx);
      continue;
    }
    // The frame was built in place by the executing core (possibly a thief); TX is a
    // straight write from pooled memory — no encoding, no scratch, no copy.
    std::string_view frame = tx.frame.view();
    size_t sent = 0;
    int retries = 0;
    while (sent < frame.size()) {
      ssize_t w =
          ::send(conn->fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      CountSyscalls(queue, 1);
      if (w > 0) {
        sent += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (++retries > max_tx_retries) {
          break;  // peer stopped reading past the stall deadline; give up below
        }
        pollfd pfd{conn->fd, POLLOUT, 0};
        ::poll(&pfd, 1, kTxPollMillis);
        CountSyscalls(queue, 1);
        continue;
      }
      if (w < 0 && errno == EINTR) {
        continue;
      }
      break;  // EPIPE/ECONNRESET etc.
    }
    if (sent < frame.size()) {
      // Failed or timed-out TX: drop the response AND the connection, so a stalled
      // peer cannot head-of-line-block the rest of this core's flows response after
      // response.
      if (retries > max_tx_retries) {
        CountStallDrop();
      } else {
        CountDrop();
      }
      resolved[tx.flow_id] = nullptr;  // later responses in this batch see it gone
      CloseConn(pq, conn);
    }
    NotifyComplete(tx);
  }
  return batch.size();
}

void TcpTransport::CloseFlow(int queue, uint64_t flow_id) {
  PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  auto it = pq.conns.find(flow_id);
  if (it != pq.conns.end()) {
    CountDrop();
    CloseConn(pq, it->second.get());
  }
}

bool TcpTransport::ApproxNonEmpty(int queue) const {
  const PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  if (pq.epfd < 0) {
    return false;
  }
  // Newborn connections awaiting registration are pending work for the home core.
  if (!accept_ring(queue).ApproxEmpty()) {
    return true;
  }
  // Zero-timeout peek: level-triggered readiness is not consumed by observing it —
  // the idle loop's own-queue step (a). (Deliberately NOT counted in IoSyscalls: it
  // is the idle spin's cost, not the data path's.)
  epoll_event ev;
  return ::epoll_wait(pq.epfd, &ev, 1, 0) > 0;
}

}  // namespace zygos
