// TCP transport: the epoll-based Transport backend that makes the runtime a real
// server.
//
// The accept path, flow-id freelist and drop accounting live in SocketTransportBase
// (src/runtime/socket_transport.h): one non-blocking listener accepts connections on
// a background thread, assigns each a flow id hashed through the shared RssTable —
// the software analogue of programming the NIC's indirection table — and hands the
// prepared connection to the home worker over a per-queue SPSC ring. No lock sits
// between the accept path and the data path.
//
// This backend's per-queue I/O engine is epoll + per-fd syscalls:
//
//   RX  PollBatch(q) is called only by worker q: drain the accept ring (register +
//       kFlowOpened), then a zero-timeout epoll_wait over the queue's own epoll set,
//       one recv() per ready connection per pass (level-triggered, so residue is
//       re-reported next pass). Each recv() lands directly in a pooled buffer
//       (src/common/buffer_pool.h) that becomes the Segment — the bytes are never
//       copied again; frame reassembly aliases views into them. Hangups/errors close
//       the connection and surface as kFlowClosed control events.
//   TX  TransmitBatch(q) is called only by the flow's home worker: each TxSegment
//       already carries its complete wire frame (built in place by the executing
//       core's ResponseBuilder). The batch is grouped by flow (FlowSendPlan, stable:
//       a flow's responses keep their batch order), and each flow's responses leave
//       as ONE sendmsg over an iovec array of their pooled frames — the runtime's
//       per-flow batching (a claimed connection's whole pipelined backlog executes in
//       one go) carried down to the socket. A short write advances the flow's iovec
//       cursor and the remainder follows on the next sendmsg. This preserves the
//       home-core-only TX discipline: a thief never touches a socket, it ships the
//       finished frame home over the remote-syscall queue and the home core makes
//       one batched pass here.
//
// The syscall bill of this engine is what the io_uring backend exists to amortize:
// every PollBatch pays one epoll_wait plus one recv per ready connection, every
// TransmitBatch one sendmsg per flow in the batch. With one request in flight per
// connection that is still ≈2+ data-path syscalls per request at small payloads; a
// connection that pipelines k requests into one batch pays one sendmsg for all k.
// Syscalls are counted per queue and reported through IoSyscalls() so the live
// benches can print syscalls_per_request for both backends side by side.
//
// ApproxNonEmpty peeks the queue's epoll set with a zero-timeout wait (level-triggered
// readiness is not consumed by observers) and the accept ring. The idle loop peeks
// its own queue and, after a failed steal, the queue of a core busy in a handler —
// the peek that decides whether to ring that core's doorbell (the live IPI).
//
// Contract: Start binds/listens and launches the acceptor; port() is valid after
// Start (bind to port 0 for an ephemeral port). Stop joins the acceptor and closes
// every socket; Poll/Transmit must not be in flight. Per-queue calls are single-caller
// (the owning worker). Connections that hang up are closed on their home core's next
// poll; responses to closed connections complete into the drop counter. A flow whose
// send blocks past stall_drop_deadline has its unsent responses stall-dropped and is
// severed.
#ifndef ZYGOS_RUNTIME_TCP_TRANSPORT_H_
#define ZYGOS_RUNTIME_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/concurrency/cache_line.h"
#include "src/runtime/socket_transport.h"
#include "src/runtime/transport.h"

namespace zygos {

class TcpTransport final : public SocketTransportBase {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  void Start() override;
  void Stop() override;

  size_t PollBatch(int queue, std::span<Segment> out,
                   std::vector<ControlEvent>& control) override;
  size_t TransmitBatch(int queue, std::span<TxSegment> batch) override;
  bool ApproxNonEmpty(int queue) const override;
  void CloseFlow(int queue, uint64_t flow_id) override;

 private:
  struct Conn {
    int fd = -1;
    uint64_t flow_id = 0;
    int home_queue = 0;
  };

  struct alignas(kCacheLineSize) PerQueue {
    int epfd = -1;
    // Home-worker-only (plus Stop at quiescence): the acceptor hands connections over
    // the base's accept ring instead of inserting here, so the data path takes no
    // lock.
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
    // Close events produced outside PollBatch (TX stall drops, CloseFlow severs),
    // buffered until the next poll delivers them. Home-core-only.
    std::vector<ControlEvent> pending_control;
    // Home-core-only spare RX buffer: allocated before recv(), consumed only when
    // bytes actually arrive, so an idle poll pass costs zero pool traffic.
    IoBuf rx_spare;
    FlowSendPlan tx_plan;  // home-core-only TransmitBatch scratch
  };

  // Home-core hangup/error path: deregister, close, forget, announce kFlowClosed.
  void CloseConn(PerQueue& pq, Conn* conn);

  std::vector<std::unique_ptr<PerQueue>> queues_;
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_TCP_TRANSPORT_H_
