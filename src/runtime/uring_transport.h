// io_uring transport: the batched-syscall Transport backend.
//
// Same accept path, flow-id freelist and drop accounting as the epoll backend
// (SocketTransportBase); what changes is the per-queue I/O engine. Each worker queue
// owns one io_uring (src/runtime/uring_ring.h — raw-syscall shim, no liburing). There
// is one receive path and one send path, and no feature options:
//
//   RX  every registered connection keeps one plain IORING_OP_RECV armed into a
//       pooled buffer. Completions land in the queue's CQ and are drained — not
//       per-fd syscalls but shared-memory reads — at the top of PollBatch; each
//       completed recv hands its buffer to the Segment (zero copy into FrameParser
//       views) and re-arms at once with a fresh pooled buffer. All re-arm SQEs of a
//       pass go out with ONE io_uring_enter: the next TransmitBatch's, or, when no
//       response follows, the next PollBatch's (PooledRecvs counts completions).
//   TX  TransmitBatch groups the batch by flow (FlowSendPlan, stable: a flow's
//       responses keep their batch order) and queues ONE IORING_OP_SENDMSG SQE per
//       flow over an iovec array of its pooled frames; the whole batch is submitted
//       with a single io_uring_enter (submit-and-wait). A flow never has more than
//       one send op in flight: a short send advances its iovec cursor and the
//       remainder is resubmitted only once the previous op's CQE is reaped, so two
//       ops can never interleave bytes on one socket. A peer that stops reading past
//       stall_drop_deadline gets its op cancelled (IORING_OP_ASYNC_CANCEL), its
//       unsent responses dropped and the connection severed — the same bounded-stall
//       discipline as the epoll backend. TX completions are reaped before returning
//       (the runtime's Shutdown accounting requires completions to fire
//       synchronously inside TransmitBatch).
//
// There is deliberately no zero-copy send, no registered-buffer receive arena, no
// kernel SQ poller and no provided-buffer ring: each was measured on the served
// benchmark, did not pay on its tail or throughput, and was deleted
// (docs/ARCHITECTURE.md, "Deleted rungs").
//
// Control-event ordering (the PR 5 contract) is preserved through a per-queue FIFO:
// CQ completions append segments and closes in arrival order, and PollBatch stops
// draining the FIFO rather than deliver a kFlowClosed in the same batch as one of
// that flow's segments (the runtime processes all control events before a batch's
// segments, so co-delivery would drop them). A sever with a recv in flight is
// deferred — cancel first, close the fd only after the recv's CQE is reaped — so the
// kernel can never complete into a closed connection's buffer.
//
// The headline metric: the epoll engine pays one epoll_wait per poll pass plus one
// recv per segment and one sendmsg per flow per TX batch; this engine pays one
// io_uring_enter per TransmitBatch, which also carries the pass's re-arms, plus one
// per PollBatch that finds SQEs no TransmitBatch submitted — about 1 syscall per
// request with one request in flight per connection, and less once TX batches carry
// several responses. What both engines share is that a pipelined connection's
// responses cost the kernel one send op per batch, not one per response.
// IoSyscalls() reports the measured count (io_uring_enter only; CQ/SQ traffic is
// shared memory).
//
// Capability: io_uring may be denied wholesale (seccomp/sandbox). Check
// UringTransport::Available() BEFORE constructing; Start aborts with the probe's
// reason otherwise.
#ifndef ZYGOS_RUNTIME_URING_TRANSPORT_H_
#define ZYGOS_RUNTIME_URING_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/concurrency/cache_line.h"
#include "src/runtime/socket_transport.h"
#include "src/runtime/transport.h"
#include "src/runtime/uring_ring.h"

namespace zygos {

// The io_uring transport takes exactly the epoll transport's options; this name is
// kept only for perfbench/bench.cc.
using UringTransportOptions = TcpTransportOptions;

class UringTransport final : public SocketTransportBase {
 public:
  explicit UringTransport(TcpTransportOptions options);
  ~UringTransport() override;

  // Process-wide capability probe (io_uring_setup may be denied by seccomp).
  static bool Available() { return UringAvailable(); }
  static std::string UnavailableReason() { return ProbeUring().reason; }

  void Start() override;
  void Stop() override;

  size_t PollBatch(int queue, std::span<Segment> out,
                   std::vector<ControlEvent>& control) override;
  size_t TransmitBatch(int queue, std::span<TxSegment> batch) override;
  bool ApproxNonEmpty(int queue) const override;
  void CloseFlow(int queue, uint64_t flow_id) override;

  // io_uring_enter calls across all queues — overrides the base (which counts
  // per-call syscalls) because here the ring shim already counts every enter.
  uint64_t IoSyscalls() const override;

  // Always false: the features they named are gone. perfbench/bench.cc is the only
  // reader.
  bool MultishotEnabled() const { return false; }
  bool SqpollEnabled() const { return false; }
  bool SendZcEnabled() const { return false; }

  // RX observability: completed pooled recvs.
  uint64_t PooledRecvs() const;

 private:
  struct UConn {
    int fd = -1;
    uint64_t flow_id = 0;
    int home_queue = 0;
    bool rx_inflight = false;  // a recv SQE is in flight; its CQE must be reaped
    bool closing = false;      // sever/hangup seen; finalize once rx_inflight clears
    bool purge_on_close = false;  // sever: drop this flow's undelivered segments
    IoBuf rx_buf;              // recv target
  };

  // One entry of the per-queue delivery FIFO: a received segment or a close, in CQ
  // arrival order (opens never queue — they are announced at accept-drain, before
  // the flow's first recv is even armed).
  struct PendingItem {
    bool is_close = false;
    uint64_t flow_id = 0;
    IoBuf buf;
    Nanos arrival = 0;
  };

  // TX context threaded through the CQ dispatcher while TransmitBatch waits; null
  // during PollBatch (where a kSend CQE can only belong to a zombie send). Send
  // user_data payloads are `token_base + flow index` in the plan, so batch membership
  // is one range check and stale tokens (prior batches' zombies) fall out of range.
  struct TxContext {
    FlowSendPlan* plan = nullptr;
    uint64_t token_base = 0;
    size_t outstanding = 0;  // flows with a send op in flight
  };

  struct alignas(kCacheLineSize) PerQueue {
    UringRing ring;
    // Home-worker-only (plus Stop at quiescence).
    std::unordered_map<uint64_t, std::unique_ptr<UConn>> conns;
    // Delivery FIFO (see PendingItem); pending_count mirrors its size for the
    // any-thread ApproxNonEmpty peek.
    std::deque<PendingItem> pending;
    std::atomic<size_t> pending_count{0};
    uint64_t pooled_recvs = 0;
    // Sends abandoned after a cancel outwaited its grace period: every frame the op
    // references is parked here under its send token, so no slab can be recycled
    // while the kernel op may still read it. Reaped when the straggler CQE lands.
    std::unordered_multimap<uint64_t, IoBuf> zombie_sends;
    uint64_t next_send_token = 0;
    FlowSendPlan tx_plan;                   // per-batch scratch
    std::vector<uint64_t> emitted_scratch;  // flows given segments this PollBatch
  };

  io_uring_sqe* GetSqe(PerQueue& pq);
  // The flow's connection, or null when it is gone or closing (no new sends).
  static UConn* LiveConn(PerQueue& pq, uint64_t flow_id);
  void ArmRecv(PerQueue& pq, UConn* conn);
  // Drains every available CQE through HandleCqe. tx may be null.
  void DrainCq(PerQueue& pq, TxContext* tx);
  void HandleCqe(PerQueue& pq, uint64_t user_data, int res, TxContext* tx);
  void HandleRecvCqe(PerQueue& pq, uint64_t flow_id, int res);
  // Sever/hangup: cancel an in-flight recv and defer, or finalize immediately.
  void CloseConn(PerQueue& pq, UConn* conn, bool purge_pending);
  void FinalizeClose(PerQueue& pq, UConn* conn);
  void PushPending(PerQueue& pq, PendingItem item);

  std::vector<std::unique_ptr<PerQueue>> queues_;
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_URING_TRANSPORT_H_
