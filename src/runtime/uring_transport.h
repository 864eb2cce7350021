// io_uring transport: the batched-syscall Transport backend (ISSUE 7 tentpole,
// feature ladder ISSUE 10).
//
// Same accept path, flow-id freelist and drop accounting as the epoll backend
// (SocketTransportBase); what changes is the per-queue I/O engine. Each worker queue
// owns one io_uring (src/runtime/uring_ring.h — raw-syscall shim, no liburing):
//
//   RX  rung 0 (always available): every registered connection keeps one plain
//       IORING_OP_RECV armed into a pooled buffer. Completions land in the queue's
//       CQ and are drained — not per-fd syscalls but shared-memory reads — at the
//       top of PollBatch; each completed recv hands its buffer to the Segment
//       (zero copy into FrameParser views) and re-arms immediately with a fresh
//       pooled buffer, and all re-arm SQEs of a pass are submitted with ONE
//       io_uring_enter (PooledRecvs counts these completions).
//       rung 1 (UringTransportOptions::multishot): a STANDING multishot
//       IORING_OP_RECV per connection over a provided-buffer ring
//       (IORING_REGISTER_PBUF_RING) — one SQE yields completions indefinitely
//       (IORING_CQE_F_MORE), so the steady state stops paying even the re-arm SQE +
//       submit. Each completion names a buffer-ring slot (CQE flags >>
//       IORING_CQE_BUFFER_SHIFT) backed by a permanent BufferPool slab; the Segment
//       aliases it refcounted and the slot returns to the kernel's ring once the
//       runtime drops the last view (unique()), published in batches with one
//       release-store. A dry ring surfaces as a terminal -ENOBUFS completion: the
//       connection takes one pooled single-shot recv (the rung-0 path) and retries
//       multishot on the next arm — backpressure degrades, never stalls.
//   TX  (one path): TransmitBatch queues one IORING_OP_SEND SQE per TxSegment and
//       submits the whole batch with a single io_uring_enter (submit-and-wait): N
//       responses cost ~1 syscall instead of N sends. Short sends are resubmitted; a
//       peer that stops reading past stall_drop_deadline gets its SQE cancelled
//       (IORING_OP_ASYNC_CANCEL), the response dropped and the connection severed —
//       the same bounded-stall discipline as the epoll backend. TX completions are
//       reaped before returning (the runtime's Shutdown accounting requires
//       completions to fire synchronously inside TransmitBatch).
//
//       There is deliberately no zero-copy send and no registered-buffer receive
//       arena: frames here are at most a few KiB over loopback TCP, where the
//       kernel copies "zero-copy" payloads anyway, and the measured served
//       throughput was higher with plain SEND (docs/ARCHITECTURE.md, "Deleted
//       rungs").
//
//   SQ  rung 2 (UringTransportOptions::sqpoll): IORING_SETUP_SQPOLL hands SQ
//       consumption to a kernel poller thread; publishing the tail IS the
//       submission, and io_uring_enter happens only to wake a parked poller
//       (IORING_SQ_NEED_WAKEUP → IORING_ENTER_SQ_WAKEUP, still counted in
//       IoSyscalls — see uring_ring.h's honest-counting policy). Opt-in because the
//       poller burns a kernel thread that timeshares with workers on small hosts.
//
// Every rung is requested via UringTransportOptions, AND-ed with the once-per-
// process functional probe (ProbeUring), and degrades per-feature at runtime if the
// kernel rejects it at completion time — asking for a denied rung can never fail a
// Start that rung 0 would have survived.
//
// Control-event ordering (the PR 5 contract) is preserved through a per-queue FIFO:
// CQ completions append segments and closes in arrival order, and PollBatch stops
// draining the FIFO rather than deliver a kFlowClosed in the same batch as one of
// that flow's segments (the runtime processes all control events before a batch's
// segments, so co-delivery would drop them). A sever with a recv in flight is
// deferred — cancel first, close the fd only after the recv's terminal CQE is
// reaped — so the kernel can never complete into a closed connection's buffer. A
// standing multishot SQE is cancelled the same way; data completions racing the
// cancel are delivered (or purged on sever) and only the terminal CQE finalizes.
//
// The headline metric: the epoll engine pays one epoll_wait per poll pass plus one
// recv per segment and one send per response (≈2+ data-path syscalls/request at
// small payloads); rung 0 pays one io_uring_enter per PollBatch pass that armed
// anything plus one per TransmitBatch — well under 1 syscall/request once batches
// reach ~4; multishot removes the re-arm enters and SQPOLL removes the submit
// enters, leaving only poller wakeups (~0). IoSyscalls() reports the measured count
// (io_uring_enter only; CQ/SQ/buffer-ring traffic is shared memory).
//
// Capability: io_uring may be denied wholesale (seccomp/sandbox). Check
// UringTransport::Available() BEFORE constructing; Start aborts with the probe's
// reason otherwise. A per-feature rung denied by the probe is silently dropped from
// the effective set (query MultishotEnabled/SqpollEnabled).
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

// TcpTransportOptions plus the io_uring feature ladder. Defaults request the
// syscall-free RX rung (it degrades cleanly when denied); SQPOLL stays opt-in
// because its kernel poller thread competes for CPU on small hosts.
struct UringTransportOptions : TcpTransportOptions {
  UringTransportOptions() = default;
  explicit UringTransportOptions(TcpTransportOptions base)
      : TcpTransportOptions(std::move(base)) {}

  bool multishot = true;  // rung 1: standing multishot RECV over a buffer ring
  bool sqpoll = false;    // rung 2: kernel SQ poller (opt-in)
};

class UringTransport final : public SocketTransportBase {
 public:
  explicit UringTransport(UringTransportOptions options);
  explicit UringTransport(TcpTransportOptions options)
      : UringTransport(UringTransportOptions(std::move(options))) {}
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

  // Effective feature set after Start: requested AND probe-granted AND not degraded
  // at runtime. (Multishot may flip off per-queue later; this reports the
  // Start-time grant.)
  bool MultishotEnabled() const { return ms_enabled_; }
  bool SqpollEnabled() const { return sqpoll_enabled_; }
  // Zero-copy send was removed; kept for callers that still print the grant.
  bool SendZcEnabled() const { return false; }

  // RX observability: single-shot pooled recvs vs multishot buffer-ring completions.
  uint64_t PooledRecvs() const;
  uint64_t MultishotRecvs() const;

 private:
  struct UConn {
    int fd = -1;
    uint64_t flow_id = 0;
    int home_queue = 0;
    bool rx_inflight = false;  // a recv SQE is in flight; its CQE must be reaped
    bool ms_armed = false;     // the in-flight recv is a standing multishot SQE
    bool closing = false;      // sever/hangup seen; finalize once rx_inflight clears
    bool purge_on_close = false;  // sever: drop this flow's undelivered segments
    IoBuf rx_buf;              // single-shot recv target (unused under multishot)
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

  // TransmitBatch bookkeeping for one in-flight SEND.
  struct TxState {
    size_t sent = 0;
    bool done = false;
    bool failed = false;
    bool stalled = false;
  };

  // TX context threaded through the CQ dispatcher while TransmitBatch waits; null
  // during PollBatch (where a kSend CQE can only belong to a zombie send). Send
  // user_data payloads are `token_base + index`, so batch membership is one range
  // check and stale tokens (prior batches' zombies) fall out of range.
  struct TxContext {
    std::span<TxSegment> batch;
    std::vector<TxState>* state = nullptr;
    uint64_t token_base = 0;
    size_t outstanding = 0;
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
    // Provided-buffer ring backing (multishot RX): bring_bufs[bid] keeps each slab
    // alive for the transport's lifetime; bids in bring_out were handed to Segments
    // and return to the kernel's ring once no view aliases them (unique()).
    std::vector<IoBuf> bring_bufs;
    std::vector<uint16_t> bring_out;
    bool ms_ok = false;  // buffer ring registered and multishot accepted
    uint64_t ms_recvs = 0;
    // Sends abandoned after a cancel outwaited its grace period: the frame ref is
    // parked here, keyed by send token, so the slab cannot be recycled while the
    // kernel op may still read it. Reaped when the straggler CQE finally lands.
    std::unordered_map<uint64_t, IoBuf> zombie_sends;
    uint64_t next_send_token = 0;
    std::vector<TxState> tx_state;        // per-batch scratch
    std::vector<uint64_t> emitted_scratch;  // flows given segments this PollBatch
  };

  io_uring_sqe* GetSqe(PerQueue& pq);
  void ArmRecv(PerQueue& pq, UConn* conn, bool allow_multishot = true);
  // Returns consumed buffer-ring slots (now unique) to the kernel's ring.
  void RecycleBufRing(PerQueue& pq);
  // Drains every available CQE through HandleCqe. tx may be null.
  void DrainCq(PerQueue& pq, TxContext* tx);
  void HandleCqe(PerQueue& pq, uint64_t user_data, int res, uint32_t flags,
                 TxContext* tx);
  void HandleRecvCqe(PerQueue& pq, uint64_t flow_id, int res, uint32_t flags);
  // Sever/hangup: cancel an in-flight recv and defer, or finalize immediately.
  void CloseConn(PerQueue& pq, UConn* conn, bool purge_pending);
  void FinalizeClose(PerQueue& pq, UConn* conn);
  void PushPending(PerQueue& pq, PendingItem item);

  UringTransportOptions uring_options_;
  bool ms_enabled_ = false;
  bool sqpoll_enabled_ = false;
  std::vector<std::unique_ptr<PerQueue>> queues_;
  bool started_ = false;
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_URING_TRANSPORT_H_
