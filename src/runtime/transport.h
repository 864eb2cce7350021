// Transport: the runtime's layer-1 substrate as a first-class, swappable interface.
//
// The paper's layer 1 is explicitly a pluggable NIC/netstack pairing (lwIP over RSS
// flow steering, §4.2); the runtime mirrors that by pushing everything below frame
// reassembly behind this boundary. A Transport owns:
//
//   RX   per-queue delivery of byte segments (PollBatch) — queue q is the home core q's
//        receive ring; flow→queue steering is RSS-consistent (QueueOf) so every segment
//        of a flow arrives on the same queue, the invariant all stealing builds on.
//   TX   per-queue transmission of responses (TransmitBatch) — the runtime calls it
//        only from the flow's home core, preserving the home-core-only TX discipline
//        (the "remote batched syscalls" of Fig. 4 hand responses *to* the home core,
//        which then makes one batched pass over this interface).
//   Control  per-queue connection-lifecycle events (ControlEvent): kFlowOpened when a
//        flow starts existing, kFlowClosed when it stops (peer hangup, error, or a
//        server-side sever via CloseFlow). Delivered by PollBatch on the flow's home
//        queue, ordered against that flow's segments: an open precedes the flow's
//        first segment, and no segment for a flow is delivered in or after the batch
//        that closes it. The runtime recycles the flow's connection slot on close and
//        hands the id back with ReleaseFlowId once the slot is safe to rebind.
//   Completion  the transport decides what "a response left the NIC" means (loopback:
//        hand it back to the in-process client; TCP: bytes written to the socket), so
//        the completion callback is a property of the transport, not the runtime.
//
// Backends: LoopbackTransport (src/runtime/loopback_transport.h) for in-process
// harnesses, TcpTransport (src/runtime/tcp_transport.h) for real sockets over epoll,
// UringTransport (src/runtime/uring_transport.h) for real sockets over io_uring.
//
// Contract: PollBatch(q)/TransmitBatch(q) are single-caller per queue (the worker that
// owns queue q; callers serialize per queue). ApproxNonEmpty/QueueOf are thread-safe
// from any thread. Start/Stop bracket the worker threads' lifetime: Start before any
// Poll/Transmit, Stop only after the last one returned. mutable_rss only at quiescence.
#ifndef ZYGOS_RUNTIME_TRANSPORT_H_
#define ZYGOS_RUNTIME_TRANSPORT_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/time_units.h"
#include "src/hw/rss.h"
#include "src/net/message.h"

namespace zygos {

// One unit of arriving bytes for a flow, landed in a pooled buffer (`buf.size()`
// valid bytes). Segment boundaries are arbitrary relative to message frames —
// reassembly is the netstack layer's job (FrameParser), which aliases views into
// this buffer instead of copying it.
struct Segment {
  uint64_t flow_id = 0;
  IoBuf buf;
  // Wall-clock time the bytes reached the transport (loopback: Inject; epoll: the
  // recv that produced the segment; uring: CQE reap). Latency accounting and
  // overload control both start here: server-side queueing is NowNanos() - arrival.
  // Every backend stamps it; the runtime counts zero-stamped segments in
  // WorkerStats::rx_unstamped (conformance-gated to 0).
  Nanos arrival = 0;
};

// One response leaving the server: the unit of TransmitBatch. `frame` is the complete
// wire frame ([header][payload], src/net/message.h) in one pooled buffer, built by
// the executing core — the transport writes it verbatim, no re-encoding, no scratch.
// `arrival` is the matching request's arrival timestamp (latency = TX time - arrival,
// the accounting the completion callback performs).
struct TxSegment {
  uint64_t flow_id = 0;
  uint64_t request_id = 0;
  Nanos arrival = 0;
  IoBuf frame;

  // Application payload inside the frame (what an in-process client receives).
  std::string_view payload() const {
    std::string_view wire = frame.view();
    return wire.size() >= kFrameHeaderSize ? wire.substr(kFrameHeaderSize)
                                           : std::string_view();
  }

  // Whether the frame carries the kFrameFlagShed status (src/net/message.h): decoded
  // from the wire header so the flag cannot drift from what the client will parse.
  bool shed() const {
    std::string_view wire = frame.view();
    if (wire.size() < sizeof(uint32_t)) {
      return false;
    }
    uint32_t len_word = 0;
    std::memcpy(&len_word, wire.data(), sizeof len_word);
    return (len_word & kFrameFlagShed) != 0;
  }
};

// Completion hook: response left the "NIC". Runs on the connection's home core, inside
// TransmitBatch. `response` views the pooled frame — copy it to keep it. `shed` marks
// an overload-control refusal reply (empty payload, kFrameFlagShed on the wire) —
// collectors must not book it as a served request.
using CompletionHandler =
    std::function<void(uint64_t flow_id, uint64_t request_id,
                       std::string_view response, Nanos arrival, bool shed)>;

// Connection-lifecycle notification, delivered by PollBatch on the flow's home queue.
enum class ControlEventKind : uint8_t {
  kFlowOpened,  // the flow exists; its first segment can only arrive afterwards
  kFlowClosed,  // the flow is gone; no further segments will be delivered for it
};

struct ControlEvent {
  ControlEventKind kind = ControlEventKind::kFlowOpened;
  uint64_t flow_id = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Number of receive/transmit queue pairs (== runtime worker count).
  virtual int num_queues() const = 0;

  // Queue (home core) serving `flow_id` under the current RSS programming.
  virtual int QueueOf(uint64_t flow_id) const = 0;

  virtual const RssTable& rss() const = 0;
  // Reprogrammable only at quiescence (no concurrent delivery); Runtime::mutable_rss
  // enforces this.
  virtual RssTable& mutable_rss() = 0;

  // Lifecycle brackets for backends with real resources (sockets, threads). Called by
  // Runtime::Start before workers launch / by Runtime::Shutdown after workers join.
  virtual void Start() {}
  virtual void Stop() {}

  // Drains up to `out.size()` segments from `queue` in one pass; returns the count
  // written to the front of `out`. Connection-lifecycle events for flows homed on
  // `queue` are appended to `control` (which the caller clears); they are ordered
  // before this batch's segments — an open always precedes the flow's first segment,
  // and a close is never followed by more segments for that flow.
  virtual size_t PollBatch(int queue, std::span<Segment> out,
                           std::vector<ControlEvent>& control) = 0;

  // Transmits every response in `batch` on `queue` and fires the completion handler
  // for each; returns the number transmitted (== batch.size(); responses whose
  // connection vanished still complete, they just hit the floor like a TX to a closed
  // socket). Home-core-only: `queue` must be QueueOf(flow) for every element.
  virtual size_t TransmitBatch(int queue, std::span<TxSegment> batch) = 0;

  // Racy occupancy peek, safe from any thread. The runtime's idle loop peeks the
  // calling worker's own queue (§5 step (a)) and, after a failed steal, the queue of
  // each core that is inside a handler, to ring that core's doorbell (steps (c)/(d)).
  virtual bool ApproxNonEmpty(int queue) const = 0;

  // Severs a flow at the transport level (poisoned frame stream, unserviceable flow
  // id): no more segments will be delivered for it and pending responses to it may be
  // dropped. Backends that track the flow acknowledge the sever with a kFlowClosed
  // control event on a later PollBatch, which is what triggers slot recycling.
  // Home-core-only, like TransmitBatch. No-op for backends with nothing to close and
  // for unknown flows.
  virtual void CloseFlow(int queue, uint64_t flow_id) {
    (void)queue;
    (void)flow_id;
  }

  // The runtime finished recycling `flow_id`'s connection slot (parser/PCB reset,
  // slot returned to the freelist): the id may be minted for a new connection from
  // now on — never before, or a reincarnated flow's bytes could land in its
  // predecessor's half-torn-down slot. Called from the flow's home worker, once per
  // kFlowClosed the runtime processed. No-op for backends that never reuse ids.
  virtual void ReleaseFlowId(uint64_t flow_id) { (void)flow_id; }

  // Segments rejected at ingress (full ring / failed TX), as a NIC drop counter would.
  virtual uint64_t Drops() const { return 0; }

  // Data-path syscalls made inside PollBatch/TransmitBatch since Start (epoll:
  // epoll_wait + recv + send + poll; uring: io_uring_enter). The numerator of the
  // syscalls_per_request metric the live benches report (bench/README.md). Excludes
  // control-plane work (acceptor thread) and ApproxNonEmpty observer peeks. Zero for
  // in-process backends (loopback). Racy-but-safe snapshot from any thread.
  virtual uint64_t IoSyscalls() const { return 0; }

  // In-process ingress for loopback-style backends; transports fed by real I/O return
  // false (their traffic arrives on sockets, not through the API).
  virtual bool Inject(Segment segment) {
    (void)segment;
    return false;
  }

  void set_on_complete(CompletionHandler handler) { on_complete_ = std::move(handler); }
  const CompletionHandler& on_complete() const { return on_complete_; }

 protected:
  // Fires the completion callback for one transmitted response.
  void NotifyComplete(const TxSegment& tx) const {
    if (on_complete_) {
      on_complete_(tx.flow_id, tx.request_id, tx.payload(), tx.arrival, tx.shed());
    }
  }

 private:
  CompletionHandler on_complete_;
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_TRANSPORT_H_
