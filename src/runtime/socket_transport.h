// Shared substrate for socket-backed Transports (epoll TcpTransport, io_uring
// UringTransport): everything above the per-queue data plane is identical across
// backends and lives here —
//
//   - the listener + background acceptor thread (poll/accept4), which assigns each
//     accepted connection a flow id, steers it through the shared RssTable to its
//     home queue, and hands it to the home worker over a per-queue SPSC ring (the
//     lock-free accept path of PR 5);
//   - the flow-id freelist (MintFlowId/ReleaseFlowId): recycled ids first, fresh ids
//     until max_flows, refusal at the cap — so lifetime connections are unbounded
//     while the id space (and the runtime's connection table) stays fixed;
//   - the drop accounting (Drops/StallDrops/CapacityRefusals/AcceptedConnections);
//   - the per-queue data-path syscall counters behind Transport::IoSyscalls(), the
//     numerator of the syscalls_per_request metric the live benches report.
//
//   - the TX send plan (FlowSendPlan): a TxSegment batch grouped by flow into one
//     iovec array with a per-flow send cursor, so each backend sends a flow's
//     responses as one op.
//
// What stays backend-specific is exactly the per-queue I/O engine: how a ready
// socket's bytes become Segments (epoll_wait+recv vs a CQ drain) and how a flow's
// send op is issued (sendmsg vs an IORING_OP_SENDMSG SQE). Derived classes drain
// `accept_ring(q)` at the top of their PollBatch, announce kFlowOpened, and register
// the fd with their engine.
//
// Contract: identical to Transport, plus Start/Stop must call StartListener/
// StopListener. The acceptor only touches the SPSC rings and the freelist — never a
// derived class's per-queue state — so the data path stays lock-free.
#ifndef ZYGOS_RUNTIME_SOCKET_TRANSPORT_H_
#define ZYGOS_RUNTIME_SOCKET_TRANSPORT_H_

#include <sys/socket.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/time_units.h"
#include "src/concurrency/cache_line.h"
#include "src/concurrency/mpmc_queue.h"
#include "src/concurrency/spsc_ring.h"
#include "src/hw/rss.h"
#include "src/runtime/runtime.h"
#include "src/runtime/transport.h"

namespace zygos {

struct TcpTransportOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port back with port()
  int num_queues = 4;
  int num_flow_groups = 128;
  // recv() size per connection per poll pass. The default matches the buffer pool's
  // large size class so every RX segment is a pooled slab; raising it past
  // BufferPool::kLargeCapacity makes each segment an exact-size heap fallback
  // (correct, but no longer allocation-free).
  size_t max_segment_bytes = 4096;
  int listen_backlog = 128;
  // Cap on *concurrent* connections (== outstanding flow ids). Ids are recycled once
  // the runtime finishes tearing down a closed connection's slot (ReleaseFlowId), so
  // lifetime connections are unbounded; at the cap new connections are refused
  // (closed at accept) and counted in CapacityRefusals(). Must equal the runtime's
  // connection-table size — derive with TcpOptionsFor instead of setting it by hand.
  uint64_t max_flows = 4096;
  // A peer that stops reading stalls its home core's TX — and every flow homed there
  // behind it. A TX batch's send to one connection blocks at most this long in total
  // before its unsent responses are dropped (one StallDrops() count each) AND the
  // connection severed, so one misbehaving client costs the core a bounded stall
  // once, not per response.
  Nanos stall_drop_deadline = 50 * kMillisecond;
};

// The single source of truth for flow capacity: derives the transport geometry
// (queues, flow groups, flow cap) from the runtime options it must agree with.
// kv_server/benchmarks build their TcpTransportOptions through this so the transport
// id cap and the runtime connection table can never drift apart (drift silently
// severed flows). Fields without a runtime counterpart keep their defaults.
inline TcpTransportOptions TcpOptionsFor(const RuntimeOptions& runtime_options,
                                         uint16_t port = 0) {
  TcpTransportOptions tcp;
  tcp.port = port;
  tcp.num_queues = runtime_options.num_workers;
  tcp.num_flow_groups = runtime_options.num_flow_groups;
  tcp.max_flows = ResolvedMaxFlows(runtime_options);
  return tcp;
}

// One TransmitBatch's send plan: the batch's frames as one iovec array grouped by
// flow, with one send cursor per flow. Grouping is stable — a flow's responses keep
// their batch order even when two thieves' remote syscalls interleave in the home
// core's queue — so a flow's responses leave as one send op, not one per response.
// A backend keeps at most one op in flight per flow: NextOp points the flow's msghdr
// at no more than IOV_MAX iovecs from the cursor, and Advance consumes what that op
// wrote, so a short write's remainder (or the part past IOV_MAX) goes out on the
// flow's next op, never beside the one before it.
class FlowSendPlan {
 public:
  struct Flow {
    uint64_t flow_id = 0;
    size_t begin = 0;  // [begin, end): the flow's slots, in batch order
    size_t end = 0;
    size_t next = 0;       // first slot not yet fully written
    bool failed = false;   // the unsent responses are dropped, the flow severed
    bool stalled = false;  // the peer stopped reading past stall_drop_deadline
    msghdr msg{};          // the flow's current op (NextOp)

    bool done() const { return next == end; }
    size_t unsent() const { return end - next; }
  };

  // Replans for `batch`. Scratch capacity persists, so steady state allocates
  // nothing.
  void Build(std::span<const TxSegment> batch);
  std::span<Flow> flows() { return flows_; }
  // The flow's next op: at most IOV_MAX iovecs from its cursor.
  msghdr* NextOp(Flow& flow);
  // Consumes `bytes` written by the flow's op: whole frames advance the cursor, a
  // partly written frame resumes mid-frame on the next op.
  void Advance(Flow& flow, size_t bytes);
  // Batch index of the response in plan slot `slot`.
  size_t BatchIndex(size_t slot) const { return order_[slot].second; }

 private:
  std::vector<std::pair<uint64_t, uint32_t>> order_;  // (flow id, batch index)
  std::vector<iovec> iov_;
  std::vector<Flow> flows_;
};

class SocketTransportBase : public Transport {
 public:
  SocketTransportBase(TcpTransportOptions options, const char* backend_name);
  ~SocketTransportBase() override;

  int num_queues() const override { return options_.num_queues; }
  const RssTable& rss() const override { return rss_; }
  RssTable& mutable_rss() override { return rss_; }
  int QueueOf(uint64_t flow_id) const override { return rss_.HomeCoreOf(flow_id); }

  void ReleaseFlowId(uint64_t flow_id) override;
  uint64_t Drops() const override { return drops_.load(std::memory_order_relaxed); }

  // Data-path syscalls made inside PollBatch/TransmitBatch across all queues:
  // epoll_wait/recv/send/poll for the epoll backend, io_uring_enter for the uring
  // backend. Deliberately EXCLUDES the acceptor thread's poll/accept (control plane)
  // and ApproxNonEmpty peeks (the idle loop's own-queue peek runs every idle pass and
  // would otherwise swamp the metric at low load) — see bench/README.md
  // "syscalls_per_request".
  uint64_t IoSyscalls() const override;

  // Drops() decomposed (both are also counted in the aggregate):
  //   StallDrops        responses (and their connections) dropped because the peer
  //                     stopped reading past stall_drop_deadline.
  //   CapacityRefusals  connections refused at accept because max_flows ids were
  //                     outstanding (concurrent connections, not lifetime ones).
  uint64_t StallDrops() const { return stall_drops_.load(std::memory_order_relaxed); }
  uint64_t CapacityRefusals() const {
    return capacity_refusals_.load(std::memory_order_relaxed);
  }

  // TCP bound port (valid after Start).
  uint16_t port() const { return port_; }
  // Lifetime connections accepted (keeps growing under churn; the churn bench's
  // sustained accept rate is this over wall-clock time).
  uint64_t AcceptedConnections() const {
    return accepted_connections_.load(std::memory_order_relaxed);
  }

 protected:
  // An accepted connection in flight from the acceptor to its home worker: fd ready
  // (non-blocking, TCP_NODELAY), flow id minted, home queue fixed at accept time.
  struct AcceptedConn {
    int fd = -1;
    uint64_t flow_id = 0;
    int home_queue = 0;
  };

  // Binds/listens and launches the acceptor thread (derived Start calls this after
  // its per-queue engines exist — accepted connections may arrive immediately).
  void StartListener();
  // Joins the acceptor, closes the listener, and closes every connection still in a
  // handoff ring (it never reached a worker). Derived Stop calls this FIRST, then
  // tears down its own per-queue state.
  void StopListener();

  // Mints a flow id: recycled ids first, then never-used ones; nullopt at the cap.
  std::optional<uint64_t> MintFlowId();

  // Handoff ring for queue q: the derived PollBatch(q) drains this, announces
  // kFlowOpened, and registers the fd with its I/O engine.
  SpscRing<AcceptedConn>& accept_ring(int queue) {
    return *accept_rings_[static_cast<size_t>(queue)];
  }
  const SpscRing<AcceptedConn>& accept_ring(int queue) const {
    return *accept_rings_[static_cast<size_t>(queue)];
  }

  // Data-path syscall accounting for queue q (owner-worker callers; relaxed).
  void CountSyscalls(int queue, uint64_t n) {
    io_syscalls_[static_cast<size_t>(queue)]->value.fetch_add(
        n, std::memory_order_relaxed);
  }

  void CountDrop() { drops_.fetch_add(1, std::memory_order_relaxed); }
  // A failed flow send: one drop (a stall drop if the peer stopped reading) per
  // response it did not fully send.
  void CountUnsent(const FlowSendPlan::Flow& flow) {
    if (flow.stalled) {
      stall_drops_.fetch_add(flow.unsent(), std::memory_order_relaxed);
    }
    drops_.fetch_add(flow.unsent(), std::memory_order_relaxed);
  }

  [[noreturn]] void Fatal(const char* what) const;

  TcpTransportOptions options_;
  RssTable rss_;

 private:
  void AcceptLoop();

  struct alignas(kCacheLineSize) PaddedCounter {
    std::atomic<uint64_t> value{0};
  };

  const char* backend_name_;
  std::vector<std::unique_ptr<SpscRing<AcceptedConn>>> accept_rings_;
  std::vector<std::unique_ptr<PaddedCounter>> io_syscalls_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> accepting_{false};
  std::atomic<uint64_t> next_flow_{0};
  // Ids whose runtime slot finished recycling, ready to mint again. Produced by
  // worker cores (ReleaseFlowId), consumed by the acceptor.
  MpmcQueue<uint64_t> free_ids_;
  std::atomic<uint64_t> accepted_connections_{0};
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> stall_drops_{0};
  std::atomic<uint64_t> capacity_refusals_{0};
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_SOCKET_TRANSPORT_H_
