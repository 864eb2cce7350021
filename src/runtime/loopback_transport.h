// Loopback transport: the in-process Transport backend, standing in for a multi-queue
// 10GbE NIC (the harness every test and DES-side experiment drives).
//
// Clients inject byte segments tagged with a flow id; RSS (src/hw/rss.h) maps the flow
// to its home core's receive ring, exactly like hardware flow steering. Rings are
// bounded (a full ring drops the segment and counts it, as a NIC would) and
// multi-producer (any client thread) / single-consumer (the home core drains its ring
// in one batched pass; any thread may *poll* occupancy). Transmission is a loopback: the response never serializes onto a
// wire, it completes straight into the completion callback.
//
// Connection lifecycle is test-drivable: OpenFlow/CloseFlowFromClient enqueue
// kFlowOpened/kFlowClosed control events on the flow's home queue, standing in for a
// TCP accept and a peer hangup. Flows may also be used without an explicit open (the
// runtime binds a slot lazily on first segment — the historical harness behaviour).
// CloseFlowFromClient must only be sent once the flow's in-flight requests have
// completed (a client that drains before hanging up): segments racing past a close
// are refused by the runtime, and a refused loopback injection wedges Shutdown's
// injected/completed accounting.
//
// Contract: Inject/PollBatch/TransmitBatch/ApproxNonEmpty follow the Transport
// contract (src/runtime/transport.h); RSS reprogramming (mutable_rss) is NOT
// synchronized against concurrent Inject and must happen at quiescence.
// Segment::arrival is the client's wall-clock inject time.
#ifndef ZYGOS_RUNTIME_LOOPBACK_TRANSPORT_H_
#define ZYGOS_RUNTIME_LOOPBACK_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/concurrency/mpmc_queue.h"
#include "src/hw/rss.h"
#include "src/runtime/transport.h"

namespace zygos {

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(int num_queues, int num_flow_groups, size_t ring_capacity)
      : rss_(num_flow_groups, num_queues) {
    rings_.reserve(static_cast<size_t>(num_queues));
    control_.reserve(static_cast<size_t>(num_queues));
    severs_.reserve(static_cast<size_t>(num_queues));
    for (int q = 0; q < num_queues; ++q) {
      rings_.push_back(std::make_unique<MpmcQueue<Segment>>(ring_capacity));
      control_.push_back(std::make_unique<MpmcQueue<ControlEvent>>(ring_capacity));
      severs_.push_back(std::make_unique<SeverBuffer>());
    }
  }

  int num_queues() const override { return static_cast<int>(rings_.size()); }
  const RssTable& rss() const override { return rss_; }
  RssTable& mutable_rss() override { return rss_; }

  int QueueOf(uint64_t flow_id) const override { return rss_.HomeCoreOf(flow_id); }

  // Injects a segment; returns false (and counts a drop) when the ring is full.
  bool Inject(Segment segment) override {
    // Transport-arrival stamp: the loopback "NIC" receives the bytes now, whatever
    // (possibly backdated, CO-safe) `arrival` the client chose for latency accounting.
    if (segment.rx_nanos == 0) {
      segment.rx_nanos = NowNanos();
    }
    int queue = QueueOf(segment.flow_id);
    if (!rings_[static_cast<size_t>(queue)]->TryPush(std::move(segment))) {
      drops_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  // Client-side lifecycle injection: the loopback analogues of a TCP accept and a
  // peer hangup, delivered as control events on the flow's home queue. Thread-safe
  // (any client thread). Return false when the control ring is full.
  bool OpenFlow(uint64_t flow_id) {
    return PushControl(ControlEvent{ControlEventKind::kFlowOpened, flow_id});
  }
  bool CloseFlowFromClient(uint64_t flow_id) {
    return PushControl(ControlEvent{ControlEventKind::kFlowClosed, flow_id});
  }

  // Server-side sever (runtime-initiated, home-core-only per the Transport
  // contract): buffered in a per-queue vector the same worker drains on its next
  // poll — never dropped, unlike the bounded client-side control ring (a lost sever
  // would leak the connection slot for the table's lifetime).
  void CloseFlow(int queue, uint64_t flow_id) override {
    severs_[static_cast<size_t>(queue)]->events.push_back(
        ControlEvent{ControlEventKind::kFlowClosed, flow_id});
    // A sever discards whatever the flow had in flight: account it as a drop, the
    // same bookkeeping the socket backends do (transport conformance contract).
    drops_.fetch_add(1, std::memory_order_relaxed);
  }

  // Drains buffered severs, then client control events, then the segment ring in one
  // synchronized batch (single dequeue-cursor CAS). Control-before-segments matches
  // the Transport ordering contract for callers that quiesce a flow before closing.
  size_t PollBatch(int queue, std::span<Segment> out,
                   std::vector<ControlEvent>& control) override {
    std::vector<ControlEvent>& severs = severs_[static_cast<size_t>(queue)]->events;
    control.insert(control.end(), severs.begin(), severs.end());
    severs.clear();
    MpmcQueue<ControlEvent>& events = *control_[static_cast<size_t>(queue)];
    while (auto event = events.TryPop()) {
      control.push_back(*event);
    }
    return rings_[static_cast<size_t>(queue)]->TryPopBatch(out);
  }

  // Loopback TX: completion *is* delivery — the response payload (a view into the
  // pooled TX frame) returns to the in-process client through the completion
  // callback, with no wire and no serialization in between.
  size_t TransmitBatch(int queue, std::span<TxSegment> batch) override {
    (void)queue;
    for (const TxSegment& tx : batch) {
      NotifyComplete(tx);
    }
    return batch.size();
  }

  bool ApproxNonEmpty(int queue) const override {
    return !rings_[static_cast<size_t>(queue)]->ApproxEmpty() ||
           !control_[static_cast<size_t>(queue)]->ApproxEmpty();
  }

  uint64_t Drops() const override { return drops_.load(std::memory_order_relaxed); }

 private:
  bool PushControl(ControlEvent event) {
    int queue = QueueOf(event.flow_id);
    return control_[static_cast<size_t>(queue)]->TryPush(event);
  }

  // Home-core-only sever buffer (heap-allocated per queue so neighbouring queues'
  // vectors never share a cache line with each other or the rings).
  struct SeverBuffer {
    std::vector<ControlEvent> events;
  };

  RssTable rss_;
  std::vector<std::unique_ptr<MpmcQueue<Segment>>> rings_;
  std::vector<std::unique_ptr<MpmcQueue<ControlEvent>>> control_;
  std::vector<std::unique_ptr<SeverBuffer>> severs_;
  std::atomic<uint64_t> drops_{0};
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_LOOPBACK_TRANSPORT_H_
