// Tracing harness for the traced run: spans recorded from outside the program, around
// the calls into each layer's public interface.
//
//   TracingTransport  forwarding Transport decorator. Times every PollBatch (the
//                     `transport.rx` span, batch level, with segment and control
//                     counts) and TransmitBatch (the `transport.tx` span, one record
//                     per response it carries).
//   TracedHandler     ViewHandler wrapper. Times each application call (the `app`
//                     span) and notes which core ran it.
//   SpanRecorder      per-worker span memory. Worker q appends only to buffer q, and
//                     the buffers are read once the runtime has joined its workers.
//
// A request's spans share one id, (flow, connection generation, per-flow sequence),
// built by FlowSequencer (perfbench/stats.h) with no change to the program: the root
// `request` span runs from the response's arrival stamp (TxSegment::arrival, set when
// the transport received the bytes) to the end of the TransmitBatch that sent it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "perfbench/stats.h"
#include "src/concurrency/cache_line.h"
#include "src/runtime/runtime.h"
#include "src/runtime/transport.h"

namespace perfbench {

struct AppSpan {
  FlowSequencer::Key key;
  Nanos start = 0;
  Nanos end = 0;
  int core = 0;  // worker that ran the handler
  int home = 0;  // the flow's home core
  int phase = 0;
};

struct TxSpan {
  FlowSequencer::Key key;
  Nanos arrival = 0;  // the request's receive stamp: the root span's start
  Nanos start = 0;
  Nanos end = 0;
  int phase = 0;
  bool batch_head = false;  // first response of its TransmitBatch call
};

struct RxSpan {
  Nanos start = 0;
  Nanos end = 0;
  uint32_t segments = 0;
  uint32_t control = 0;
  int phase = 0;
};

class SpanRecorder {
 public:
  static constexpr int kMaxPhases = 4;

  SpanRecorder(int queues, size_t max_flows);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Tags every span recorded from now on; 0 <= phase < kMaxPhases. Set only while
  // no request is in flight.
  void set_phase(int phase) { phase_.store(phase, std::memory_order_relaxed); }
  int phase() const { return phase_.load(std::memory_order_relaxed); }

  FlowSequencer& sequencer() { return sequencer_; }

  struct alignas(zygos::kCacheLineSize) QueueBuffer {
    std::vector<AppSpan> app;
    std::vector<TxSpan> tx;
    std::vector<RxSpan> rx;
    uint64_t polls[kMaxPhases] = {};  // every PollBatch call, empty or not
  };
  // Touched only by worker `queue` while the runtime runs.
  QueueBuffer& buffer(int queue) { return *buffers_[static_cast<size_t>(queue)]; }
  const QueueBuffer& buffer(int queue) const {
    return *buffers_[static_cast<size_t>(queue)];
  }
  int queues() const { return static_cast<int>(buffers_.size()); }

 private:
  std::atomic<int> phase_{0};
  FlowSequencer sequencer_;
  std::vector<std::unique_ptr<QueueBuffer>> buffers_;
};

// The worker queue whose PollBatch last ran on this thread through a TracingTransport
// (every worker polls its own queue before it runs any handler); -1 elsewhere.
int CurrentTracedQueue();

class TracingTransport final : public zygos::Transport {
 public:
  TracingTransport(std::unique_ptr<zygos::Transport> inner, SpanRecorder& recorder);

  int num_queues() const override { return inner_->num_queues(); }
  int QueueOf(uint64_t flow_id) const override { return inner_->QueueOf(flow_id); }
  const zygos::RssTable& rss() const override { return inner_->rss(); }
  zygos::RssTable& mutable_rss() override { return inner_->mutable_rss(); }
  void Start() override { inner_->Start(); }
  void Stop() override { inner_->Stop(); }
  size_t PollBatch(int queue, std::span<zygos::Segment> out,
                   std::vector<zygos::ControlEvent>& control) override;
  size_t TransmitBatch(int queue, std::span<zygos::TxSegment> batch) override;
  bool ApproxNonEmpty(int queue) const override { return inner_->ApproxNonEmpty(queue); }
  void CloseFlow(int queue, uint64_t flow_id) override {
    inner_->CloseFlow(queue, flow_id);
  }
  void ReleaseFlowId(uint64_t flow_id) override { inner_->ReleaseFlowId(flow_id); }
  uint64_t Drops() const override { return inner_->Drops(); }
  uint64_t IoSyscalls() const override { return inner_->IoSyscalls(); }
  bool Inject(zygos::Segment segment) override {
    return inner_->Inject(std::move(segment));
  }

 private:
  std::unique_ptr<zygos::Transport> inner_;
  SpanRecorder& recorder_;
};

// Wraps `inner` so each call records an `app` span. `transport` maps a flow to its
// home core; both it and `recorder` must outlive the handler.
zygos::ViewHandler TracedHandler(zygos::ViewHandler inner, SpanRecorder& recorder,
                                 const zygos::Transport& transport);

// Per-layer figures of one traced phase, computed after the runtime has stopped.
struct TraceSummary {
  uint64_t polls = 0;
  uint64_t useful_polls = 0;  // returned segments or control events
  uint64_t rx_segments = 0;
  Nanos rx_busy = 0;          // time inside useful PollBatch calls
  uint64_t tx_calls = 0;
  uint64_t tx_responses = 0;
  Nanos tx_busy = 0;
  uint64_t app_spans = 0;
  uint64_t joined = 0;        // app spans matched to the response that answered them
  std::vector<double> app_ns;
  std::vector<double> residence_us;
  std::vector<double> wait_us;  // self time of the request span
  std::vector<double> stolen_wait_us;
  std::vector<double> local_wait_us;
};

TraceSummary Summarize(const SpanRecorder& recorder, int phase);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
