#include "perfbench/trace.h"

#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

thread_local int tls_queue = -1;

// Enough for a few seconds at the rates the workloads run without regrowth.
constexpr size_t kReserveSpans = 1 << 18;

}  // namespace

int CurrentTracedQueue() { return tls_queue; }

SpanRecorder::SpanRecorder(int queues, size_t max_flows) : sequencer_(max_flows) {
  for (int q = 0; q < queues; ++q) {
    auto buffer = std::make_unique<QueueBuffer>();
    buffer->app.reserve(kReserveSpans);
    buffer->tx.reserve(kReserveSpans);
    buffer->rx.reserve(kReserveSpans);
    buffers_.push_back(std::move(buffer));
  }
}

TracingTransport::TracingTransport(std::unique_ptr<zygos::Transport> inner,
                                   SpanRecorder& recorder)
    : inner_(std::move(inner)), recorder_(recorder) {
  // Completions fire inside the inner transport; route them to whatever handler is
  // set on this decorator, so wrapping changes nothing a caller can observe.
  inner_->set_on_complete([this](uint64_t flow_id, uint64_t request_id,
                                 std::string_view response, Nanos arrival, bool shed) {
    if (on_complete()) {
      on_complete()(flow_id, request_id, response, arrival, shed);
    }
  });
}

size_t TracingTransport::PollBatch(int queue, std::span<zygos::Segment> out,
                                   std::vector<zygos::ControlEvent>& control) {
  tls_queue = queue;
  size_t control_before = control.size();
  Nanos start = zygos::NowNanos();
  size_t n = inner_->PollBatch(queue, out, control);
  Nanos end = zygos::NowNanos();
  for (size_t i = control_before; i < control.size(); ++i) {
    if (control[i].kind == zygos::ControlEventKind::kFlowOpened) {
      recorder_.sequencer().Open(control[i].flow_id);
    }
  }
  int phase = recorder_.phase();
  SpanRecorder::QueueBuffer& buffer = recorder_.buffer(queue);
  buffer.polls[phase]++;
  size_t new_control = control.size() - control_before;
  if (n > 0 || new_control > 0) {
    buffer.rx.push_back(RxSpan{start, end, static_cast<uint32_t>(n),
                               static_cast<uint32_t>(new_control), phase});
  }
  return n;
}

size_t TracingTransport::TransmitBatch(int queue, std::span<zygos::TxSegment> batch) {
  int phase = recorder_.phase();
  std::vector<TxSpan>& spans = recorder_.buffer(queue).tx;
  size_t first = spans.size();
  Nanos start = zygos::NowNanos();
  for (const zygos::TxSegment& tx : batch) {
    spans.push_back(TxSpan{recorder_.sequencer().Response(tx.flow_id, tx.request_id),
                           tx.arrival, start, 0, phase, spans.size() == first});
  }
  size_t n = inner_->TransmitBatch(queue, batch);
  Nanos end = zygos::NowNanos();
  for (size_t i = first; i < spans.size(); ++i) {
    spans[i].end = end;
  }
  return n;
}

zygos::ViewHandler TracedHandler(zygos::ViewHandler inner, SpanRecorder& recorder,
                                 const zygos::Transport& transport) {
  return [inner = std::move(inner), &recorder, &transport](
             uint64_t flow_id, std::string_view request,
             zygos::ResponseBuilder& response) {
    FlowSequencer::Key key = recorder.sequencer().Next(flow_id);
    Nanos start = zygos::NowNanos();
    inner(flow_id, request, response);
    Nanos end = zygos::NowNanos();
    int core = CurrentTracedQueue();
    if (core >= 0) {
      recorder.buffer(core).app.push_back(
          AppSpan{key, start, end, core, transport.QueueOf(flow_id), recorder.phase()});
    }
  };
}

TraceSummary Summarize(const SpanRecorder& recorder, int phase) {
  TraceSummary s;
  std::unordered_map<FlowSequencer::Key, const TxSpan*, KeyHash> responses;
  for (int q = 0; q < recorder.queues(); ++q) {
    const SpanRecorder::QueueBuffer& buffer = recorder.buffer(q);
    s.polls += buffer.polls[phase];
    for (const RxSpan& rx : buffer.rx) {
      if (rx.phase == phase) {
        s.useful_polls++;
        s.rx_segments += rx.segments;
        s.rx_busy += rx.end - rx.start;
      }
    }
    for (const TxSpan& tx : buffer.tx) {
      if (tx.phase != phase) {
        continue;
      }
      s.tx_responses++;
      if (tx.batch_head) {
        s.tx_calls++;
        s.tx_busy += tx.end - tx.start;
      }
      responses.emplace(tx.key, &tx);
    }
  }
  for (int q = 0; q < recorder.queues(); ++q) {
    for (const AppSpan& app : recorder.buffer(q).app) {
      if (app.phase != phase) {
        continue;
      }
      s.app_spans++;
      s.app_ns.push_back(static_cast<double>(app.end - app.start));
      auto it = responses.find(app.key);
      if (it == responses.end()) {
        continue;
      }
      const TxSpan& tx = *it->second;
      s.joined++;
      Interval request{tx.arrival, tx.end};
      double wait =
          static_cast<double>(SelfTime(request, {{app.start, app.end}, {tx.start, tx.end}})) /
          1e3;
      s.residence_us.push_back(static_cast<double>(tx.end - tx.arrival) / 1e3);
      s.wait_us.push_back(wait);
      (app.core != app.home ? s.stolen_wait_us : s.local_wait_us).push_back(wait);
    }
  }
  return s;
}

}  // namespace perfbench
