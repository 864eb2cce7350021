// Tests for the benchmark's own arithmetic: percentile support, self time with
// overlapping children, the per-flow sequence join, the tracing decorator's
// bookkeeping, and the failure ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(10000, 0.999), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);

  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(static_cast<double>(1001 - i));  // unsorted on purpose
  }
  Percentile p99 = PercentileOf(values, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported());

  values.pop_back();
  Percentile short_p99 = PercentileOf(values, 0.99);
  EXPECT_EQ(short_p99.samples, 999u);
  EXPECT_FALSE(short_p99.supported());
}

TEST(Percentile, MedianOfEvenAndOdd) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(QuietestWindows, KeepsTheLeastStolenThird) {
  // Nine windows: the least-stolen third is 1, 4 and 3, and window 7 ties with 3.
  std::vector<double> steal = {30, 0, 20, 10, 0, 40, 50, 10, 60};
  EXPECT_EQ(QuietestWindows(steal), (std::vector<size_t>{1, 3, 4, 7}));  // tie at 10
  EXPECT_EQ(QuietestWindows({5, 1, 9}), (std::vector<size_t>{0, 1, 2}));
  // Without steal information every window is kept.
  EXPECT_EQ(QuietestWindows(std::vector<double>(6, 0.0)).size(), 6u);
  EXPECT_TRUE(QuietestWindows({}).empty());
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Covered: [0,5] (clipped), [10,60] (two overlapping), [90,100] (clipped) = 65.
  EXPECT_EQ(SelfTime({0, 100}, {{-5, 5}, {10, 40}, {30, 60}, {90, 120}}), 35);
  // A child nested in another adds nothing.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 80}, {20, 30}}), 30);
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{100, 200}, {-50, 0}}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{0, 100}, {20, 30}}), 0);
}

TEST(FlowSequencer, NumbersEachConnectionFromZero) {
  FlowSequencer seq(16);
  seq.Open(3);
  EXPECT_EQ(seq.Next(3).seq, 0u);
  EXPECT_EQ(seq.Next(3).seq, 1u);
  EXPECT_EQ(seq.Response(3, 1), (FlowSequencer::Key{3, 1, 1}));
  // The flow id is reused by a new connection: numbering restarts under a new
  // generation, so the old connection's request 0 cannot join the new one's.
  seq.Open(3);
  FlowSequencer::Key fresh = seq.Next(3);
  EXPECT_EQ(fresh.seq, 0u);
  EXPECT_NE(fresh, (FlowSequencer::Key{3, 1, 0}));
  EXPECT_EQ(fresh, seq.Response(3, 0));
}

TEST(Join, MatchesHandlerCallsToResponsesPerFlow) {
  SpanRecorder recorder(2, 16);
  FlowSequencer& seq = recorder.sequencer();
  seq.Open(5);
  seq.Open(6);
  // Flow 5 is homed on core 0 and both its requests run there; flow 6's only
  // request is stolen by core 1 and transmitted home on core 0.
  FlowSequencer::Key a = seq.Next(5);
  FlowSequencer::Key b = seq.Next(5);
  FlowSequencer::Key c = seq.Next(6);
  recorder.buffer(0).app.push_back(AppSpan{a, 1000, 3000, 0, 0, 1});
  recorder.buffer(0).app.push_back(AppSpan{b, 3000, 4000, 0, 0, 1});
  recorder.buffer(1).app.push_back(AppSpan{c, 2000, 2500, 1, 0, 1});
  recorder.buffer(0).tx.push_back(TxSpan{seq.Response(5, 0), 0, 4000, 5000, 1, true});
  recorder.buffer(0).tx.push_back(TxSpan{seq.Response(5, 1), 500, 4000, 5000, 1, false});
  recorder.buffer(0).tx.push_back(TxSpan{seq.Response(6, 0), 1000, 6000, 7000, 1, true});
  // A span of another phase is ignored.
  recorder.buffer(0).app.push_back(AppSpan{seq.Next(6), 0, 1, 0, 0, 2});

  TraceSummary s = Summarize(recorder, 1);
  EXPECT_EQ(s.app_spans, 3u);
  EXPECT_EQ(s.joined, 3u);
  EXPECT_EQ(s.tx_calls, 2u);
  EXPECT_EQ(s.tx_responses, 3u);
  EXPECT_EQ(s.tx_busy, 2000);
  // Request a: [0, 5000], children app [1000,3000] and tx [4000,5000]: waits 2 us.
  // Request b: [500, 5000], children [3000,4000] and [4000,5000]: waits 2.5 us.
  // Request c: [1000, 7000], children [2000,2500] and [6000,7000]: waits 4.5 us.
  ASSERT_EQ(s.local_wait_us.size(), 2u);
  ASSERT_EQ(s.stolen_wait_us.size(), 1u);
  EXPECT_DOUBLE_EQ(s.local_wait_us[0] + s.local_wait_us[1], 4.5);
  EXPECT_DOUBLE_EQ(s.stolen_wait_us[0], 4.5);
  std::vector<double> residence = s.residence_us;
  std::sort(residence.begin(), residence.end());
  EXPECT_EQ(residence, (std::vector<double>{4.5, 5.0, 6.0}));
}

// A transport that hands out one scripted batch and counts transmissions.
class ScriptedTransport final : public zygos::Transport {
 public:
  ScriptedTransport() : rss_(8, 2) {}
  int num_queues() const override { return 2; }
  int QueueOf(uint64_t flow_id) const override { return rss_.HomeCoreOf(flow_id); }
  const zygos::RssTable& rss() const override { return rss_; }
  zygos::RssTable& mutable_rss() override { return rss_; }
  size_t PollBatch(int queue, std::span<zygos::Segment> out,
                   std::vector<zygos::ControlEvent>& control) override {
    (void)queue;
    if (opens_ == 0) {
      return 0;
    }
    control.push_back({zygos::ControlEventKind::kFlowOpened, 4});
    opens_--;
    out[0].flow_id = 4;
    return 1;
  }
  size_t TransmitBatch(int queue, std::span<zygos::TxSegment> batch) override {
    (void)queue;
    for (const zygos::TxSegment& tx : batch) {
      NotifyComplete(tx);
    }
    return batch.size();
  }
  bool ApproxNonEmpty(int queue) const override {
    (void)queue;
    return opens_ > 0;
  }

  int opens_ = 1;

 private:
  zygos::RssTable rss_;
};

TEST(TracingTransport, OpensSequencesAndForwardsCompletions) {
  SpanRecorder recorder(2, 16);
  recorder.set_phase(1);
  TracingTransport tracing(std::make_unique<ScriptedTransport>(), recorder);
  int completions = 0;
  tracing.set_on_complete([&completions](uint64_t, uint64_t, std::string_view,
                                         zygos::Nanos, bool) { completions++; });
  std::vector<zygos::Segment> segments(4);
  std::vector<zygos::ControlEvent> control;
  EXPECT_EQ(tracing.PollBatch(0, segments, control), 1u);
  EXPECT_EQ(tracing.PollBatch(0, segments, control), 0u);
  EXPECT_EQ(CurrentTracedQueue(), 0);

  zygos::ViewHandler handler = TracedHandler(
      [](uint64_t, std::string_view, zygos::ResponseBuilder&) {}, recorder, tracing);
  zygos::ResponseBuilder builder;
  handler(4, "x", builder);
  std::vector<zygos::TxSegment> batch(1);
  batch[0].flow_id = 4;
  batch[0].request_id = 0;
  batch[0].frame = builder.Finish(0);
  EXPECT_EQ(tracing.TransmitBatch(0, batch), 1u);
  EXPECT_EQ(completions, 1);

  TraceSummary s = Summarize(recorder, 1);
  EXPECT_EQ(s.polls, 2u);
  EXPECT_EQ(s.useful_polls, 1u);
  EXPECT_EQ(s.rx_segments, 1u);
  EXPECT_EQ(s.joined, 1u);
}

TEST(FailRatio, FailedOverAttempted) {
  EXPECT_EQ(FailRatio(0, 0), 0.0);
  EXPECT_EQ(FailRatio(0, 500), 0.0);
  EXPECT_DOUBLE_EQ(FailRatio(3, 1000), 0.003);
  EXPECT_EQ(FailRatio(7, 7), 1.0);
}

}  // namespace
}  // namespace perfbench
