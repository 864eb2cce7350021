// The benchmark's own arithmetic: percentiles with their support, self time of a span
// whose children overlap, the per-flow sequence join, and the failure ratio.
//
// perfbench/selftest.cc pins each rule with small hand-checked inputs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time_units.h"

namespace perfbench {

using zygos::Nanos;

// Nearest-rank position (1-based) of quantile q among n samples: the q-quantile is
// the smallest sample with at least q*n samples at or below it.
inline uint64_t QuantileRank(uint64_t n, double q) {
  if (n == 0) {
    return 0;
  }
  // The epsilon keeps q*n == 990 from rounding up to 991 through 0.99's binary form.
  auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

// Samples ranked strictly above the q-quantile.
inline uint64_t SamplesBeyond(uint64_t n, double q) { return n - QuantileRank(n, q); }

// A percentile is reported as measured only when at least this many samples lie
// beyond it; below that, one outlier more or less moves it.
constexpr uint64_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;  // in the unit the caller converted to
  uint64_t samples = 0;
  uint64_t beyond = 0;
  bool supported() const { return beyond >= kMinSamplesBeyond; }
};

// Exact percentile of raw samples (sorted in place).
inline Percentile PercentileOf(std::vector<double>& values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) {
    return p;
  }
  std::sort(values.begin(), values.end());
  p.value = values[QuantileRank(values.size(), q) - 1];
  p.beyond = SamplesBeyond(values.size(), q);
  return p;
}

// Percentile of a latency histogram in microseconds (bucket-edge precision, ~0.8%).
inline Percentile PercentileUs(const zygos::LatencyHistogram& histogram, double q) {
  Percentile p;
  p.samples = histogram.Count();
  p.value = static_cast<double>(histogram.Quantile(q)) / 1e3;
  p.beyond = SamplesBeyond(p.samples, q);
  return p;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Indices of the windows the host disturbed least: the third of `steal` (at least
// three) with the lowest values, plus every window tied with the last one taken, so
// that windows without steal information are all kept.
inline std::vector<size_t> QuietestWindows(const std::vector<double>& steal) {
  constexpr size_t kMinCount = 3;
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&steal](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = std::min(order.size(), std::max(kMinCount, (order.size() + 2) / 3));
  while (keep < order.size() && steal[order[keep]] == steal[order[keep - 1]]) {
    keep++;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

struct Interval {
  Nanos start = 0;
  Nanos end = 0;
};

// Self time of `parent`: its duration minus the part of it covered by the union of
// `children` (clipped to the parent). Overlapping children count once.
inline Nanos SelfTime(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) {
    return 0;
  }
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  Nanos covered = 0;
  Nanos reach = parent.start;  // end of the union merged so far
  for (const Interval& child : children) {
    if (child.end <= child.start || child.end <= reach) {
      continue;
    }
    covered += child.end - std::max(child.start, reach);
    reach = child.end;
  }
  return (parent.end - parent.start) - covered;
}

// Per-flow request numbering on the server side. The generator numbers each
// connection's requests 0, 1, 2, ... and the runtime runs a flow's handler in request
// order (one owner at a time), so the k-th handler call on a connection answers the
// request whose wire id is k. A flow id is reused by later connections; Open starts
// a new connection's numbering and bumps its generation so the two never join.
// Thread-compatible per flow: Open runs on the flow's home core before any of its
// segments are delivered, Next runs under the flow's exclusive ownership.
class FlowSequencer {
 public:
  struct Key {
    uint64_t flow = 0;
    uint32_t generation = 0;
    uint64_t seq = 0;
    bool operator==(const Key&) const = default;
  };

  explicit FlowSequencer(size_t max_flows) : flows_(max_flows) {}

  void Open(uint64_t flow) {
    if (flow < flows_.size()) {
      flows_[flow].generation.fetch_add(1, std::memory_order_relaxed);
      flows_[flow].next.store(0, std::memory_order_relaxed);
    }
  }
  // Key of the next request handled on `flow`.
  Key Next(uint64_t flow) {
    if (flow >= flows_.size()) {
      return Key{flow, 0, ~0ull};
    }
    State& s = flows_[flow];
    return Key{flow, s.generation.load(std::memory_order_relaxed),
               s.next.fetch_add(1, std::memory_order_relaxed)};
  }
  // Key of the response with wire id `request_id` on `flow`'s current connection.
  Key Response(uint64_t flow, uint64_t request_id) const {
    uint32_t generation =
        flow < flows_.size() ? flows_[flow].generation.load(std::memory_order_relaxed)
                             : 0;
    return Key{flow, generation, request_id};
  }

 private:
  // Atomic only so that the runtime's ownership hand-offs, not this class, order
  // the accesses from different cores.
  struct State {
    std::atomic<uint32_t> generation{0};
    std::atomic<uint64_t> next{0};
  };
  std::vector<State> flows_;
};

struct KeyHash {
  size_t operator()(const FlowSequencer::Key& k) const {
    uint64_t h = k.flow * 0x9e3779b97f4a7c15ULL ^ (k.seq + 0x632be59bd9b4e019ULL) ^
                 (static_cast<uint64_t>(k.generation) << 48);
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

// Failed operations over attempted ones; 0 when nothing was attempted.
inline double FailRatio(uint64_t failed, uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) / static_cast<double>(attempted);
}

// a / b, or 0 when b is 0 (a layer the workload does not exercise).
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
