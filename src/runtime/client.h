// Thread-safe latency collector wired to the runtime's completion callback (server-
// side latency: arrival at the transport -> TX, as examples/kv_server.cpp reports
// it). The open-loop load generator that drives the runtime — scheduled send times,
// coordinated-omission-safe accounting, warmup windows — is the TCP client in
// src/loadgen/tcp_loadgen.h.
//
// On hosts with fewer hardware threads than workers the wall-clock latencies include
// OS scheduling noise — the examples print them as illustrations; the reproducible
// latency *experiments* all run on the discrete-event models (src/sysmodel).
//
// Contract: latencies are wall-clock Nanos. LatencyCollector is thread-safe and
// sharded per recording thread (completion callbacks on many workers land in disjoint
// histograms; Snapshot() merges), so concurrent Record calls never serialize on one
// lock.
#ifndef ZYGOS_RUNTIME_CLIENT_H_
#define ZYGOS_RUNTIME_CLIENT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

#include "src/common/histogram.h"
#include "src/common/time_units.h"
#include "src/concurrency/cache_line.h"
#include "src/concurrency/spinlock.h"
#include "src/runtime/runtime.h"

namespace zygos {

// Thread-safe latency sink; pass Handler() as the Runtime's completion callback.
//
// Internally one histogram shard per recording thread (first kShards distinct threads
// get private shards; later threads wrap around). Each shard keeps its own spinlock so
// Snapshot() can merge concurrently with traffic, but in steady state every worker
// owns its shard's lock uncontended — completion callbacks on 8+ workers no longer
// serialize the measurement path.
class LatencyCollector {
 public:
  void Record(Nanos arrival) {
    Nanos now = NowNanos();
    Shard& shard = shards_[ShardIndex()];
    Spinlock::Guard guard(shard.lock);
    shard.histogram.Record(now - arrival);
  }

  CompletionHandler Handler() {
    return [this](uint64_t flow_id, uint64_t request_id, std::string_view response,
                  Nanos arrival, bool shed) {
      (void)flow_id;
      (void)request_id;
      (void)response;
      if (shed) {
        return;  // refusal, not a served request: keep it out of the percentiles
      }
      Record(arrival);
    };
  }

  // Merged copy of every shard (safe while traffic is running).
  LatencyHistogram Snapshot() const {
    LatencyHistogram merged;
    for (const Shard& shard : shards_) {
      Spinlock::Guard guard(shard.lock);
      merged.Merge(shard.histogram);
    }
    return merged;
  }

 private:
  static constexpr size_t kShards = 16;

  struct alignas(kCacheLineSize) Shard {
    mutable Spinlock lock;
    LatencyHistogram histogram;
  };

  // Stable per-thread shard index: threads enumerate themselves on first use, so each
  // runtime worker lands in its own shard (process-wide counter; an index is just an
  // index, sharing it across collectors is fine).
  static size_t ShardIndex() {
    static std::atomic<size_t> next_thread{0};
    thread_local size_t index = next_thread.fetch_add(1, std::memory_order_relaxed);
    return index % kShards;
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_CLIENT_H_
