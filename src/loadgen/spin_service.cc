#include "src/loadgen/spin_service.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "src/common/time_units.h"

namespace zygos {

namespace {

// Per-handler sampling state: each executing thread gets its own RNG stream (the
// handler runs concurrently on every worker), forked deterministically from the base
// seed in thread-arrival order.
struct SpinServiceState {
  explicit SpinServiceState(uint64_t seed)
      : instance_id(NextInstanceId()), base_seed(seed) {}

  Rng& ForThisThread() {
    // Keyed by a process-unique instance id, NOT the state's address: a benchmark
    // builds a fresh service per sweep point, and a long-lived thread must never
    // resume a dead instance's stream just because the allocator reused its address.
    // Stale entries linger until thread exit, but the map is bounded by the number
    // of service instances the thread ever touched — tiny.
    thread_local std::unordered_map<uint64_t, Rng> streams;
    auto it = streams.find(instance_id);
    if (it == streams.end()) {
      uint64_t stream = next_stream.fetch_add(1, std::memory_order_relaxed);
      Rng seeder(base_seed);
      for (uint64_t i = 0; i <= stream; ++i) {
        seeder.NextU64();
      }
      it = streams.emplace(instance_id, Rng(seeder.NextU64())).first;
    }
    return it->second;
  }

  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t instance_id;
  uint64_t base_seed;
  std::atomic<uint64_t> next_stream{0};
};

}  // namespace

ViewHandler EchoHandler() {
  return [](uint64_t, std::string_view request, ResponseBuilder& response) {
    response.Append(request);
  };
}

ViewHandler MakeSpinService(std::shared_ptr<const ServiceTimeDistribution> distribution,
                            ServiceMode mode, uint64_t seed) {
  auto state = std::make_shared<SpinServiceState>(seed);
  return [distribution = std::move(distribution), state = std::move(state), mode](
             uint64_t flow_id, std::string_view request, ResponseBuilder& response) {
    (void)flow_id;
    Nanos service = distribution->Sample(state->ForThisThread());
    if (mode == ServiceMode::kSpin) {
      // Busy-poll: the clock read itself is the work, as in the paper's spin loop.
      // Every iteration is a safe point that answers a rung doorbell (the live IPI);
      // the deadline moves back by the time spent there, so the request still burns
      // its whole sampled service time outside safe points.
      Nanos deadline = NowNanos() + service;
      while (NowNanos() < deadline) {
        deadline += Runtime::SafePoint();
      }
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(service));
    }
    response.Append(request);
  };
}

}  // namespace zygos
