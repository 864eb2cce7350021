// Synthetic "spin service": a ViewHandler whose per-request service time is drawn
// from one of the paper's distributions (src/common/distribution.h) — the live-runtime
// analogue of the DES workload generator, used by bench/fig6_live_runtime.cc.
//
// Two ways to burn the sampled time:
//   kSpin   busy-poll the clock (CPU-bound, the paper's synthetic microbenchmark).
//           Faithful when every worker owns a hardware thread.
//   kSleep  block in nanosleep (an I/O-bound stand-in). On hosts with fewer hardware
//           threads than workers — like CI containers — kSpin degenerates into pure
//           timesharing noise, while kSleep keeps concurrent requests genuinely
//           overlappable, so stealing and no-steal remain distinguishable. The OS
//           timer adds ~50 µs of slack per sleep; use mean service times well above
//           that.
//
// The response echoes the request payload.
//
// Contract: the returned ViewHandler is thread-safe (runtime workers call it
// concurrently for different flows); service times are sampled from per-thread RNG
// streams derived from `seed`, so the marginal distribution is exact but the
// per-request sequence depends on which worker executes which request.
#ifndef ZYGOS_LOADGEN_SPIN_SERVICE_H_
#define ZYGOS_LOADGEN_SPIN_SERVICE_H_

#include <memory>
#include <optional>
#include <string_view>

#include "src/common/distribution.h"
#include "src/runtime/runtime.h"

namespace zygos {

enum class ServiceMode { kSpin, kSleep };

inline const char* ServiceModeName(ServiceMode mode) {
  return mode == ServiceMode::kSpin ? "spin" : "sleep";
}

inline std::optional<ServiceMode> ParseServiceMode(std::string_view name) {
  if (name == "spin") {
    return ServiceMode::kSpin;
  }
  if (name == "sleep") {
    return ServiceMode::kSleep;
  }
  return std::nullopt;
}

// Builds the handler. `distribution` is shared by every worker (it is immutable);
// `seed` derives the per-thread sampling streams.
ViewHandler MakeSpinService(std::shared_ptr<const ServiceTimeDistribution> distribution,
                            ServiceMode mode, uint64_t seed);

}  // namespace zygos

#endif  // ZYGOS_LOADGEN_SPIN_SERVICE_H_
