// The ETC and USR workloads (Atikoglu et al. [1], as modelled by mutilate [34]).
//
// Fig. 9 evaluates memcached under two Facebook traces:
//   - USR: tiny fixed-size records (short keys, 2-byte values), overwhelmingly GETs.
//     Near-deterministic sub-microsecond service times.
//   - ETC: the general-purpose pool: 20-45 byte keys, value sizes spread to ~1 KB
//     (we use a discretized approximation of the published size distribution), ~97% GET.
//
// The generator pre-populates a KvService and then produces a request stream; it also
// measures the service's per-operation cost to build the empirical service-time
// distribution that drives the Fig. 9 system-model runs.
// Contract: generators are single-threaded per instance (one per client thread);
// measured service times are wall-clock Nanos on this host.
#ifndef ZYGOS_KVSTORE_WORKLOAD_H_
#define ZYGOS_KVSTORE_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/rng.h"
#include "src/kvstore/service.h"

namespace zygos {

enum class KvWorkloadKind { kUsr, kEtc };

struct KvWorkloadSpec {
  KvWorkloadKind kind = KvWorkloadKind::kUsr;
  uint64_t num_keys = 100'000;
  double get_fraction = 0.998;

  static KvWorkloadSpec Usr() {
    return KvWorkloadSpec{KvWorkloadKind::kUsr, 100'000, 0.998};
  }
  static KvWorkloadSpec Etc() {
    return KvWorkloadSpec{KvWorkloadKind::kEtc, 100'000, 0.97};
  }
  const char* Name() const { return kind == KvWorkloadKind::kUsr ? "USR" : "ETC"; }
};

class KvWorkload {
 public:
  KvWorkload(KvWorkloadSpec spec, uint64_t seed);

  // Key for index i (stable; used for population and request generation).
  std::string KeyAt(uint64_t index) const;
  // Samples a value for SETs / population, per the workload's size distribution.
  std::string SampleValue(Rng& rng) const;
  // Builds one request payload (GET or SET per the mix, uniform key popularity).
  std::string SampleRequest(Rng& rng) const;

  // Inserts every key with a sampled value: KeyAt(i) -> SampleValue(rng) for a
  // fixed-seed rng, each key built in a stack buffer (one allocation per key, its
  // table entry).
  void Populate(KvService& service);

  // Runs `samples` operations against the populated service, timing each with the
  // steady clock, and returns the measured per-op service times in nanoseconds. Each
  // timing covers the served path: HandleView into a ResponseBuilder, then Finish.
  // This is the measured-substrate step of the Fig. 9 methodology.
  std::vector<Nanos> MeasureServiceTimes(KvService& service, int samples);

  const KvWorkloadSpec& spec() const { return spec_; }

 private:
  // Longest key KeyAt builds: ETC pads to at most 45 bytes, and "k" plus the
  // digits of a 64-bit index is at most 21.
  static constexpr size_t kMaxKeySize = 45;

  // Writes key `index` into `out` (kMaxKeySize bytes) and returns its length.
  size_t BuildKey(uint64_t index, char* out) const;
  // Draws a value length exactly as SampleValue does (same Rng draws).
  size_t SampleValueSize(Rng& rng) const;

  KvWorkloadSpec spec_;
  uint64_t seed_;
  mutable Rng rng_;
};

}  // namespace zygos

#endif  // ZYGOS_KVSTORE_WORKLOAD_H_
