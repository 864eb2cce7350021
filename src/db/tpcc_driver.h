// TPC-C measurement driver: runs the transaction mix against the real engine and
// records wall-clock per-transaction service times.
//
// This is the paper's Fig. 10a methodology ("Silo locally driving the TPC-C benchmark.
// There is, therefore, no network activity... The Figure reports the service time"):
// the measured distribution then drives the system models for Fig. 10b / Table 1
// through EmpiricalDistribution.
#ifndef ZYGOS_DB_TPCC_DRIVER_H_
#define ZYGOS_DB_TPCC_DRIVER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/time_units.h"
#include "src/db/tpcc_txns.h"

namespace zygos {

struct TpccMeasurement {
  // Service times per transaction type, and the interleaved mix in execution order.
  std::array<std::vector<Nanos>, kTpccTxnTypes> per_type;
  std::vector<Nanos> mix;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;  // NewOrder's intentional 1% rollbacks
  uint64_t occ_retries = 0;
  // RunConcurrent's occ_retries by the type of the transaction that retried: which
  // transactions conflict.
  std::array<uint64_t, kTpccTxnTypes> occ_retries_per_type{};
  double throughput_tps = 0.0;  // committed+rolled-back interactions per second
  // Voluntary context switches of the measuring threads (getrusage RUSAGE_THREAD):
  // the times a worker slept in the kernel, e.g. on an allocator lock.
  uint64_t voluntary_switches = 0;

  const std::vector<Nanos>& ForType(TpccTxnType type) const {
    return per_type[static_cast<size_t>(type)];
  }
};

class TpccDriver {
 public:
  TpccDriver(Database& db, TpccWorkload& workload) : db_(db), workload_(workload) {}

  // Runs `count` mix transactions on the calling thread (plus `warmup` untimed ones)
  // and returns the measured service times.
  TpccMeasurement Measure(uint64_t count, uint64_t warmup, uint64_t seed);

  // Runs `count` mix transactions split over `threads` concurrent workers (OCC stress /
  // saturation throughput). Timing is aggregate only.
  TpccMeasurement RunConcurrent(int threads, uint64_t count, uint64_t seed);

 private:
  Database& db_;
  TpccWorkload& workload_;
};

// Builds an EmpiricalDistribution from measured mix service times (helper for the
// Fig. 10b / Table 1 benches).
EmpiricalDistribution TpccMixDistribution(const TpccMeasurement& measurement);

}  // namespace zygos

#endif  // ZYGOS_DB_TPCC_DRIVER_H_
