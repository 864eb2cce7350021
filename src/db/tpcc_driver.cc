#include "src/db/tpcc_driver.h"

#include <sys/resource.h>

#include <thread>

namespace zygos {

namespace {

// The calling thread's voluntary context switches so far.
uint64_t ThreadVoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<uint64_t>(usage.ru_nvcsw);
}

}  // namespace

TpccMeasurement TpccDriver::Measure(uint64_t count, uint64_t warmup, uint64_t seed) {
  TpccMeasurement result;
  TxnExecutor executor(db_);
  TpccRandom random(seed);
  for (uint64_t i = 0; i < warmup; ++i) {
    workload_.Run(workload_.SampleType(random), executor, random);
  }
  uint64_t retries_before = executor.retries();
  uint64_t aborts_before = executor.user_aborts();
  result.mix.reserve(count);
  uint64_t switches_before = ThreadVoluntarySwitches();
  Nanos run_start = NowNanos();
  for (uint64_t i = 0; i < count; ++i) {
    TpccTxnType type = workload_.SampleType(random);
    Nanos start = NowNanos();
    TxnStatus status = workload_.Run(type, executor, random);
    Nanos elapsed = NowNanos() - start;
    result.per_type[static_cast<size_t>(type)].push_back(elapsed);
    result.mix.push_back(elapsed);
    if (status == TxnStatus::kCommitted) {
      result.committed++;
    }
  }
  Nanos run_end = NowNanos();
  result.voluntary_switches = ThreadVoluntarySwitches() - switches_before;
  result.user_aborts = executor.user_aborts() - aborts_before;
  result.occ_retries = executor.retries() - retries_before;
  result.throughput_tps =
      static_cast<double>(count) * 1e9 / static_cast<double>(run_end - run_start);
  return result;
}

TpccMeasurement TpccDriver::RunConcurrent(int threads, uint64_t count, uint64_t seed) {
  TpccMeasurement result;
  std::vector<std::thread> workers;
  std::vector<TpccMeasurement> partials(static_cast<size_t>(threads));
  uint64_t per_thread = count / static_cast<uint64_t>(threads);
  Nanos run_start = NowNanos();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, per_thread, seed, &partials] {
      TxnExecutor executor(db_);
      TpccRandom random(seed + static_cast<uint64_t>(t) * 7919);
      TpccMeasurement& partial = partials[static_cast<size_t>(t)];
      uint64_t switches_before = ThreadVoluntarySwitches();
      for (uint64_t i = 0; i < per_thread; ++i) {
        TpccTxnType type = workload_.SampleType(random);
        uint64_t retries = executor.retries();
        TxnStatus status = workload_.Run(type, executor, random);
        partial.occ_retries_per_type[static_cast<size_t>(type)] +=
            executor.retries() - retries;
        if (status == TxnStatus::kCommitted) {
          partial.committed++;
        }
      }
      partial.voluntary_switches = ThreadVoluntarySwitches() - switches_before;
      partial.user_aborts = executor.user_aborts();
      partial.occ_retries = executor.retries();
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  Nanos run_end = NowNanos();
  for (const auto& partial : partials) {
    result.committed += partial.committed;
    result.user_aborts += partial.user_aborts;
    result.occ_retries += partial.occ_retries;
    for (size_t type = 0; type < kTpccTxnTypes; ++type) {
      result.occ_retries_per_type[type] += partial.occ_retries_per_type[type];
    }
    result.voluntary_switches += partial.voluntary_switches;
  }
  result.throughput_tps = static_cast<double>(per_thread) *
                          static_cast<double>(threads) * 1e9 /
                          static_cast<double>(run_end - run_start);
  return result;
}

EmpiricalDistribution TpccMixDistribution(const TpccMeasurement& measurement) {
  return EmpiricalDistribution(measurement.mix);
}

}  // namespace zygos
