// Host noise: CPU time the hypervisor takes from this process's threads ("steal").
//
// On a shared host a vCPU can be descheduled for tens of milliseconds. Every thread
// on it freezes, so a latency measured across that stall describes the host, not
// the program. StealMonitor samples, every few milliseconds, each thread's schedstat
// (CPU time received and time spent waiting for a guest CPU), its state and its
// count of voluntary context switches. For a thread that was runnable at the start
// of a sampling interval and did not go to sleep during it, the rest of the interval
// is time the host took from it; any other interval is skipped, since its gap may be
// the thread's own sleep.
// The benchmark's busy threads (runtime workers, the closed-loop driver) poll
// without blocking, so their losses are visible here; the open-loop generator's are
// whenever it is not sleeping until its next send.
// perfbench/bench.cc adds this to a window's generator lateness to rank open-loop
// windows by disturbance (QuietestWindows, perfbench/stats.h).
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <sys/types.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/time_units.h"

namespace perfbench {

class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();

  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  // Time taken from this process's runnable threads during [from, to), summed over
  // threads (so it can exceed to - from), in nanoseconds.
  zygos::Nanos StolenBetween(zygos::Nanos from, zygos::Nanos to) const;

 private:
  struct ThreadSample {
    zygos::Nanos at = 0;
    uint64_t cpu = 0;
    uint64_t wait = 0;
    bool runnable = false;
    long long blocked = 0;  // voluntary context switches
  };
  struct Point {
    zygos::Nanos at = 0;
    zygos::Nanos stolen = 0;  // cumulative
  };

  void Sample();
  void Loop();
  zygos::Nanos StolenAt(zygos::Nanos at) const;  // caller holds mutex_

  pid_t self_tid_ = 0;
  std::unordered_map<pid_t, ThreadSample> last_;  // sampler thread only
  mutable std::mutex mutex_;
  std::vector<Point> timeline_;  // guarded by mutex_
  std::atomic<bool> stop_{false};
  std::thread sampler_;  // last: starts after the members it uses exist
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
