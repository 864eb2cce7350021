#include "perfbench/host.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

constexpr zygos::Nanos kSamplePeriod = 2 * zygos::kMillisecond;

struct Status {
  bool runnable = false;  // running or waiting for a CPU, not sleeping
  long long blocked = -1;  // voluntary context switches: times it went to sleep
};

// The thread's scheduling state and voluntary switch count; blocked is -1 if the
// thread's status could not be read.
Status ReadStatus(pid_t tid) {
  Status status;
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%d/status", static_cast<int>(tid));
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return status;
  }
  char line[256];
  char state = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "State: %c", &state) == 1) {
      status.runnable = state == 'R';
    } else if (std::sscanf(line, "voluntary_ctxt_switches: %lld", &status.blocked) == 1) {
      break;
    }
  }
  std::fclose(f);
  return status;
}

}  // namespace

StealMonitor::StealMonitor() : sampler_([this] { Loop(); }) {}

StealMonitor::~StealMonitor() {
  stop_.store(true, std::memory_order_relaxed);
  sampler_.join();
}

void StealMonitor::Loop() {
  self_tid_ = static_cast<pid_t>(::syscall(SYS_gettid));
  while (!stop_.load(std::memory_order_relaxed)) {
    Sample();
    std::this_thread::sleep_for(std::chrono::nanoseconds(kSamplePeriod));
  }
}

void StealMonitor::Sample() {
  zygos::Nanos now = zygos::NowNanos();
  zygos::Nanos stolen = 0;
  std::unordered_map<pid_t, ThreadSample> seen;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return;
  }
  while (dirent* entry = ::readdir(dir)) {
    auto tid = static_cast<pid_t>(std::atol(entry->d_name));
    if (tid <= 0 || tid == self_tid_) {
      continue;
    }
    char path[64];
    std::snprintf(path, sizeof path, "/proc/self/task/%d/schedstat", static_cast<int>(tid));
    FILE* f = std::fopen(path, "r");
    if (f == nullptr) {
      continue;  // the thread exited
    }
    unsigned long long cpu = 0;
    unsigned long long wait = 0;
    int n = std::fscanf(f, "%llu %llu", &cpu, &wait);
    std::fclose(f);
    Status status = ReadStatus(tid);
    if (n != 2 || status.blocked < 0) {
      continue;
    }
    ThreadSample sample{now, cpu, wait, status.runnable, status.blocked};
    auto it = last_.find(tid);
    if (it != last_.end() && it->second.runnable && it->second.blocked == status.blocked) {
      // The thread was runnable at the last sample and has not gone to sleep since,
      // so it was runnable throughout: the part of the interval it neither ran nor
      // waited for a guest CPU is time the host took from it. A thread that slept is
      // skipped: its gap may be its own. The kernel brings a running thread's CPU
      // time up to date only at scheduler ticks, so one interval's figure may be off
      // by a tick either way; summed unclipped, the errors cancel over a window.
      zygos::Nanos interval = now - it->second.at;
      auto accounted = static_cast<zygos::Nanos>((cpu - it->second.cpu) +
                                                 (wait - it->second.wait));
      stolen += interval - accounted;
    }
    seen.emplace(tid, sample);
  }
  ::closedir(dir);
  last_ = std::move(seen);
  std::lock_guard<std::mutex> lock(mutex_);
  zygos::Nanos total = timeline_.empty() ? 0 : timeline_.back().stolen;
  timeline_.push_back(Point{now, total + stolen});
}

zygos::Nanos StealMonitor::StolenAt(zygos::Nanos at) const {
  auto it = std::lower_bound(timeline_.begin(), timeline_.end(), at,
                             [](const Point& p, zygos::Nanos t) { return p.at < t; });
  if (it == timeline_.begin()) {
    return it == timeline_.end() ? 0 : it->stolen;
  }
  if (it == timeline_.end()) {
    return timeline_.back().stolen;
  }
  // Linear between the samples around `at`.
  const Point& lo = *(it - 1);
  const Point& hi = *it;
  double f = static_cast<double>(at - lo.at) / static_cast<double>(hi.at - lo.at);
  return lo.stolen + static_cast<zygos::Nanos>(f * static_cast<double>(hi.stolen - lo.stolen));
}

zygos::Nanos StealMonitor::StolenBetween(zygos::Nanos from, zygos::Nanos to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Tick rounding can leave a quiet span slightly below zero.
  return std::max<zygos::Nanos>(0, StolenAt(to) - StolenAt(from));
}

}  // namespace perfbench
