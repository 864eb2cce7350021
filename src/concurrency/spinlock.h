// Test-and-test-and-set spinlock with TryLock.
//
// The ZygOS shuffle layer uses exactly this locking discipline (§5): one spinlock per
// core protects the core's shuffle queue and the state-machine transitions of sockets
// homed on that core; remote cores use try-lock for steal attempts so contention never
// blocks a thief — it simply moves on to the next victim.
// Contract: non-recursive; safe for any number of contending threads; no fairness
// guarantee (paper's behaviour — a starved thief just moves on).
//
// RwSpinlock is the readers-writer variant for structures read far more often than
// they change (the Silo layer's per-table index, src/db/index.h). It never sleeps in
// the kernel, and it prefers readers: a reader that arrives while a writer holds the
// lock waits only for that writer, and a writer waits until no reader holds or awaits
// the lock. Contract: non-recursive in either mode; writers may starve under a
// continuous stream of readers, so hold the shared side only for short, bounded work.
#ifndef ZYGOS_CONCURRENCY_SPINLOCK_H_
#define ZYGOS_CONCURRENCY_SPINLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/concurrency/cache_line.h"

namespace zygos {

class alignas(kCacheLineSize) Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void Lock() {
    while (true) {
      if (!locked_.exchange(true, std::memory_order_acquire)) {
        return;
      }
      // Spin on a plain load until the lock looks free (TTAS): avoids hammering the
      // cache line with RMW traffic.
      while (locked_.load(std::memory_order_relaxed)) {
        CpuRelax();
      }
    }
  }

  // Single attempt; returns true if the lock was acquired.
  bool TryLock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void Unlock() { locked_.store(false, std::memory_order_release); }

  // RAII guard.
  class Guard {
   public:
    explicit Guard(Spinlock& lock) : lock_(lock) { lock_.Lock(); }
    ~Guard() { lock_.Unlock(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Spinlock& lock_;
  };

 private:
  std::atomic<bool> locked_{false};
};

class alignas(kCacheLineSize) RwSpinlock {
 public:
  RwSpinlock() = default;
  RwSpinlock(const RwSpinlock&) = delete;
  RwSpinlock& operator=(const RwSpinlock&) = delete;

  // Exclusive side: claims the word only while it reads zero (no writer, no reader).
  void Lock() {
    while (true) {
      uint32_t expected = 0;
      if (state_.load(std::memory_order_relaxed) == 0 &&
          state_.compare_exchange_weak(expected, kWriter, std::memory_order_acquire)) {
        return;
      }
      CpuRelax();
    }
  }

  // Readers that registered while the writer held the lock stay counted, so the
  // release must clear only the writer bit.
  void Unlock() { state_.fetch_and(~kWriter, std::memory_order_release); }

  // Shared side: registers first, then waits out a writer that already holds the
  // lock. The registration is what keeps the next writer out (reader preference).
  void LockShared() {
    uint32_t state = state_.fetch_add(kReader, std::memory_order_acquire);
    while ((state & kWriter) != 0) {
      CpuRelax();
      state = state_.load(std::memory_order_acquire);
    }
  }

  void UnlockShared() { state_.fetch_sub(kReader, std::memory_order_release); }

  // RAII guards.
  class Guard {
   public:
    explicit Guard(RwSpinlock& lock) : lock_(lock) { lock_.Lock(); }
    ~Guard() { lock_.Unlock(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    RwSpinlock& lock_;
  };

  class SharedGuard {
   public:
    explicit SharedGuard(RwSpinlock& lock) : lock_(lock) { lock_.LockShared(); }
    ~SharedGuard() { lock_.UnlockShared(); }
    SharedGuard(const SharedGuard&) = delete;
    SharedGuard& operator=(const SharedGuard&) = delete;

   private:
    RwSpinlock& lock_;
  };

 private:
  static constexpr uint32_t kWriter = 1;
  static constexpr uint32_t kReader = 2;  // readers count in the bits above the writer

  std::atomic<uint32_t> state_{0};
};

}  // namespace zygos

#endif  // ZYGOS_CONCURRENCY_SPINLOCK_H_
