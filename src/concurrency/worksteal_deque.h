// Chase–Lev work-stealing deque (Chase & Lev, SPAA'05; memory ordering per Lê et al.,
// PPoPP'13), bounded variant.
//
// The classic substrate for work stealing in runtimes (Cilk, TBB, Java F/J — §8
// "Work-stealing within applications"): the owner pushes and pops at the *bottom*
// without synchronization in the common case; thieves CAS at the *top*. ZygOS proper
// steals whole connections from a spinlock'd shuffle queue instead (it needs the
// socket state machine's atomicity), but this deque is provided as the comparison
// substrate for the data-structure microbenchmarks and as a reusable building block —
// e.g. for application-level task parallelism on top of the runtime.
//
// Bounded: capacity fixed at construction (power of two). PushBottom fails when full
// rather than growing — the runtime's queues are all bounded (NIC-ring discipline).
// Contract: PushBottom/PopBottom from the single owner thread only; Steal from any
// thread. Bounded; PushBottom fails when full.
//
// Slots are std::atomic<T> accessed with relaxed loads and stores, as in Lê et al.:
// a thief reads a slot before its CAS on top decides whether the value is its to
// keep, so that read can overlap the owner's write of a recycled slot. The ordering
// comes from top/bottom; the atomic slot only makes the overlapping access defined.
// T must therefore be trivially copyable.
#ifndef ZYGOS_CONCURRENCY_WORKSTEAL_DEQUE_H_
#define ZYGOS_CONCURRENCY_WORKSTEAL_DEQUE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/concurrency/cache_line.h"

namespace zygos {

template <typename T>
class WorkstealDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "WorkstealDeque slots are std::atomic<T>");

 public:
  explicit WorkstealDeque(size_t capacity)
      : mask_(std::bit_ceil(capacity) - 1), slots_(mask_ + 1) {}

  WorkstealDeque(const WorkstealDeque&) = delete;
  WorkstealDeque& operator=(const WorkstealDeque&) = delete;

  // Owner only. Returns false when the deque is full.
  bool PushBottom(T value) {
    int64_t bottom = bottom_.load(std::memory_order_relaxed);
    int64_t top = top_.load(std::memory_order_acquire);
    if (bottom - top > static_cast<int64_t>(mask_)) {
      return false;  // full
    }
    slots_[static_cast<size_t>(bottom) & mask_].store(value, std::memory_order_relaxed);
    // Publish the slot before publishing the new bottom.
    bottom_.store(bottom + 1, std::memory_order_release);
    return true;
  }

  // Owner only. LIFO pop; races with concurrent thieves on the last element.
  std::optional<T> PopBottom() {
    int64_t bottom = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(bottom, std::memory_order_relaxed);
    // The fence orders the bottom update against the top read (seq_cst on both sides
    // of the owner/thief race).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t top = top_.load(std::memory_order_relaxed);
    if (top > bottom) {
      // Deque was empty; restore.
      bottom_.store(bottom + 1, std::memory_order_relaxed);
      return std::nullopt;
    }
    T value =
        slots_[static_cast<size_t>(bottom) & mask_].load(std::memory_order_relaxed);
    if (top != bottom) {
      return value;  // more than one element: no race possible
    }
    // Last element: race thieves via CAS on top.
    bool won = top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                            std::memory_order_relaxed);
    bottom_.store(bottom + 1, std::memory_order_relaxed);
    if (!won) {
      return std::nullopt;  // a thief got it first
    }
    return value;
  }

  // Any thread. FIFO steal from the top; returns nullopt on empty or lost race.
  std::optional<T> Steal() {
    int64_t top = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t bottom = bottom_.load(std::memory_order_acquire);
    if (top >= bottom) {
      return std::nullopt;  // empty
    }
    // Read the value before the CAS: after a successful CAS the owner may overwrite
    // the slot; after a failed CAS the value is discarded.
    T value = slots_[static_cast<size_t>(top) & mask_].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return std::nullopt;  // lost the race
    }
    return value;
  }

  // Racy size estimate (idle-loop peeking).
  size_t ApproxSize() const {
    int64_t bottom = bottom_.load(std::memory_order_acquire);
    int64_t top = top_.load(std::memory_order_acquire);
    return bottom > top ? static_cast<size_t>(bottom - top) : 0;
  }

  bool ApproxEmpty() const { return ApproxSize() == 0; }
  size_t Capacity() const { return mask_ + 1; }

 private:
  const size_t mask_;
  std::vector<std::atomic<T>> slots_;
  alignas(kCacheLineSize) std::atomic<int64_t> top_{0};
  alignas(kCacheLineSize) std::atomic<int64_t> bottom_{0};
};

}  // namespace zygos

#endif  // ZYGOS_CONCURRENCY_WORKSTEAL_DEQUE_H_
