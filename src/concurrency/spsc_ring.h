// Bounded single-producer / single-consumer ring buffer.
//
// Models a NIC descriptor ring: the (simulated) NIC or a client injector produces
// packets, exactly one core consumes them. Lock-free with acquire/release pairs and
// cached peer indices to minimize coherence traffic.
// Contract: exactly one producer thread and one consumer thread; any thread may call
// ApproxSize/ApproxEmpty (racy snapshot). Capacity is fixed at construction (power of
// two).
#ifndef ZYGOS_CONCURRENCY_SPSC_RING_H_
#define ZYGOS_CONCURRENCY_SPSC_RING_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <optional>
#include <vector>

#include "src/concurrency/cache_line.h"

namespace zygos {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two; the ring holds up to capacity elements.
  explicit SpscRing(size_t capacity)
      : mask_(std::bit_ceil(capacity) - 1), slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Returns false when the ring is full.
  bool TryPush(T value) {
    size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ > mask_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ > mask_) {
        return false;
      }
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt when the ring is empty.
  std::optional<T> TryPop() {
    size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) {
        return std::nullopt;
      }
    }
    T value = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  // Racy size estimate; safe to call from any thread.
  size_t ApproxSize() const {
    size_t head = head_.load(std::memory_order_acquire);
    size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }

  bool ApproxEmpty() const { return ApproxSize() == 0; }

  size_t Capacity() const { return mask_ + 1; }

 private:
  const size_t mask_;
  std::vector<T> slots_;

  alignas(kCacheLineSize) std::atomic<size_t> head_{0};  // producer-owned
  alignas(kCacheLineSize) size_t cached_tail_ = 0;       // producer's view of tail
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};  // consumer-owned
  alignas(kCacheLineSize) size_t cached_head_ = 0;       // consumer's view of head
};

}  // namespace zygos

#endif  // ZYGOS_CONCURRENCY_SPSC_RING_H_
