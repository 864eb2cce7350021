// Pooled, refcounted I/O buffers: the allocation-free data plane's memory substrate.
//
// Every layer of the request path (RX segment -> frame reassembly -> handler view ->
// TX frame) hands off the same physical bytes through `IoBuf` handles instead of
// copying `std::string`s. Buffers come from per-thread slab pools in two fixed size
// classes (256 B for small RPCs, 4 KiB for segments/large values); each slab carries an
// intrusive atomic refcount so the parser, the executing core (possibly a thief) and
// the TX path can all reference it concurrently, and the last release returns it to
// its owner pool:
//
//   - released on the owning thread  -> pushed straight onto the pool's freelist;
//   - released on any other thread   -> pushed onto the owner pool's MPSC free ring
//     (the same ship-it-home discipline as the runtime's remote-syscall queue), which
//     the owner drains the next time its freelist runs dry;
//   - ring full or pool-less slab    -> plain heap free (correct, just unpooled).
//
// Requests larger than the biggest class fall back to exact-size heap slabs (counted
// as `fallback_allocs`); freelist growth during warmup is counted as `slab_allocs`.
// In steady state a well-sized workload performs ZERO heap allocations per request:
// `BufferPoolStats::misses()` staying flat is the regression signal tests assert.
//
// Contract: Alloc is called on the pool's owning thread (use AllocBuffer() for "this
// thread's pool"); IoBuf handles are freely copyable/movable across threads and
// Release is thread-safe. Pools are created lazily per thread and intentionally
// leaked at thread exit (buffers may outlive their allocating thread; remote frees
// into a dead thread's ring stay safe). Counters are relaxed atomics: exact when the
// traffic is quiesced, racy-but-safe snapshots while running.
#ifndef ZYGOS_COMMON_BUFFER_POOL_H_
#define ZYGOS_COMMON_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrency/cache_line.h"
#include "src/concurrency/mpmc_queue.h"

namespace zygos {

class BufferPool;

// Slab header, co-located with the payload bytes (one allocation, one cache-line
// aligned data area right after the header). Users never touch this directly.
struct IoSlab {
  std::atomic<uint32_t> refs{1};
  uint32_t capacity = 0;
  uint32_t size = 0;        // bytes valid; written by the producer before sharing
  uint8_t size_class = 0;   // index into BufferPool's classes; kFallbackClass = heap
  BufferPool* owner = nullptr;  // null for fallback slabs

  char* data() { return reinterpret_cast<char*>(this) + kDataOffset; }
  const char* data() const { return reinterpret_cast<const char*>(this) + kDataOffset; }

  // Data starts one cache line in, so header refcount churn never false-shares with
  // payload bytes (see src/concurrency/cache_line.h).
  static constexpr size_t kDataOffset = kCacheLineSize;
};

static_assert(sizeof(IoSlab) <= IoSlab::kDataOffset,
              "IoSlab header outgrew its cache line: it would overlap payload bytes");

// Refcounted handle to a pooled slab. Copy = ref++, destroy = ref--, last one out
// returns the slab to its owner pool (possibly from another thread; see header).
class IoBuf {
 public:
  IoBuf() = default;
  explicit IoBuf(IoSlab* slab) : slab_(slab) {}  // adopts (refs already counted)
  IoBuf(const IoBuf& other) : slab_(other.slab_) { Retain(); }
  IoBuf(IoBuf&& other) noexcept : slab_(other.slab_) { other.slab_ = nullptr; }
  IoBuf& operator=(const IoBuf& other) {
    if (this != &other) {
      ReleaseRef();
      slab_ = other.slab_;
      Retain();
    }
    return *this;
  }
  IoBuf& operator=(IoBuf&& other) noexcept {
    if (this != &other) {
      ReleaseRef();
      slab_ = other.slab_;
      other.slab_ = nullptr;
    }
    return *this;
  }
  ~IoBuf() { ReleaseRef(); }

  explicit operator bool() const { return slab_ != nullptr; }
  char* data() { return slab_->data(); }
  const char* data() const { return slab_->data(); }
  size_t capacity() const { return slab_->capacity; }
  size_t size() const { return slab_ == nullptr ? 0 : slab_->size; }
  // Producer-side: mark how many bytes are valid BEFORE sharing the handle.
  void set_size(size_t n) { slab_->size = static_cast<uint32_t>(n); }
  std::string_view view() const {
    return slab_ == nullptr ? std::string_view()
                            : std::string_view(slab_->data(), slab_->size);
  }

  void Reset() {
    ReleaseRef();
    slab_ = nullptr;
  }

  // Handles currently sharing the slab (racy snapshot under concurrency; exact when
  // only this thread holds references). The uring transport's multishot buffer
  // ring uses unique() to decide when a slot's bytes are no longer aliased by any
  // in-flight Segment/parser view and the slot can go back to the kernel.
  uint32_t use_count() const {
    return slab_ == nullptr ? 0 : slab_->refs.load(std::memory_order_acquire);
  }
  bool unique() const { return use_count() == 1; }

 private:
  void Retain() {
    if (slab_ != nullptr) {
      slab_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void ReleaseRef();

  IoSlab* slab_ = nullptr;
};

struct BufferPoolStats {
  uint64_t freelist_hits = 0;    // allocations served without touching the heap
  uint64_t slab_allocs = 0;      // new slabs carved from the heap (warmup growth)
  uint64_t fallback_allocs = 0;  // oversized requests served as exact-size heap slabs
  uint64_t local_frees = 0;      // releases on the owning thread
  uint64_t remote_frees = 0;     // releases this thread shipped to another pool's ring
  uint64_t ring_drains = 0;      // slabs this pool reclaimed from its remote ring
  uint64_t unpooled_frees = 0;   // full ring / fallback / freelist-cap heap frees

  // Heap allocations: the "allocations per request" numerator. Zero growth after
  // warmup == the allocation-free steady state.
  uint64_t misses() const { return slab_allocs + fallback_allocs; }
};

// Per-thread slab pool. Obtain via ForThisThread(); never constructed directly by
// data-plane code.
class BufferPool {
 public:
  static constexpr size_t kSmallCapacity = 256;
  static constexpr size_t kLargeCapacity = 4096;
  static constexpr size_t kNumClasses = 2;
  static constexpr uint8_t kFallbackClass = 0xff;

  // Calling thread's pool, created (and registered, and leaked) on first use.
  static BufferPool& ForThisThread();

  // Sum of every thread pool's counters (process-wide view for regression tests).
  static BufferPoolStats GlobalSnapshot();

  // Allocates a buffer with capacity >= min_capacity. Owner thread only. The
  // small-class hit is fully inlined (class select + freelist pop + counter bump,
  // no call, no locked instruction — the pool is single-owner so its counters are
  // single-writer plain stores); only misses (empty freelist, oversized request)
  // leave the header. Prefetches the next slab's header and this slab's payload
  // line, which the caller is about to write (recv target / response frame).
  IoBuf Alloc(size_t min_capacity) {
    if (min_capacity > kLargeCapacity) [[unlikely]] {
      return AllocOversized(min_capacity);
    }
    const size_t cls = static_cast<size_t>(min_capacity > kSmallCapacity);
    std::vector<IoSlab*>& freelist = freelists_[cls];
    if (freelist.empty()) [[unlikely]] {
      return AllocSlow(cls);
    }
    IoSlab* slab = freelist.back();
    freelist.pop_back();
    if (!freelist.empty()) {
      __builtin_prefetch(freelist.back(), 1, 3);  // next Alloc's header line
    }
    __builtin_prefetch(slab->data(), 1, 3);  // the payload write that follows
    slab->refs.store(1, std::memory_order_relaxed);
    slab->size = 0;
    freelist_hits_.store(freelist_hits_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    return IoBuf(slab);
  }

  // Returns a slab whose refcount hit zero. Thread-safe; called by IoBuf.
  static void Release(IoSlab* slab);

  BufferPoolStats Snapshot() const;

 private:
  BufferPool();
  ~BufferPool() = delete;  // pools are leaked by design (see header contract)
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Per-class freelist bound: beyond this, local frees go back to the heap so an
  // injection burst cannot pin unbounded memory in a quiet thread's pool.
  static constexpr size_t kFreelistCap[kNumClasses] = {4096, 1024};
  static constexpr size_t kRemoteRingCapacity = 4096;

  static IoSlab* NewSlab(size_t capacity, uint8_t size_class, BufferPool* owner);
  static void HeapFree(IoSlab* slab);

  // Alloc's out-of-line misses: empty freelist (drain the remote ring, then grow)
  // and oversized requests (exact-size heap slab).
  IoBuf AllocSlow(size_t cls);
  IoBuf AllocOversized(size_t min_capacity);

  void LocalFree(IoSlab* slab);
  void RemoteFree(IoSlab* slab);  // invoked on the *releasing* thread
  // Moves everything the remote ring holds onto the freelists; returns count.
  size_t DrainRemoteRing();

  std::array<std::vector<IoSlab*>, kNumClasses> freelists_;
  MpmcQueue<IoSlab*> remote_ring_;

  std::atomic<uint64_t> freelist_hits_{0};
  std::atomic<uint64_t> slab_allocs_{0};
  std::atomic<uint64_t> fallback_allocs_{0};
  std::atomic<uint64_t> local_frees_{0};
  std::atomic<uint64_t> remote_frees_{0};
  std::atomic<uint64_t> ring_drains_{0};
  std::atomic<uint64_t> unpooled_frees_{0};
};

// Out-of-class so BufferPool::Release is visible: the refcount decrement stays
// inline on the release hot path; only the terminal release (refs hit zero) leaves
// the header.
inline void IoBuf::ReleaseRef() {
  if (slab_ != nullptr &&
      slab_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    BufferPool::Release(slab_);
  }
}

// Allocates from the calling thread's pool: the one-liner the data plane uses.
inline IoBuf AllocBuffer(size_t min_capacity) {
  return BufferPool::ForThisThread().Alloc(min_capacity);
}

}  // namespace zygos

#endif  // ZYGOS_COMMON_BUFFER_POOL_H_
