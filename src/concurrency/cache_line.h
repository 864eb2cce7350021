// Cache-line utilities shared by the lock-free / locked data structures.
// Contract: kCacheLineSize is the alignment unit for every per-core structure; keep
// per-core hot state in separate lines to avoid false sharing.
//
// Users (audit when adding per-core state): WorkerStats (src/runtime/runtime.h) —
// per-worker counters written every scheduling pass; MpmcQueue's enqueue/dequeue
// cursors (mpmc_queue.h); TcpTransport::PerQueue
// (src/runtime/tcp_transport.h); LatencyCollector's histogram shards
// (src/runtime/client.h); IoSlab's data offset (src/common/buffer_pool.h) — the
// refcount churns cross-core, the payload bytes must not ride the same line; Doorbell
// (src/runtime/runtime.h) — the per-core interrupt flag other cores ring.
#ifndef ZYGOS_CONCURRENCY_CACHE_LINE_H_
#define ZYGOS_CONCURRENCY_CACHE_LINE_H_

#include <cstddef>

namespace zygos {

// x86-64 cache lines are 64 bytes; we pad shared data to this to avoid false sharing
// between cores, which matters at the microsecond scale the system targets.
inline constexpr size_t kCacheLineSize = 64;

// Emits a CPU pause/yield hint inside spin loops (reduces pipeline flush cost and
// hyperthread contention while spinning).
inline void CpuRelax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace zygos

#endif  // ZYGOS_CONCURRENCY_CACHE_LINE_H_
