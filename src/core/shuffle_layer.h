// The shuffle layer: ZygOS's central mechanism (§4.2 layer 2, §4.4, §5).
//
// One shuffle queue per core holds the ordered set of connections homed on that core
// that (a) have pending events and (b) are not currently being processed anywhere.
// The home core produces into it from the netstack; the home core or any idle remote
// core consumes from it. Grouping events *by socket* (the queue holds connections, not
// raw events, and a connection appears at most once) is what eliminates head-of-line
// blocking while preserving per-socket ordering.
//
// Locking matches the paper's implementation: one spinlock per core guards both that
// core's queue and the scheduling-state transitions of sockets homed there. Local
// operations take the lock; steals use TryLock so a contended victim is simply skipped.
// StealAny is the idle loop's steal step (§5 step (b)) for the real-thread runtime;
// the discrete-event model keeps its own costed scan (src/sysmodel/zygos_model.cc).
//
// Contract: every method is thread-safe and may be called from any core; ApproxEmpty/
// ApproxSize/StatsFor are unsynchronized reads (exact only at quiescence). A Pcb passed
// to NotifyPending must outlive the layer's use of it (the layer stores raw pointers).
#ifndef ZYGOS_CORE_SHUFFLE_LAYER_H_
#define ZYGOS_CORE_SHUFFLE_LAYER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/concurrency/cache_line.h"
#include "src/concurrency/spinlock.h"
#include "src/net/pcb.h"

namespace zygos {

// Statistics counters, exposed for tests and the steal-rate experiments (Fig. 8).
struct ShuffleStats {
  uint64_t local_dequeues = 0;
  uint64_t steals = 0;
  uint64_t failed_steal_probes = 0;  // victim empty or lock contended
};

class ShuffleLayer {
 public:
  explicit ShuffleLayer(int num_cores);

  int num_cores() const { return num_cores_; }

  // Home-core netstack notification: `pcb` (homed on this layer's queue
  // pcb->home_core()) has at least one pending event. If the connection is idle it
  // becomes ready and is enqueued; if it is ready or busy nothing happens (the pending
  // event will be picked up when the current owner finishes). Returns true if the
  // connection was enqueued.
  bool NotifyPending(Pcb* pcb);

  // Dequeues the oldest ready connection homed on `core`, transitioning it to busy with
  // `core` as owner. Returns nullptr if the queue is empty.
  Pcb* DequeueLocal(int core);

  // Steal attempt: thief `thief_core` tries to take the oldest ready connection homed
  // on `victim_core`. Uses TryLock; returns nullptr on contention or empty queue.
  Pcb* TrySteal(int thief_core, int victim_core);

  // Idle-loop steal: probes every other core's shuffle queue at most once, in a random
  // victim order (a random first victim, then the rest in rotation: allocation-free,
  // and idle cores do not all convoy on one victim), skipping queues that look empty,
  // and returns the first connection TrySteal claims for `thief_core`. nullptr when
  // no remote queue yielded one.
  Pcb* StealAny(int thief_core, Rng& rng);

  // Called by the execution path once the connection's current event has been fully
  // processed *including* all of its (possibly remote) system calls. Re-enqueues the
  // connection if more events are pending (busy -> ready), otherwise parks it
  // (busy -> idle). Returns true if the connection was re-enqueued.
  bool CompleteExecution(Pcb* pcb);

  // Teardown hook (connection close): atomically detaches `pcb` from the scheduler
  // if no core owns it. busy -> returns false (the current owner — possibly a thief —
  // must finish and release first; the caller retries on a later pass, which is how
  // the §4.3 ownership discipline extends to teardown: a connection is never torn
  // down while stolen). ready -> removed from the home queue, parked idle, returns
  // true. idle -> returns true. After a true return the scheduler holds no reference
  // to `pcb` and the caller may drain/reset/recycle it.
  bool TryRetire(Pcb* pcb);

  // Racy peek used by idle loops; may under- or over-report briefly.
  bool ApproxEmpty(int core) const;
  size_t ApproxSize(int core) const;

  // Per-core counters (unsynchronized reads; exact when the core is quiescent).
  const ShuffleStats& StatsFor(int core) const { return per_core_[core]->stats; }
  // Sum over cores.
  ShuffleStats TotalStats() const;

 private:
  struct alignas(kCacheLineSize) PerCore {
    Spinlock lock;                 // guards queue + sched_state of sockets homed here
    std::deque<Pcb*> queue;
    std::atomic<size_t> approx_size{0};
    ShuffleStats stats;
  };

  Pcb* PopFrontLocked(PerCore& pc, int new_owner);

  int num_cores_;
  std::vector<std::unique_ptr<PerCore>> per_core_;
};

}  // namespace zygos

#endif  // ZYGOS_CORE_SHUFFLE_LAYER_H_
