#include "src/core/shuffle_layer.h"

#include <algorithm>
#include <cassert>

namespace zygos {

ShuffleLayer::ShuffleLayer(int num_cores) : num_cores_(num_cores) {
  per_core_.reserve(static_cast<size_t>(num_cores));
  for (int i = 0; i < num_cores; ++i) {
    per_core_.push_back(std::make_unique<PerCore>());
  }
}

bool ShuffleLayer::NotifyPending(Pcb* pcb) {
  PerCore& pc = *per_core_[static_cast<size_t>(pcb->home_core())];
  Spinlock::Guard guard(pc.lock);
  if (pcb->sched_state() != PcbState::kIdle) {
    // Ready (already queued) or busy (current owner will observe the pending event in
    // CompleteExecution). Either way the event is not lost.
    return false;
  }
  pcb->set_sched_state(PcbState::kReady);
  pc.queue.push_back(pcb);
  pc.approx_size.store(pc.queue.size(), std::memory_order_relaxed);
  return true;
}

Pcb* ShuffleLayer::PopFrontLocked(PerCore& pc, int new_owner) {
  if (pc.queue.empty()) {
    return nullptr;
  }
  Pcb* pcb = pc.queue.front();
  pc.queue.pop_front();
  pc.approx_size.store(pc.queue.size(), std::memory_order_relaxed);
  assert(pcb->sched_state() == PcbState::kReady);
  pcb->set_sched_state(PcbState::kBusy);
  pcb->set_owner_core(new_owner);
  return pcb;
}

Pcb* ShuffleLayer::DequeueLocal(int core) {
  PerCore& pc = *per_core_[static_cast<size_t>(core)];
  Spinlock::Guard guard(pc.lock);
  Pcb* pcb = PopFrontLocked(pc, core);
  if (pcb != nullptr) {
    pc.stats.local_dequeues++;
  }
  return pcb;
}

Pcb* ShuffleLayer::TrySteal(int thief_core, int victim_core) {
  PerCore& pc = *per_core_[static_cast<size_t>(victim_core)];
  if (!pc.lock.TryLock()) {
    per_core_[static_cast<size_t>(thief_core)]->stats.failed_steal_probes++;
    return nullptr;
  }
  Pcb* pcb = PopFrontLocked(pc, thief_core);
  pc.lock.Unlock();
  ShuffleStats& thief_stats = per_core_[static_cast<size_t>(thief_core)]->stats;
  if (pcb != nullptr) {
    thief_stats.steals++;
  } else {
    thief_stats.failed_steal_probes++;
  }
  return pcb;
}

Pcb* ShuffleLayer::StealAny(int thief_core, Rng& rng) {
  const int victims = num_cores_ - 1;
  if (victims <= 0) {
    return nullptr;
  }
  const int first = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(victims)));
  for (int i = 0; i < victims; ++i) {
    // Offsets 1..num_cores_-1 from the thief enumerate exactly the other cores.
    int victim = (thief_core + 1 + (first + i) % victims) % num_cores_;
    if (ApproxEmpty(victim)) {
      continue;
    }
    if (Pcb* pcb = TrySteal(thief_core, victim)) {
      return pcb;
    }
  }
  return nullptr;
}

bool ShuffleLayer::CompleteExecution(Pcb* pcb) {
  PerCore& pc = *per_core_[static_cast<size_t>(pcb->home_core())];
  Spinlock::Guard guard(pc.lock);
  assert(pcb->sched_state() == PcbState::kBusy);
  pcb->set_owner_core(-1);
  // The busy->X transition must test the event queue under the shuffle lock so a
  // concurrent NotifyPending cannot slip between the test and the transition.
  if (pcb->HasPendingEvents()) {
    pcb->set_sched_state(PcbState::kReady);
    pc.queue.push_back(pcb);
    pc.approx_size.store(pc.queue.size(), std::memory_order_relaxed);
    return true;
  }
  pcb->set_sched_state(PcbState::kIdle);
  return false;
}

bool ShuffleLayer::TryRetire(Pcb* pcb) {
  PerCore& pc = *per_core_[static_cast<size_t>(pcb->home_core())];
  Spinlock::Guard guard(pc.lock);
  switch (pcb->sched_state()) {
    case PcbState::kBusy:
      return false;  // an owner (home or thief) still holds the socket
    case PcbState::kReady: {
      // Ready means queued exactly once on the home core; unlink it so no core can
      // claim it after we hand it to teardown.
      auto it = std::find(pc.queue.begin(), pc.queue.end(), pcb);
      assert(it != pc.queue.end());
      pc.queue.erase(it);
      pc.approx_size.store(pc.queue.size(), std::memory_order_relaxed);
      pcb->set_sched_state(PcbState::kIdle);
      return true;
    }
    case PcbState::kIdle:
      return true;
  }
  return true;  // unreachable; keeps -Wreturn-type quiet
}

bool ShuffleLayer::ApproxEmpty(int core) const {
  return per_core_[static_cast<size_t>(core)]->approx_size.load(std::memory_order_relaxed) == 0;
}

size_t ShuffleLayer::ApproxSize(int core) const {
  return per_core_[static_cast<size_t>(core)]->approx_size.load(std::memory_order_relaxed);
}

ShuffleStats ShuffleLayer::TotalStats() const {
  ShuffleStats total;
  for (const auto& pc : per_core_) {
    total.local_dequeues += pc->stats.local_dequeues;
    total.steals += pc->stats.steals;
    total.failed_steal_probes += pc->stats.failed_steal_probes;
  }
  return total;
}

}  // namespace zygos
