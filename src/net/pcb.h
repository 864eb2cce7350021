// Protocol control block (PCB): per-connection state shared by the shuffle layer.
//
// Mirrors the paper's design (§4.3–§4.4): each TCP connection has a home core (fixed by
// RSS), a queue of pending events (complete, parsed RPC requests), and a three-state
// scheduling state machine:
//
//     idle  --(events arrive)-->  ready  --(dequeued by a core)-->  busy
//     busy  --(all syscalls done, more events pending)-->  ready (re-enqueued)
//     busy  --(all syscalls done, queue empty)-->  idle
//
// A connection is present in its home core's shuffle queue exactly once while ready,
// and never otherwise. While busy, exactly one core (home or remote) owns the socket —
// the ownership model that gives applications ordered, race-free semantics for
// back-to-back requests on a shared socket without user-level locking.
//
// Locking follows the paper's implementation (§5): the *home core's* shuffle lock
// guards the state field and shuffle-queue membership; a per-PCB spinlock guards the
// event queue (single producer: the home-core netstack; single consumer: the current
// execution core).
// Contract: state transitions only under the home core's shuffle lock; the event
// queue has one producer (home netstack) and one consumer (current owner). Pcbs are
// owned by the runtime/model and must outlive the shuffle layer's raw pointers.
#ifndef ZYGOS_NET_PCB_H_
#define ZYGOS_NET_PCB_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "src/common/time_units.h"
#include "src/concurrency/spinlock.h"
#include "src/net/message.h"

namespace zygos {

enum class PcbState : uint8_t { kIdle, kReady, kBusy };

// One parsed request waiting for application execution.
struct PcbEvent {
  uint64_t request_id = 0;
  // Transport receive stamp (Segment::arrival; the simulated arrival in the system
  // models): the start of latency accounting and the clock deadline shedding runs
  // against.
  Nanos arrival = 0;
  Nanos service = 0;       // pre-sampled demand (synthetic workloads; 0 otherwise)
  // Request bytes as a view into a pooled buffer (runtime); empty in the system
  // models. The view's IoBuf ref keeps the bytes alive until the event retires,
  // even when a thief executes it on another core.
  MessageView msg;
};

class Pcb {
 public:
  Pcb(uint64_t flow_id, int home_core) : flow_id_(flow_id), home_core_(home_core) {}

  Pcb(const Pcb&) = delete;
  Pcb& operator=(const Pcb&) = delete;

  uint64_t flow_id() const { return flow_id_; }
  int home_core() const { return home_core_; }

  // Rebinds a retired PCB to a fresh connection identity (slot recycling,
  // src/runtime/runtime.cc). Only legal at teardown quiescence: idle, unowned, empty
  // event queue — the state ShuffleLayer::TryRetire hands back. The caller provides
  // that quiescence, so no locks are taken here.
  void Reset(uint64_t flow_id, int home_core) {
    flow_id_ = flow_id;
    home_core_ = home_core;
    sched_state_ = PcbState::kIdle;
    owner_core_ = -1;
  }

  // --- Event queue (guarded by event_lock_) -----------------------------------------

  // Appends a parsed request; called by the home-core netstack only.
  void PushEvent(PcbEvent event) {
    Spinlock::Guard guard(event_lock_);
    events_.push_back(std::move(event));
  }

  // Pops the oldest pending request; called by the owning execution core.
  std::optional<PcbEvent> PopEvent() {
    Spinlock::Guard guard(event_lock_);
    if (events_.empty()) {
      return std::nullopt;
    }
    PcbEvent event = std::move(events_.front());
    events_.pop_front();
    return event;
  }

  bool HasPendingEvents() const {
    Spinlock::Guard guard(event_lock_);
    return !events_.empty();
  }

  size_t PendingEventCount() const {
    Spinlock::Guard guard(event_lock_);
    return events_.size();
  }

  // --- Scheduling state (guarded by the home core's shuffle lock) --------------------
  // The shuffle layer is the only code that reads/writes this; see
  // src/core/shuffle_layer.h for the transition discipline.

  PcbState sched_state() const { return sched_state_; }
  void set_sched_state(PcbState s) { sched_state_ = s; }

  // Core currently owning the socket (valid while busy); -1 otherwise.
  int owner_core() const { return owner_core_; }
  void set_owner_core(int core) { owner_core_ = core; }

 private:
  // Non-const so a recycled connection slot can rebind its PCB in place (Reset);
  // immutable between Reset calls.
  uint64_t flow_id_;
  int home_core_;

  mutable Spinlock event_lock_;
  std::deque<PcbEvent> events_;

  PcbState sched_state_ = PcbState::kIdle;
  int owner_core_ = -1;
};

}  // namespace zygos

#endif  // ZYGOS_NET_PCB_H_
