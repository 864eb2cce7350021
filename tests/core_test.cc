// Tests for the shuffle layer (state machine, stealing, ordering invariants) and its
// idle-loop steal, StealAny — the paper's core contribution (§4.3–§4.5, §5).
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/shuffle_layer.h"
#include "src/net/pcb.h"

// Global allocation counter (the idiom of bench/micro_dataplane.cc): the idle steal
// runs on every idle pass and must never reach the heap.
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// Out of line, both sides: once inlined, GCC pairs the malloc/free inside with the
// caller's new/delete expressions and reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void* operator new[](size_t size) { return operator new(size); }
void operator delete(void* p, size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, size_t) noexcept { operator delete(p); }

namespace zygos {
namespace {

PcbEvent Ev(uint64_t id) { return PcbEvent{id, 0, 0, {}}; }

TEST(ShuffleLayerTest, NotifyEnqueuesIdleConnectionOnce) {
  ShuffleLayer shuffle(2);
  Pcb pcb(1, 0);
  pcb.PushEvent(Ev(1));
  EXPECT_TRUE(shuffle.NotifyPending(&pcb));
  EXPECT_EQ(pcb.sched_state(), PcbState::kReady);
  // Second notification while ready: no duplicate enqueue.
  pcb.PushEvent(Ev(2));
  EXPECT_FALSE(shuffle.NotifyPending(&pcb));
  EXPECT_EQ(shuffle.ApproxSize(0), 1u);
}

TEST(ShuffleLayerTest, DequeueLocalTransitionsToBusy) {
  ShuffleLayer shuffle(2);
  Pcb pcb(1, 0);
  pcb.PushEvent(Ev(1));
  shuffle.NotifyPending(&pcb);
  Pcb* got = shuffle.DequeueLocal(0);
  ASSERT_EQ(got, &pcb);
  EXPECT_EQ(pcb.sched_state(), PcbState::kBusy);
  EXPECT_EQ(pcb.owner_core(), 0);
  EXPECT_EQ(shuffle.DequeueLocal(0), nullptr);
  EXPECT_EQ(shuffle.StatsFor(0).local_dequeues, 1u);
}

TEST(ShuffleLayerTest, StealTransfersOwnershipToThief) {
  ShuffleLayer shuffle(2);
  Pcb pcb(1, 0);
  pcb.PushEvent(Ev(1));
  shuffle.NotifyPending(&pcb);
  Pcb* got = shuffle.TrySteal(/*thief=*/1, /*victim=*/0);
  ASSERT_EQ(got, &pcb);
  EXPECT_EQ(pcb.owner_core(), 1);
  EXPECT_EQ(pcb.home_core(), 0) << "home core never changes";
  EXPECT_EQ(shuffle.StatsFor(1).steals, 1u);
}

TEST(ShuffleLayerTest, StealFromEmptyQueueFails) {
  ShuffleLayer shuffle(2);
  EXPECT_EQ(shuffle.TrySteal(1, 0), nullptr);
  EXPECT_EQ(shuffle.StatsFor(1).failed_steal_probes, 1u);
}

TEST(ShuffleLayerTest, CompleteWithPendingEventsRequeues) {
  ShuffleLayer shuffle(2);
  Pcb pcb(1, 0);
  pcb.PushEvent(Ev(1));
  pcb.PushEvent(Ev(2));
  shuffle.NotifyPending(&pcb);
  Pcb* got = shuffle.DequeueLocal(0);
  got->PopEvent();  // consume first event; second remains
  EXPECT_TRUE(shuffle.CompleteExecution(got));
  EXPECT_EQ(pcb.sched_state(), PcbState::kReady);
  EXPECT_EQ(shuffle.ApproxSize(0), 1u);
}

TEST(ShuffleLayerTest, CompleteWithEmptyQueueParksIdle) {
  ShuffleLayer shuffle(2);
  Pcb pcb(1, 0);
  pcb.PushEvent(Ev(1));
  shuffle.NotifyPending(&pcb);
  Pcb* got = shuffle.DequeueLocal(0);
  got->PopEvent();
  EXPECT_FALSE(shuffle.CompleteExecution(got));
  EXPECT_EQ(pcb.sched_state(), PcbState::kIdle);
  EXPECT_EQ(pcb.owner_core(), -1);
  EXPECT_TRUE(shuffle.ApproxEmpty(0));
}

TEST(ShuffleLayerTest, EventArrivingWhileBusyIsNotLost) {
  // The race §4.4 is careful about: an event arrives after the owner drained the queue
  // but before it released the socket. NotifyPending while busy must not enqueue, and
  // CompleteExecution must observe the pending event and requeue.
  ShuffleLayer shuffle(2);
  Pcb pcb(1, 0);
  pcb.PushEvent(Ev(1));
  shuffle.NotifyPending(&pcb);
  Pcb* got = shuffle.DequeueLocal(0);
  got->PopEvent();
  // New request lands while busy.
  pcb.PushEvent(Ev(2));
  EXPECT_FALSE(shuffle.NotifyPending(&pcb)) << "busy socket must not be re-enqueued";
  EXPECT_TRUE(shuffle.CompleteExecution(got)) << "pending event must trigger requeue";
  EXPECT_EQ(shuffle.DequeueLocal(0), &pcb);
}

TEST(ShuffleLayerTest, FifoAcrossConnectionsOnOneCore) {
  ShuffleLayer shuffle(1);
  std::vector<std::unique_ptr<Pcb>> pcbs;
  for (int i = 0; i < 5; ++i) {
    pcbs.push_back(std::make_unique<Pcb>(static_cast<uint64_t>(i), 0));
    pcbs.back()->PushEvent(Ev(static_cast<uint64_t>(i)));
    shuffle.NotifyPending(pcbs.back().get());
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(shuffle.DequeueLocal(0), pcbs[static_cast<size_t>(i)].get());
  }
}

// Exclusive-ownership stress: many threads fight over the same home queue; every event
// must be processed exactly once and never concurrently with another event of the same
// socket.
TEST(ShuffleLayerStressTest, ExclusiveOwnershipAndNoLostEvents) {
  constexpr int kCores = 4;
  constexpr int kConnections = 16;
  constexpr uint64_t kEventsPerConnection = 2000;
  ShuffleLayer shuffle(kCores);
  std::vector<std::unique_ptr<Pcb>> pcbs;
  for (int i = 0; i < kConnections; ++i) {
    pcbs.push_back(std::make_unique<Pcb>(static_cast<uint64_t>(i), i % kCores));
  }
  std::atomic<uint64_t> processed{0};
  std::vector<std::atomic<int>> in_flight(kConnections);
  std::vector<std::atomic<uint64_t>> last_seen(kConnections);
  for (auto& a : in_flight) {
    a.store(0);
  }
  for (auto& a : last_seen) {
    a.store(0);
  }

  // Producer: pushes events round-robin and notifies (simulates per-core netstacks).
  std::thread producer([&] {
    for (uint64_t e = 1; e <= kEventsPerConnection; ++e) {
      for (int c = 0; c < kConnections; ++c) {
        pcbs[static_cast<size_t>(c)]->PushEvent(Ev(e));
        shuffle.NotifyPending(pcbs[static_cast<size_t>(c)].get());
      }
    }
  });

  auto worker = [&](int core) {
    Rng rng(static_cast<uint64_t>(core) + 99);
    while (processed.load() < kEventsPerConnection * kConnections) {
      Pcb* pcb = shuffle.DequeueLocal(core);
      if (pcb == nullptr) {
        int victim = static_cast<int>(rng.NextBounded(kCores));
        if (victim != core) {
          pcb = shuffle.TrySteal(core, victim);
        }
      }
      if (pcb == nullptr) {
        std::this_thread::yield();
        continue;
      }
      auto conn = static_cast<size_t>(pcb->flow_id());
      // Exclusive ownership: no other worker may hold this socket.
      ASSERT_EQ(in_flight[conn].fetch_add(1), 0);
      auto ev = pcb->PopEvent();
      if (ev.has_value()) {
        // Per-socket ordering: event ids on one socket are strictly increasing.
        ASSERT_GT(ev->request_id, last_seen[conn].load());
        last_seen[conn].store(ev->request_id);
        processed.fetch_add(1);
      }
      ASSERT_EQ(in_flight[conn].fetch_sub(1), 1);
      shuffle.CompleteExecution(pcb);
    }
  };
  std::vector<std::thread> workers;
  for (int c = 0; c < kCores; ++c) {
    workers.emplace_back(worker, c);
  }
  producer.join();
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(processed.load(), kEventsPerConnection * kConnections);
  auto stats = shuffle.TotalStats();
  EXPECT_EQ(stats.local_dequeues + stats.steals, 0u + shuffle.TotalStats().local_dequeues +
                                                     shuffle.TotalStats().steals);
}

// --- Idle-loop steal (StealAny) ------------------------------------------------------

// One ready connection homed on each core in `homes`.
std::vector<std::unique_ptr<Pcb>> ReadyPcbs(ShuffleLayer& shuffle, std::vector<int> homes) {
  std::vector<std::unique_ptr<Pcb>> pcbs;
  for (int home : homes) {
    pcbs.push_back(std::make_unique<Pcb>(pcbs.size(), home));
    pcbs.back()->PushEvent(Ev(1));
    shuffle.NotifyPending(pcbs.back().get());
  }
  return pcbs;
}

// Hands a stolen connection back ready (a fresh event, then release), so repeated
// StealAny calls keep seeing the same stealable layout.
void Requeue(ShuffleLayer& shuffle, Pcb* pcb) {
  pcb->PopEvent();
  pcb->PushEvent(Ev(2));
  shuffle.CompleteExecution(pcb);
}

TEST(StealAnyTest, StealsFromNonEmptyShuffleQueue) {
  ShuffleLayer shuffle(4);
  auto pcbs = ReadyPcbs(shuffle, {2});
  Rng rng(1);
  Pcb* got = shuffle.StealAny(/*thief_core=*/0, rng);
  ASSERT_EQ(got, pcbs[0].get());
  EXPECT_EQ(got->sched_state(), PcbState::kBusy);
  EXPECT_EQ(got->owner_core(), 0);
  EXPECT_EQ(shuffle.StatsFor(0).steals, 1u);
  EXPECT_EQ(shuffle.StatsFor(0).failed_steal_probes, 0u) << "empty victims are skipped";
}

TEST(StealAnyTest, NothingAnywhereReturnsNone) {
  ShuffleLayer shuffle(8);
  Rng rng(9);
  EXPECT_EQ(shuffle.StealAny(3, rng), nullptr);
  EXPECT_EQ(shuffle.StatsFor(3).failed_steal_probes, 0u);
  ShuffleLayer single(1);
  EXPECT_EQ(single.StealAny(0, rng), nullptr);
}

TEST(StealAnyTest, VictimSelectionIsRandomized) {
  // With two equally loaded victims, both must be chosen over repeated steals.
  ShuffleLayer shuffle(3);
  auto pcbs = ReadyPcbs(shuffle, {1, 2});
  Rng rng(11);
  std::set<int> victims;
  for (int i = 0; i < 100; ++i) {
    Pcb* got = shuffle.StealAny(0, rng);
    ASSERT_NE(got, nullptr);
    victims.insert(got->home_core());
    Requeue(shuffle, got);
  }
  EXPECT_EQ(victims, (std::set<int>{1, 2}));
}

TEST(StealAnyTest, NeverTargetsSelf) {
  ShuffleLayer shuffle(4);
  auto pcbs = ReadyPcbs(shuffle, {0, 1, 2, 3});
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    Pcb* got = shuffle.StealAny(2, rng);
    ASSERT_NE(got, nullptr);
    EXPECT_NE(got->home_core(), 2);
    Requeue(shuffle, got);
  }
  // Only the thief's own queue holds work: nothing to steal.
  ShuffleLayer own_only(4);
  auto own = ReadyPcbs(own_only, {2});
  EXPECT_EQ(own_only.StealAny(2, rng), nullptr);
}

TEST(StealAnyTest, PerformsNoHeapAllocation) {
  ShuffleLayer shuffle(8);
  auto pcbs = ReadyPcbs(shuffle, {1, 3, 5, 7});
  ShuffleLayer empty(8);
  Rng rng(17);
  uint64_t allocs = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t before = g_allocs.load();
    Pcb* got = shuffle.StealAny(i % 8, rng);
    Pcb* none = empty.StealAny(i % 8, rng);
    allocs += g_allocs.load() - before;
    EXPECT_EQ(none, nullptr);
    if (got != nullptr) {
      Requeue(shuffle, got);  // may grow the deque: outside the measured window
    }
  }
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace zygos
