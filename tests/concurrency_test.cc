// Unit and multi-threaded stress tests for the concurrency primitives.
#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/concurrency/mpmc_queue.h"
#include "src/concurrency/spinlock.h"
#include "src/concurrency/spsc_ring.h"

namespace zygos {
namespace {

TEST(SpinlockTest, MutualExclusionUnderContention) {
  Spinlock lock;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        Spinlock::Guard guard(lock);
        counter++;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(SpinlockTest, TryLockFailsWhenHeld) {
  Spinlock lock;
  lock.Lock();
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

TEST(RwSpinlockTest, WritersExcludeReadersAndEachOther) {
  RwSpinlock lock;
  int64_t a = 0;
  int64_t b = 0;  // writers keep a == b; a reader must never see them differ
  std::atomic<int> torn{0};
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        RwSpinlock::Guard guard(lock);
        a++;
        b++;
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        RwSpinlock::SharedGuard guard(lock);
        if (a != b) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(a, 2 * kIterations);
}

TEST(RwSpinlockTest, ReaderIsAdmittedWhileAWriterWaits) {
  // Reader preference: a waiting writer must not hold back a new reader, or a reader
  // that waits on something the first reader's thread owns would deadlock.
  RwSpinlock lock;
  lock.LockShared();
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    RwSpinlock::Guard guard(lock);
    writer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // writer is spinning
  std::atomic<bool> reader_in{false};
  std::thread reader([&] {
    RwSpinlock::SharedGuard guard(lock);
    reader_in.store(true);
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!reader_in.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(reader_in.load());
  EXPECT_FALSE(writer_done.load());
  lock.UnlockShared();
  reader.join();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(SpscRingTest, FifoOrderSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99)) << "ring should be full";
  for (int i = 0; i < 8; ++i) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.Capacity(), 8u);
}

TEST(SpscRingTest, ProducerConsumerStress) {
  SpscRing<uint64_t> ring(64);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    auto v = ring.TryPop();
    if (v.has_value()) {
      ASSERT_EQ(*v, expected);  // strict FIFO, no loss, no duplication
      expected++;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.ApproxEmpty());
}

TEST(MpmcQueueTest, BasicFifoSingleThread) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.ApproxSize(), 2u);
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, FullQueueRejectsPush) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.TryPop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(MpmcQueueTest, MultiProducerSingleConsumerNoLossNoDup) {
  // The remote-syscall usage pattern: several thieves produce, the home core consumes.
  MpmcQueue<uint64_t> q(1024);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 30000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!q.TryPush(value)) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<uint64_t> last_seen(kProducers, 0);
  std::vector<bool> seen_any(kProducers, false);
  uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    auto v = q.TryPop();
    if (!v.has_value()) {
      std::this_thread::yield();
      continue;
    }
    received++;
    auto producer = static_cast<int>(*v / kPerProducer);
    uint64_t seq = *v % kPerProducer;
    if (seen_any[producer]) {
      // Per-producer FIFO must hold for a sequenced queue.
      ASSERT_GT(seq, last_seen[producer]);
    }
    seen_any[producer] = true;
    last_seen[producer] = seq;
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, MultiProducerMultiConsumerTotalSum) {
  MpmcQueue<uint64_t> q(256);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr uint64_t kPerProducer = 20000;
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (uint64_t i = 1; i <= kPerProducer; ++i) {
        while (!q.TryPush(i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (popped.load() < kProducers * kPerProducer) {
        auto v = q.TryPop();
        if (v.has_value()) {
          sum.fetch_add(*v);
          popped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t expected = kProducers * (kPerProducer * (kPerProducer + 1) / 2);
  EXPECT_EQ(sum.load(), expected);
}

TEST(MpmcQueueTest, TryPopBatchDrainsInOrder) {
  MpmcQueue<int> q(16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.TryPush(i));
  }
  std::array<int, 4> out{};
  EXPECT_EQ(q.TryPopBatch(std::span<int>(out.data(), out.size())), 4u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 3);
  // Partial batch: only 6 remain, span asks for 8.
  std::array<int, 8> rest{};
  EXPECT_EQ(q.TryPopBatch(std::span<int>(rest.data(), rest.size())), 6u);
  EXPECT_EQ(rest[0], 4);
  EXPECT_EQ(rest[5], 9);
  EXPECT_EQ(q.TryPopBatch(std::span<int>(out.data(), out.size())), 0u) << "now empty";
  EXPECT_EQ(q.TryPopBatch(std::span<int>()), 0u) << "empty span is a no-op";
}

TEST(MpmcQueueTest, TryPopBatchInterleavesWithSinglePopAndPush) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.TryPush(i));
  }
  EXPECT_EQ(q.TryPop().value(), 0);
  std::array<int, 2> out{};
  EXPECT_EQ(q.TryPopBatch(std::span<int>(out.data(), out.size())), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  // Slots freed by the batch pop are reusable by producers (sequence bookkeeping):
  // 2 values remain (3, 4), so 6 more pushes fill the capacity-8 queue exactly.
  for (int i = 5; i < 11; ++i) {
    ASSERT_TRUE(q.TryPush(i)) << "slot " << i << " not recycled";
  }
  EXPECT_FALSE(q.TryPush(99)) << "queue is full again";
  std::array<int, 8> rest{};
  EXPECT_EQ(q.TryPopBatch(std::span<int>(rest.data(), rest.size())), 8u);
  EXPECT_EQ(rest[0], 3);
  EXPECT_EQ(rest[7], 10);
}

TEST(MpmcQueueTest, TryPopBatchConcurrentProducersNoLossNoDup) {
  // The netstack-drain pattern: many client threads produce, the home core batch-pops.
  MpmcQueue<uint64_t> q(512);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 30000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!q.TryPush(value)) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<uint64_t> last_seen(kProducers, 0);
  std::vector<bool> seen_any(kProducers, false);
  uint64_t received = 0;
  std::array<uint64_t, 64> batch{};
  while (received < kProducers * kPerProducer) {
    size_t n = q.TryPopBatch(std::span<uint64_t>(batch.data(), batch.size()));
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      auto producer = static_cast<int>(batch[i] / kPerProducer);
      uint64_t seq = batch[i] % kPerProducer;
      if (seen_any[producer]) {
        ASSERT_GT(seq, last_seen[producer]) << "per-producer FIFO broken by batch pop";
      }
      seen_any[producer] = true;
      last_seen[producer] = seq;
    }
    received += n;
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_EQ(q.TryPopBatch(std::span<uint64_t>(batch.data(), batch.size())), 0u);
}

TEST(MpmcQueueTest, TryPopBatchConcurrentWithSingleConsumers) {
  // Mixed consumers (batch and single) must partition the stream without loss or dup.
  MpmcQueue<uint64_t> q(256);
  constexpr uint64_t kTotal = 120000;
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> popped{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (uint64_t i = 1; i <= kTotal; ++i) {
      while (!q.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      std::array<uint64_t, 32> batch{};
      while (popped.load() < kTotal) {
        if (c == 0) {
          size_t n = q.TryPopBatch(std::span<uint64_t>(batch.data(), batch.size()));
          for (size_t i = 0; i < n; ++i) {
            sum.fetch_add(batch[i]);
          }
          if (n > 0) {
            popped.fetch_add(n);
            continue;
          }
        } else if (auto v = q.TryPop()) {
          sum.fetch_add(*v);
          popped.fetch_add(1);
          continue;
        }
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(sum.load(), kTotal * (kTotal + 1) / 2);
}

}  // namespace
}  // namespace zygos

