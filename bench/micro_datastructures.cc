// Microbenchmarks (google-benchmark) for the data structures on the runtime's hot
// paths: locks, rings, the shuffle layer, frame parsing, RSS hashing,
// histograms, RNG, the KV hash table and single-threaded OCC transactions. These
// ground the cost-model constants in DESIGN.md ("shuffle enqueue ~80 ns" etc.) against
// what this host actually measures.
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/concurrency/mpmc_queue.h"
#include "src/concurrency/spinlock.h"
#include "src/concurrency/spsc_ring.h"
#include "src/core/shuffle_layer.h"
#include "src/db/database.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_txns.h"
#include "src/db/txn.h"
#include "src/hw/rss.h"
#include "src/kvstore/hash_table.h"
#include "src/net/message.h"
#include "src/net/pcb.h"

namespace zygos {
namespace {

void BM_SpinlockLockUnlock(benchmark::State& state) {
  Spinlock lock;
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
}
BENCHMARK(BM_SpinlockLockUnlock);

void BM_SpinlockTryLock(benchmark::State& state) {
  Spinlock lock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.TryLock());
    lock.Unlock();
  }
}
BENCHMARK(BM_SpinlockTryLock);

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  uint64_t i = 0;
  for (auto _ : state) {
    ring.TryPush(i++);
    benchmark::DoNotOptimize(ring.TryPop());
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_MpmcQueuePushPop(benchmark::State& state) {
  MpmcQueue<uint64_t> queue(1024);
  uint64_t i = 0;
  for (auto _ : state) {
    queue.TryPush(i++);
    benchmark::DoNotOptimize(queue.TryPop());
  }
}
BENCHMARK(BM_MpmcQueuePushPop);

// The shuffle layer's local path: notify (idle->ready, enqueue) + dequeue
// (ready->busy) + complete (busy->idle). This is the "shuffle enqueue/dequeue ~80 ns"
// entry of the cost model.
void BM_ShuffleLocalCycle(benchmark::State& state) {
  ShuffleLayer shuffle(4);
  Pcb pcb(/*flow_id=*/0, /*home_core=*/0);
  for (auto _ : state) {
    pcb.PushEvent(PcbEvent{});
    shuffle.NotifyPending(&pcb);
    Pcb* claimed = shuffle.DequeueLocal(0);
    benchmark::DoNotOptimize(claimed);
    claimed->PopEvent();
    shuffle.CompleteExecution(claimed);
  }
}
BENCHMARK(BM_ShuffleLocalCycle);

// The steal path: remote trylock + pop + ownership transfer ("steal ~500 ns" entry).
void BM_ShuffleStealCycle(benchmark::State& state) {
  ShuffleLayer shuffle(4);
  Pcb pcb(/*flow_id=*/0, /*home_core=*/0);
  for (auto _ : state) {
    pcb.PushEvent(PcbEvent{});
    shuffle.NotifyPending(&pcb);
    Pcb* stolen = shuffle.TrySteal(/*thief_core=*/2, /*victim_core=*/0);
    benchmark::DoNotOptimize(stolen);
    stolen->PopEvent();
    shuffle.CompleteExecution(stolen);
  }
}
BENCHMARK(BM_ShuffleStealCycle);

void BM_FrameParserRoundTrip(benchmark::State& state) {
  std::string wire;
  EncodeMessage(Message{42, std::string(64, 'x')}, wire);
  FrameParser parser;
  for (auto _ : state) {
    parser.Feed(wire.data(), wire.size());
    benchmark::DoNotOptimize(parser.TakeMessages());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_FrameParserRoundTrip);

void BM_RssHomeLookup(benchmark::State& state) {
  RssTable rss(128, 16);
  uint64_t flow = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rss.HomeCoreOf(flow++));
  }
}
BENCHMARK(BM_RssHomeLookup);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram histogram;
  Rng rng(1);
  for (auto _ : state) {
    histogram.Record(static_cast<Nanos>(rng.NextBounded(1'000'000)));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  LatencyHistogram histogram;
  Rng rng(1);
  for (int i = 0; i < 100'000; ++i) {
    histogram.Record(static_cast<Nanos>(rng.NextBounded(1'000'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.Quantile(0.99));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextExponential(10'000.0));
  }
}
BENCHMARK(BM_RngExponential);

void BM_KvHashTableGet(benchmark::State& state) {
  HashTable table(1 << 16);
  for (int i = 0; i < 10'000; ++i) {
    table.Set("key-" + std::to_string(i), std::string(32, 'v'));
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Get("key-" + std::to_string(rng.NextBounded(10'000))));
  }
}
BENCHMARK(BM_KvHashTableGet);

void BM_KvHashTableSet(benchmark::State& state) {
  HashTable table(1 << 16);
  Rng rng(3);
  std::string value(32, 'v');
  for (auto _ : state) {
    table.Set("key-" + std::to_string(rng.NextBounded(10'000)), value);
  }
}
BENCHMARK(BM_KvHashTableSet);

void BM_OccReadOnlyTxn(benchmark::State& state) {
  Database db;
  TableId table = db.CreateTable("t");
  {
    TxnExecutor executor(db);
    executor.Run([&](Transaction& txn) {
      for (int i = 0; i < 100; ++i) {
        txn.Write(table, "k" + std::to_string(i), std::string(64, 'v'));
      }
      return true;
    });
  }
  uint64_t last = 0;
  Rng rng(5);
  for (auto _ : state) {
    Transaction txn(db);
    benchmark::DoNotOptimize(
        txn.Read(table, "k" + std::to_string(rng.NextBounded(100))));
    benchmark::DoNotOptimize(txn.Commit(&last));
  }
}
BENCHMARK(BM_OccReadOnlyTxn);

void BM_OccReadModifyWriteTxn(benchmark::State& state) {
  Database db;
  TableId table = db.CreateTable("t");
  {
    TxnExecutor executor(db);
    executor.Run([&](Transaction& txn) {
      for (int i = 0; i < 100; ++i) {
        txn.Write(table, "k" + std::to_string(i), std::string(64, 'v'));
      }
      return true;
    });
  }
  uint64_t last = 0;
  Rng rng(5);
  for (auto _ : state) {
    Transaction txn(db);
    std::string key = "k" + std::to_string(rng.NextBounded(100));
    auto value = txn.Read(table, key);
    txn.Write(table, key, *value);
    benchmark::DoNotOptimize(txn.Commit(&last));
  }
}
BENCHMARK(BM_OccReadModifyWriteTxn);

void BM_TpccNewOrder(benchmark::State& state) {
  Database db;
  LoaderOptions options = LoaderOptions::Tiny(1);
  options.items = 1000;
  options.customers_per_district = 300;
  options.initial_orders_per_district = 300;
  TpccTables tables = LoadTpcc(db, options);
  TpccWorkload workload(db, tables, options);
  TxnExecutor executor(db);
  TpccRandom random(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.NewOrder(executor, random));
  }
}
BENCHMARK(BM_TpccNewOrder);

void BM_TpccPayment(benchmark::State& state) {
  Database db;
  LoaderOptions options = LoaderOptions::Tiny(1);
  options.items = 1000;
  options.customers_per_district = 300;
  options.initial_orders_per_district = 300;
  TpccTables tables = LoadTpcc(db, options);
  TpccWorkload workload(db, tables, options);
  TxnExecutor executor(db);
  TpccRandom random(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.Payment(executor, random));
  }
}
BENCHMARK(BM_TpccPayment);

}  // namespace
}  // namespace zygos

BENCHMARK_MAIN();
