// Microbenchmarks (google-benchmark) for the data structures on the runtime's hot
// paths: locks, rings, the shuffle layer, frame parsing, RSS hashing, histograms, RNG,
// the KV hash table, the Silo table index and single-threaded OCC transactions. These
// ground the cost-model constants in DESIGN.md ("shuffle enqueue ~80 ns" etc.) against
// what this host actually measures.
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/concurrency/mpmc_queue.h"
#include "src/concurrency/spinlock.h"
#include "src/concurrency/spsc_ring.h"
#include "src/core/shuffle_layer.h"
#include "src/db/database.h"
#include "src/db/index.h"
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

// OrderedIndex (the Silo table index) at state.range(0) keys of 16 bytes each. Key i
// leads with a multiplicative hash of i, so keys land all over the tree; the index
// holds the even ones and the odd ones are fresh.
struct IndexKeys {
  explicit IndexKeys(size_t count) : bytes(count * kSize) {
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t words[2] = {i * 0x9e3779b97f4a7c15ull, i};
      for (size_t w = 0; w < 2; ++w) {
        for (size_t b = 0; b < 8; ++b) {
          bytes[i * kSize + w * 8 + b] = static_cast<char>(words[w] >> (56 - 8 * b));
        }
      }
    }
  }
  std::string_view operator[](uint64_t i) const { return {&bytes[i * kSize], kSize}; }

  static constexpr size_t kSize = 16;
  std::vector<char> bytes;
};

void FillIndex(OrderedIndex& index, const IndexKeys& keys, size_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    index.GetOrInsert(keys[2 * i]);
  }
}

void BM_OrderedIndexGetHit(benchmark::State& state) {
  const auto count = static_cast<uint64_t>(state.range(0));
  IndexKeys keys(2 * count);
  OrderedIndex index;
  FillIndex(index, keys, count);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Get(keys[2 * rng.NextBounded(count)]));
  }
}
BENCHMARK(BM_OrderedIndexGetHit)->Arg(1'000)->Arg(1'000'000);

// A fresh key per iteration, at the given size: every 1000 inserts are erased again
// with the clock stopped (erased records stay allocated, as in the database).
void BM_OrderedIndexInsertFresh(benchmark::State& state) {
  const auto count = static_cast<uint64_t>(state.range(0));
  constexpr uint64_t kBatch = 1000;
  IndexKeys keys(2 * count);
  OrderedIndex index;
  FillIndex(index, keys, count);
  Rng rng(13);
  std::vector<uint64_t> batch;
  for (auto _ : state) {
    uint64_t fresh = 2 * rng.NextBounded(count) + 1;
    benchmark::DoNotOptimize(index.GetOrInsert(keys[fresh]));
    batch.push_back(fresh);
    if (batch.size() == kBatch) {
      state.PauseTiming();
      for (uint64_t key : batch) {
        index.Erase(keys[key]);
      }
      batch.clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_OrderedIndexInsertFresh)->Arg(1'000)->Arg(1'000'000);

void BM_OrderedIndexScan10(benchmark::State& state) {
  const auto count = static_cast<uint64_t>(state.range(0));
  IndexKeys keys(2 * count);
  OrderedIndex index;
  FillIndex(index, keys, count);
  const std::string hi(IndexKeys::kSize, '\xff');
  Rng rng(17);
  for (auto _ : state) {
    int rows = 0;
    index.Scan(keys[2 * rng.NextBounded(count)], hi, /*descending=*/false,
               [&rows](const std::string&, Record*) { return ++rows < 10; });
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_OrderedIndexScan10)->Arg(1'000)->Arg(1'000'000);

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
