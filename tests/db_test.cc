// Tests for the Silo-style OCC engine: TID words, records, the ordered index, epochs,
// transaction semantics (read-own-writes, deletes, duplicates), conflict validation,
// phantom detection, and multi-threaded serializability smoke tests.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <sys/mman.h>

#include "src/common/rng.h"
#include "src/db/database.h"
#include "src/db/index.h"
#include "src/db/record.h"
#include "src/db/tid.h"
#include "src/db/txn.h"

// Global allocation counter (the idiom of core_test.cc): a warmed row read and a
// same-size install must never reach the heap.
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

// --- TID word -------------------------------------------------------------------------

TEST(TidWordTest, StatusBitsAndFields) {
  uint64_t tid = TidWord::Make(5, 42);
  EXPECT_FALSE(TidWord::Locked(tid));
  EXPECT_FALSE(TidWord::Absent(tid));
  EXPECT_EQ(TidWord::EpochOf(tid), 5u);
  EXPECT_EQ(TidWord::SequenceOf(tid), 42u);
  EXPECT_EQ(TidWord::Version(tid | TidWord::kLockBit | TidWord::kAbsentBit), tid);
}

TEST(TidWordTest, NextAfterBumpsWithinEpochAndResetsAcross) {
  uint64_t base = TidWord::Make(3, 10);
  uint64_t same_epoch = TidWord::NextAfter(base, 3);
  EXPECT_GT(same_epoch, base);
  EXPECT_EQ(TidWord::EpochOf(same_epoch), 3u);
  EXPECT_EQ(TidWord::SequenceOf(same_epoch), 11u);

  uint64_t new_epoch = TidWord::NextAfter(base, 7);
  EXPECT_EQ(TidWord::EpochOf(new_epoch), 7u);
  EXPECT_EQ(TidWord::SequenceOf(new_epoch), 1u);
  EXPECT_GT(new_epoch, same_epoch);
}

TEST(TidWordTest, VersionOrderingIsEpochMajor) {
  EXPECT_LT(TidWord::Make(1, 1000000), TidWord::Make(2, 1));
}

// --- Record ---------------------------------------------------------------------------

TEST(RecordTest, NewRecordIsAbsent) {
  Record record;
  std::string row = "stale";
  uint64_t tid = record.StableRead(&row);
  EXPECT_TRUE(TidWord::Absent(tid));
  EXPECT_EQ(row, "");
}

TEST(RecordTest, InstallMakesValueVisible) {
  Record record;
  record.Lock();
  record.Install(TidWord::Make(1, 1), "hello");
  std::string row;
  uint64_t tid = record.StableRead(&row);
  EXPECT_FALSE(TidWord::Absent(tid));
  EXPECT_EQ(row, "hello");
}

TEST(RecordTest, InstallsGrowAndShrinkTheRow) {
  Record record;
  const std::string long_row(100, 'x');
  record.Lock();
  record.Install(TidWord::Make(1, 1), "short");
  record.Lock();
  record.Install(TidWord::Make(1, 2), long_row);
  std::string row;
  record.StableRead(&row);
  EXPECT_EQ(row, long_row);
  record.Lock();
  record.Install(TidWord::Make(1, 3), "tiny");
  record.StableRead(&row);
  EXPECT_EQ(row, "tiny");
  // A raw read copies at most `capacity` bytes and reports the full length.
  char prefix[8] = {};
  Record::ReadResult result = record.StableRead(prefix, 2);
  EXPECT_EQ(result.size, 4u);
  EXPECT_EQ(std::string(prefix), "ti");
}

TEST(RecordTest, TryLockExcludes) {
  Record record;
  EXPECT_TRUE(record.TryLock());
  EXPECT_FALSE(record.TryLock());
  record.Unlock();
  EXPECT_TRUE(record.TryLock());
  record.Unlock();
}

TEST(RecordTest, InstallAbsentActsAsDelete) {
  Record record;
  record.Lock();
  record.Install(TidWord::Make(1, 1), "x");
  record.Lock();
  record.Install(TidWord::Make(1, 2), {}, /*absent=*/true);
  std::string row;
  uint64_t tid = record.StableRead(&row);
  EXPECT_TRUE(TidWord::Absent(tid));
  EXPECT_EQ(row, "");
}

// Row `version` of the torn-read test: every byte is the version's low byte, and the
// length moves with the version too (so installs both grow the buffer and reuse it).
size_t TornTestLength(uint64_t version) { return 500 + (version % 7) * 61; }

// One writer installs rows while two readers copy them, in lockstep: the writer
// installs as soon as a reader starts a read, and a reader starts its next read once
// the writer has installed again (so neither starves the other of a shared CPU). Each
// copy stalls in the middle: the destination page was dropped (MADV_DONTNEED), so the
// first store into it takes a page fault, during which the writer can lock the record
// and rewrite the row. A reader that returned that copy without comparing the TID
// again would see a torn row.
TEST(RecordTest, ConcurrentInstallsNeverYieldATornRow) {
  constexpr uint64_t kInstalls = 5000;
  constexpr size_t kPage = 4096;
  Record record;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads_started{0};
  std::atomic<uint64_t> installs{0};
  std::atomic<uint64_t> torn{0};
  auto reader = [&] {
    alignas(kPage) unsigned char row[2 * kPage];
    uint64_t installs_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      madvise(row, sizeof(row), MADV_DONTNEED);
      reads_started.fetch_add(1, std::memory_order_release);
      Record::ReadResult result = record.StableRead(row, sizeof(row));
      if (!TidWord::Absent(result.tid)) {  // absent before the first install
        uint64_t version = TidWord::SequenceOf(result.tid);
        bool ok = result.size == TornTestLength(version);
        for (size_t i = 0; ok && i < result.size; ++i) {
          ok = row[i] == static_cast<unsigned char>(version);
        }
        if (!ok) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
      while (installs.load(std::memory_order_acquire) == installs_seen &&
             !done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      installs_seen = installs.load(std::memory_order_acquire);
    }
  };
  std::thread reader_a(reader);
  std::thread reader_b(reader);
  std::string row;
  uint64_t seen = 0;
  for (uint64_t version = 1; version <= kInstalls; ++version) {
    row.assign(TornTestLength(version), static_cast<char>(version));
    // Spin first, so the install lands inside the read; yield later, in case the
    // readers share this CPU.
    for (int spins = 0; reads_started.load(std::memory_order_acquire) == seen; ++spins) {
      if (spins < 10000) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    seen = reads_started.load(std::memory_order_acquire);
    record.Lock();
    record.Install(TidWord::Make(1, version), row);
    installs.store(version, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST(RecordTest, WarmedReadsAndSameSizeInstallsAllocateNothing) {
  Record record;
  const std::string first(100, 'a');
  const std::string second(100, 'b');
  record.Lock();
  record.Install(TidWord::Make(1, 1), first);  // allocates the row buffer
  std::string row;
  record.StableRead(&row);  // sizes the reused string
  char raw[128];
  uint64_t before = g_allocs.load();
  for (uint64_t version = 2; version < 100; ++version) {
    record.Lock();
    record.Install(TidWord::Make(1, version), version % 2 == 0 ? second : first);
    record.StableRead(&row);
    record.StableRead(raw, sizeof(raw));
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(row, first);
}

// --- OrderedIndex ---------------------------------------------------------------------

TEST(OrderedIndexTest, GetOrInsertIsIdempotent) {
  OrderedIndex index;
  auto [r1, created1] = index.GetOrInsert("k");
  auto [r2, created2] = index.GetOrInsert("k");
  EXPECT_TRUE(created1);
  EXPECT_FALSE(created2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(index.Get("k"), r1);
  EXPECT_EQ(index.Get("other"), nullptr);
}

TEST(OrderedIndexTest, ScanVisitsInOrderWithinBounds) {
  OrderedIndex index;
  for (const char* key : {"b", "d", "a", "c", "e"}) {
    index.GetOrInsert(key);
  }
  std::vector<std::string> seen;
  index.Scan("b", "d", false, [&seen](const std::string& key, Record*) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "c", "d"}));

  seen.clear();
  index.Scan("b", "d", true, [&seen](const std::string& key, Record*) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"d", "c", "b"}));
}

TEST(OrderedIndexTest, ScanStopsWhenCallbackReturnsFalse) {
  OrderedIndex index;
  for (const char* key : {"a", "b", "c"}) {
    index.GetOrInsert(key);
  }
  int visits = 0;
  index.Scan("a", "c", false, [&visits](const std::string&, Record*) {
    visits++;
    return false;
  });
  EXPECT_EQ(visits, 1);
}

TEST(OrderedIndexTest, EmptyAndInvertedRanges) {
  OrderedIndex index;
  index.GetOrInsert("m");
  int visits = 0;
  index.Scan("x", "z", false, [&visits](const std::string&, Record*) {
    visits++;
    return true;
  });
  index.Scan("z", "a", false, [&visits](const std::string&, Record*) {
    visits++;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(OrderedIndexTest, ChunkedScanVisitsEachKeyOnceAcrossConcurrentChanges) {
  // A range several chunks wide, changed by the callback itself (no index lock is held
  // while it runs): keys behind the cursor are inserted, keys ahead are erased. Each
  // key is visited at most once, in strict order, in both directions, and every key
  // that was never erased is visited.
  constexpr int kKeys = 5 * static_cast<int>(OrderedIndex::kMaxScanChunk);
  auto key_of = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    return std::string(buf);
  };
  for (bool descending : {false, true}) {
    OrderedIndex index;
    for (int i = 0; i < kKeys; i += 2) {
      index.GetOrInsert(key_of(i));
    }
    std::vector<std::string> seen;
    int nested_visits = 0;
    auto visit = [&](const std::string& key, Record*) {
      seen.push_back(key);
      int i = std::stoi(key.substr(1));
      int behind = descending ? i + 1 : i - 1;  // odd: never present before
      int ahead = descending ? i - 4 : i + 4;
      index.GetOrInsert(key_of(behind));
      if (ahead % 8 == 0) {
        index.Erase(key_of(ahead));
      }
      // Callbacks may scan the same index (per-thread chunk buffers nest).
      index.Scan(key_of(i), key_of(i + 1), false, [&](const std::string&, Record*) {
        nested_visits++;
        return true;
      });
      return true;
    };
    index.Scan(key_of(0), key_of(kKeys), descending, visit);
    ASSERT_FALSE(seen.empty());
    for (size_t j = 1; j < seen.size(); ++j) {
      if (descending) {
        ASSERT_GT(seen[j - 1], seen[j]);
      } else {
        ASSERT_LT(seen[j - 1], seen[j]);
      }
    }
    for (const std::string& key : seen) {
      EXPECT_EQ(std::stoi(key.substr(1)) % 2, 0) << key;  // no inserted key visited
    }
    // An erased key may or may not be visited, depending on whether its chunk was
    // copied before the erase.
    std::set<std::string> visited(seen.begin(), seen.end());
    int never_erased = 0;
    for (int i = 2; i < kKeys; i += 2) {
      if (i % 8 != 0) {
        never_erased++;
        EXPECT_EQ(visited.count(key_of(i)), 1u) << key_of(i);
      }
    }
    EXPECT_GE(nested_visits, never_erased);
  }
}

// Keys for the tree tests: a 4-byte big-endian group, then one of 16 tails, so a group
// holds keys that are prefixes of each other, keys with NUL bytes, and one key of
// exactly OrderedIndex::kMaxKeyBytes.
std::string TreeKey(uint64_t n) {
  static const std::string kTails[16] = {
      "", std::string(1, '\0'), std::string(2, '\0'), "a", "ab", std::string("a\0", 2),
      "\xff", "\xff\xff", "b", "ba", std::string(OrderedIndex::kMaxKeyBytes - 4, 'z'),
      std::string(OrderedIndex::kMaxKeyBytes - 5, '\0'), "c", "cc", "d\x01", "~"};
  std::string key;
  uint32_t group = static_cast<uint32_t>(n / 16);
  for (int shift = 24; shift >= 0; shift -= 8) {
    key.push_back(static_cast<char>(group >> shift));
  }
  return key + kTails[n % 16];
}

// Every observable of `index` against a std::map oracle: size, point lookups of
// present and absent keys, and scans in both directions over random ranges whose
// bounds are present keys or fall between keys, some long enough to use every chunk
// size and some stopped early by the callback.
void ExpectMatchesOracle(const OrderedIndex& index,
                         const std::map<std::string, Record*>& oracle, Rng& rng,
                         uint64_t key_space) {
  ASSERT_EQ(index.KeyCount(), oracle.size());
  for (int i = 0; i < 200; ++i) {
    std::string key = TreeKey(rng.NextBounded(key_space));
    auto it = oracle.find(key);
    ASSERT_EQ(index.Get(key), it == oracle.end() ? nullptr : it->second) << i;
  }
  auto bound = [&](uint64_t n) {
    std::string key = TreeKey(n);
    switch (rng.NextBounded(3)) {
      case 0:
        return key;
      case 1:
        return key + std::string(1, '\0');  // just above key(n), below its successors
      default:
        return key.substr(0, key.size() - 1) + "\x7f";  // between keys of a group
    }
  };
  for (int i = 0; i < 60; ++i) {
    uint64_t start = rng.NextBounded(key_space);
    uint64_t width = i % 4 == 0 ? key_space : rng.NextBounded(1200);
    std::string lo = bound(start);
    std::string hi = bound(std::min(start + width, key_space));
    bool descending = i % 2 == 1;
    size_t stop_after = i % 3 == 2 ? 1 + rng.NextBounded(200) : SIZE_MAX;
    std::vector<std::pair<std::string, Record*>> expected;
    if (lo <= hi) {
      auto first = oracle.lower_bound(lo);
      auto last = oracle.upper_bound(hi);
      for (auto it = first; it != last; ++it) {
        expected.emplace_back(it->first, it->second);
      }
      if (descending) {
        std::reverse(expected.begin(), expected.end());
      }
    }
    if (expected.size() > stop_after) {
      expected.resize(stop_after);
    }
    std::vector<std::pair<std::string, Record*>> seen;
    index.Scan(lo, hi, descending, [&](const std::string& key, Record* record) {
      seen.emplace_back(key, record);
      return seen.size() < stop_after;
    });
    ASSERT_EQ(seen, expected) << "scan " << i << (descending ? " descending" : "");
  }
}

TEST(OrderedIndexTest, MatchesAnOrderedMapThroughSplitsLeafRemovalsAndRegrowth) {
  constexpr uint64_t kKeySpace = 16 * 4000;
  // More keys than two levels can hold: the tree is at least three levels deep.
  constexpr size_t kThreeLevels = OrderedIndex::kFanout * OrderedIndex::kFanout + 1;
  Rng rng(20261018);
  OrderedIndex index;
  std::map<std::string, Record*> oracle;
  uint64_t erased = 0;
  auto insert = [&](uint64_t n) {
    std::string key = TreeKey(n);
    auto [record, created] = index.GetOrInsert(key);
    auto [it, fresh] = oracle.try_emplace(key, record);
    ASSERT_EQ(created, fresh) << n;
    ASSERT_EQ(record, it->second) << n;
  };
  auto erase = [&](const std::string& key) {
    bool present = oracle.erase(key) == 1;
    ASSERT_EQ(index.Erase(key), present);
    erased += present ? 1 : 0;
  };

  // Random inserts past three levels.
  while (oracle.size() < 5 * kThreeLevels) {
    insert(rng.NextBounded(kKeySpace));
  }
  ExpectMatchesOracle(index, oracle, rng, kKeySpace);

  // Erase a contiguous run of keys: more than two inner nodes' worth of leaves
  // (kFanout^2 keys), so whole inner nodes empty, not just leaves.
  std::vector<std::string> run;
  auto from = std::next(oracle.begin(), 1000);
  for (auto it = from; run.size() < 3 * kThreeLevels; ++it) {
    run.push_back(it->first);
  }
  for (const std::string& key : run) {
    erase(key);
  }
  ExpectMatchesOracle(index, oracle, rng, kKeySpace);
  // Regrow the gap, half of it in descending and half in ascending key order.
  for (size_t i = run.size(); i-- > 0;) {
    if (i % 2 == 0) {
      ASSERT_TRUE(index.GetOrInsert(run[i]).second);
      oracle.emplace(run[i], index.Get(run[i]));
    }
  }
  for (size_t i = 1; i < run.size(); i += 2) {
    ASSERT_TRUE(index.GetOrInsert(run[i]).second);
    oracle.emplace(run[i], index.Get(run[i]));
  }
  ExpectMatchesOracle(index, oracle, rng, kKeySpace);

  // Mixed random operations.
  for (int round = 0; round < 10; ++round) {
    for (int op = 0; op < 2000; ++op) {
      uint64_t roll = rng.NextBounded(10);
      uint64_t n = rng.NextBounded(kKeySpace);
      if (roll < 5) {
        insert(n);
      } else if (roll < 8) {
        erase(TreeKey(n));
      } else {
        auto it = oracle.lower_bound(TreeKey(n));  // a present key, when there is one
        if (it != oracle.end()) {
          erase(std::string(it->first));
        }
      }
    }
    ExpectMatchesOracle(index, oracle, rng, kKeySpace);
  }

  // Erase everything in random order (the root shrinks back to a leaf), then regrow.
  std::vector<std::string> all;
  for (const auto& entry : oracle) {
    all.push_back(entry.first);
  }
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.NextBounded(i)]);
  }
  for (size_t i = 0; i < all.size(); ++i) {
    erase(all[i]);
    if (i % 4000 == 0) {
      ExpectMatchesOracle(index, oracle, rng, kKeySpace);
    }
  }
  ExpectMatchesOracle(index, oracle, rng, kKeySpace);
  for (uint64_t n = 0; n < 2 * kThreeLevels; ++n) {
    insert(n * 7 % kKeySpace);
  }
  ExpectMatchesOracle(index, oracle, rng, kKeySpace);
  EXPECT_EQ(index.GraveyardSize(), erased);
  EXPECT_EQ(index.EraseCount(), erased);
}

TEST(OrderedIndexTest, KeysUpToTheInlineCapacityAreStoredWholeAndLongerOnesRefused) {
  OrderedIndex index;
  std::string longest(OrderedIndex::kMaxKeyBytes, '\xee');
  std::string shorter = longest.substr(0, longest.size() - 1);
  auto [record, created] = index.GetOrInsert(longest);
  ASSERT_TRUE(created);
  EXPECT_EQ(index.Get(longest), record);
  EXPECT_EQ(index.Get(shorter), nullptr);  // not truncated onto a shorter key
  EXPECT_EQ(index.Get(longest + "x"), nullptr);
  std::vector<std::string> seen;
  index.Scan(shorter, longest + "x", false, [&seen](const std::string& key, Record*) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen, std::vector<std::string>{longest});
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(index.GetOrInsert(longest + "x"), "exceeds the 47-byte limit");
}

TEST(OrderedIndexTest, ReadersSeeEveryStableKeyWhileAWriterSplitsAndRemovesLeaves) {
  // Stable keys, never erased, hold the tree at three or more levels. Between each pair
  // the writer inserts a dense block of keys (leaf and inner splits) and erases it
  // again (its leaves empty and are removed), while readers look up every stable key
  // and scan the whole range in both directions.
  constexpr int kStable =
      static_cast<int>(OrderedIndex::kFanout * OrderedIndex::kFanout) + 1;
  constexpr int kGap = 400;  // volatile keys between two stable ones
  auto key_of = [](int n) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%09d", n);
    return std::string(buf);
  };
  OrderedIndex index;
  std::vector<Record*> stable;
  for (int i = 0; i < kStable; ++i) {
    stable.push_back(index.GetOrInsert(key_of(i * kGap)).first);
  }
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int round = 0; round < 120; ++round) {
      int base = (round * 97 % (kStable - 1)) * kGap;
      for (int j = 1; j < kGap; ++j) {
        index.GetOrInsert(key_of(base + j));
      }
      for (int j = 1; j < kGap; ++j) {
        index.Erase(key_of(base + j));
      }
    }
    writer_done.store(true, std::memory_order_release);
  });
  auto reader = [&](bool descending) {
    int passes = 0;
    while (!writer_done.load(std::memory_order_acquire) || passes < 2) {
      for (int i = 0; i < kStable; i += 7) {
        if (index.Get(key_of(i * kGap)) != stable[static_cast<size_t>(i)]) {
          failures.fetch_add(1);
        }
      }
      std::string last;
      int next_stable = descending ? kStable - 1 : 0;
      index.Scan(key_of(0), key_of(kStable * kGap), descending,
                 [&](const std::string& key, Record* record) {
                   if (!last.empty() && (descending ? key >= last : key <= last)) {
                     failures.fetch_add(1);  // out of order or repeated
                   }
                   last = key;
                   int n = std::stoi(key);
                   if (n % kGap == 0) {
                     if (n != next_stable * kGap ||
                         record != stable[static_cast<size_t>(next_stable)]) {
                       failures.fetch_add(1);  // a stable key was skipped
                     }
                     next_stable += descending ? -1 : 1;
                   }
                   return true;
                 });
      if (next_stable != (descending ? -1 : kStable)) {
        failures.fetch_add(1);
      }
      passes++;
      std::this_thread::yield();
    }
  };
  std::thread ascending_reader(reader, false);
  std::thread descending_reader(reader, true);
  writer.join();
  ascending_reader.join();
  descending_reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index.KeyCount(), static_cast<size_t>(kStable));
}

// --- Epochs ---------------------------------------------------------------------------

TEST(EpochManagerTest, ManualAdvance) {
  EpochManager epochs;
  uint64_t before = epochs.Current();
  EXPECT_EQ(epochs.Advance(), before + 1);
  EXPECT_EQ(epochs.Current(), before + 1);
}

TEST(EpochManagerTest, BackgroundAdvancerMakesProgress) {
  EpochManager epochs(std::chrono::milliseconds(1));
  uint64_t before = epochs.Current();
  epochs.StartAdvancer();
  EXPECT_TRUE(epochs.AdvancerRunning());
  // Wait for at least one tick (bounded).
  for (int i = 0; i < 1000 && epochs.Current() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  epochs.StopAdvancer();
  EXPECT_GT(epochs.Current(), before);
  EXPECT_FALSE(epochs.AdvancerRunning());
}

// --- Transactions: basic semantics ----------------------------------------------------

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() { table_ = db_.CreateTable("t"); }

  // Commits a single put, asserting success.
  void Put(const std::string& key, const std::string& value) {
    TxnExecutor executor(db_);
    ASSERT_EQ(executor.Run([&](Transaction& txn) {
      txn.Write(table_, key, value);
      return true;
    }),
              TxnStatus::kCommitted);
  }

  std::optional<std::string> Get(const std::string& key) {
    Transaction txn(db_);
    auto value = txn.Read(table_, key);
    txn.Abort();
    return value;
  }

  Database db_;
  TableId table_ = 0;
};

TEST_F(TxnTest, WarmedReadIntoACallerBufferAllocatesNothing) {
  Put("k", std::string(100, 'v'));
  Transaction txn(db_);
  char row[128];
  ASSERT_EQ(txn.ReadInto(table_, "k", row, sizeof(row)), 100u);  // grows the read set
  txn.Abort();
  uint64_t before = g_allocs.load();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(txn.ReadInto(table_, "k", row, sizeof(row)), 100u);
    txn.Abort();
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(std::string(row, 100), std::string(100, 'v'));
}

TEST_F(TxnTest, WarmedWritesThroughAHandleCommitWithoutAllocating) {
  // The write set keeps its entries' row buffers across transactions, and a same-size
  // install reuses the record's buffer: a warmed read-modify-write allocates nothing.
  Put("k", std::string(100, 'v'));
  TxnExecutor executor(db_);
  const std::string update(100, 'w');
  const std::function<bool(Transaction&)> body = [&](Transaction& txn) {
    std::array<char, 100> row{};
    Record* handle = txn.ReadRow(table_, "k", &row);
    EXPECT_NE(handle, nullptr);
    txn.Write(handle, update);
    return true;
  };
  ASSERT_EQ(executor.Run(body), TxnStatus::kCommitted);
  uint64_t before = g_allocs.load();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(executor.Run(body), TxnStatus::kCommitted);
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(Get("k").value_or("?"), update);
}

TEST_F(TxnTest, WarmedScanThenCommitAllocatesNothing) {
  // Scan callbacks and transaction bodies are bound by reference, and the scan entries
  // and the row buffer Scan fills are reused: a warmed transaction that scans rows
  // longer than any inline string buffer, behind keys longer than one, writes one row
  // through its handle and commits, reaches the heap not at all.
  const std::string prefix = "a-scanned-range-key-";
  for (int i = 0; i < 10; ++i) {
    Put(prefix + std::to_string(i), std::string(100, 'v'));
  }
  const std::string lo = prefix + "0";
  const std::string hi = prefix + "9";
  const std::string update(100, 'w');
  TxnExecutor executor(db_);
  int rows = 0;
  auto body = [&](Transaction& txn) {
    rows = 0;
    txn.Scan(table_, lo, hi, false, 0,
             [&](const std::string&, const std::string& value, Record* record) {
               if (rows++ == 0) {
                 EXPECT_EQ(value.size(), 100u);
                 txn.Write(record, update);
               }
               return true;
             });
    return true;
  };
  ASSERT_EQ(executor.Run(body), TxnStatus::kCommitted);
  uint64_t before = g_allocs.load();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(executor.Run(body), TxnStatus::kCommitted);
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(rows, 10);
  EXPECT_EQ(Get(lo).value_or("?"), update);
}

TEST_F(TxnTest, WriteSetBeyondItsInitialHashCapacityReadsBackAndCommitsEveryWrite) {
  constexpr int kWrites = 4 * static_cast<int>(Transaction::kInitialWriteSlots);
  auto key_of = [](int i) { return "w-" + std::to_string(i); };
  Transaction txn(db_);
  for (int i = 0; i < kWrites; ++i) {
    txn.Write(table_, key_of(i), "v" + std::to_string(i));
  }
  // Writing a key again updates its entry; it adds none.
  txn.Write(table_, key_of(0), "first");
  EXPECT_EQ(txn.WriteSetSize(), static_cast<size_t>(kWrites));
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(txn.Read(table_, key_of(i)).value_or("?"),
              i == 0 ? "first" : "v" + std::to_string(i));
  }
  uint64_t last = 0;
  ASSERT_EQ(txn.Commit(&last), TxnStatus::kCommitted);
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(Get(key_of(i)).value_or("?"), i == 0 ? "first" : "v" + std::to_string(i));
  }
}

TEST_F(TxnTest, NextTransactionOnTheSameObjectFindsNoEarlierWrite) {
  // After a commit and after an abort, the write-set hash holds none of the previous
  // transaction's records: the next transaction's reads go to the committed rows.
  constexpr int kWrites = 2 * static_cast<int>(Transaction::kInitialWriteSlots);
  auto key_of = [](int i) { return "n-" + std::to_string(i); };
  Transaction txn(db_);
  for (int i = 0; i < kWrites; ++i) {
    txn.Write(table_, key_of(i), "committed");
  }
  uint64_t last = 0;
  ASSERT_EQ(txn.Commit(&last), TxnStatus::kCommitted);
  for (int i = 0; i < kWrites; i += 2) {
    Put(key_of(i), "overwritten");  // by another transaction
  }
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(txn.Read(table_, key_of(i)).value_or("?"),
              i % 2 == 0 ? "overwritten" : "committed");
  }
  EXPECT_EQ(txn.WriteSetSize(), 0u);
  EXPECT_EQ(txn.ReadSetSize(), static_cast<size_t>(kWrites));  // no read was own
  txn.Abort();

  for (int i = 0; i < kWrites; ++i) {
    txn.Write(table_, "p-" + std::to_string(i), "pending");
  }
  txn.Abort();
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_FALSE(txn.Read(table_, "p-" + std::to_string(i)).has_value());
  }
  EXPECT_EQ(txn.WriteSetSize(), 0u);
  txn.Abort();
}

TEST_F(TxnTest, InsertThenReadBack) {
  TxnExecutor executor(db_);
  EXPECT_EQ(executor.Run([&](Transaction& txn) {
    EXPECT_TRUE(txn.Insert(table_, "k", "v"));
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(Get("k").value_or("?"), "v");
}

TEST_F(TxnTest, ReadOwnWritesWithinTransaction) {
  Put("k", "old");
  Transaction txn(db_);
  txn.Write(table_, "k", "new");
  EXPECT_EQ(txn.Read(table_, "k").value_or("?"), "new");
  txn.Delete(table_, "k");
  EXPECT_FALSE(txn.Read(table_, "k").has_value());
  txn.Abort();
  // Abort left the committed state untouched.
  EXPECT_EQ(Get("k").value_or("?"), "old");
}

TEST_F(TxnTest, DeleteMakesKeyAbsent) {
  Put("k", "v");
  TxnExecutor executor(db_);
  EXPECT_EQ(executor.Run([&](Transaction& txn) {
    txn.Delete(table_, "k");
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_FALSE(Get("k").has_value());
}

TEST_F(TxnTest, InsertOverDeletedKeySucceeds) {
  Put("k", "v1");
  TxnExecutor executor(db_);
  executor.Run([&](Transaction& txn) {
    txn.Delete(table_, "k");
    return true;
  });
  EXPECT_EQ(executor.Run([&](Transaction& txn) {
    EXPECT_TRUE(txn.Insert(table_, "k", "v2"));
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(Get("k").value_or("?"), "v2");
}

TEST_F(TxnTest, DuplicateInsertReportsDuplicate) {
  Put("k", "v");
  TxnExecutor executor(db_);
  EXPECT_EQ(executor.Run([&](Transaction& txn) {
    EXPECT_FALSE(txn.Insert(table_, "k", "other"));
    return true;  // body proceeds; commit reports the poisoned status
  }),
            TxnStatus::kDuplicate);
  EXPECT_EQ(Get("k").value_or("?"), "v");
}

TEST_F(TxnTest, UpsertWriteOfMissingKeyBehavesAsInsert) {
  TxnExecutor executor(db_);
  EXPECT_EQ(executor.Run([&](Transaction& txn) {
    txn.Write(table_, "fresh", "v");
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(Get("fresh").value_or("?"), "v");
}

TEST_F(TxnTest, CommitTidsAreMonotonePerThread) {
  // The thread's last-commit TID is threaded through commits; each new TID must be
  // strictly greater even for transactions touching disjoint, fresh keys.
  uint64_t last = 0;
  uint64_t previous = 0;
  for (int i = 0; i < 10; ++i) {
    Transaction txn(db_);
    txn.Write(table_, "k" + std::to_string(i), "v");
    ASSERT_EQ(txn.Commit(&last), TxnStatus::kCommitted);
    EXPECT_GT(txn.committed_tid(), previous);
    previous = txn.committed_tid();
  }
}

TEST_F(TxnTest, CommitTidUsesCurrentEpoch) {
  db_.epochs().Advance();
  db_.epochs().Advance();
  TxnExecutor executor(db_);
  uint64_t last = 0;
  Transaction txn(db_);
  txn.Write(table_, "k", "v");
  ASSERT_EQ(txn.Commit(&last), TxnStatus::kCommitted);
  EXPECT_EQ(TidWord::EpochOf(txn.committed_tid()), db_.epochs().Current());
}

// --- Transactions: conflict validation ------------------------------------------------

TEST_F(TxnTest, StaleReadAbortsAtCommit) {
  Put("x", "1");
  Transaction reader(db_);
  EXPECT_EQ(reader.Read(table_, "x").value_or("?"), "1");

  Put("x", "2");  // concurrent writer commits first

  uint64_t last = 0;
  reader.Write(table_, "y", "depends-on-x");
  EXPECT_EQ(reader.Commit(&last), TxnStatus::kAborted);
  EXPECT_FALSE(Get("y").has_value());
}

TEST_F(TxnTest, ReadOfMissReturnsStableAbsentValidation) {
  // Reading a key that exists as an absent record registers an anti-dependency: if
  // someone else makes it live before we commit, we must abort.
  Put("ghost", "v");
  TxnExecutor executor(db_);
  executor.Run([&](Transaction& txn) {
    txn.Delete(table_, "ghost");
    return true;
  });

  Transaction txn(db_);
  EXPECT_FALSE(txn.Read(table_, "ghost").has_value());
  Put("ghost", "resurrected");
  uint64_t last = 0;
  txn.Write(table_, "out", "saw-no-ghost");
  EXPECT_EQ(txn.Commit(&last), TxnStatus::kAborted);
}

TEST_F(TxnTest, BlindWritesToDifferentKeysDoNotConflict) {
  Transaction t1(db_);
  Transaction t2(db_);
  t1.Write(table_, "a", "1");
  t2.Write(table_, "b", "2");
  uint64_t last1 = 0;
  uint64_t last2 = 0;
  EXPECT_EQ(t1.Commit(&last1), TxnStatus::kCommitted);
  EXPECT_EQ(t2.Commit(&last2), TxnStatus::kCommitted);
  EXPECT_EQ(Get("a").value_or("?"), "1");
  EXPECT_EQ(Get("b").value_or("?"), "2");
}

TEST_F(TxnTest, WriteSkewIsPrevented) {
  // Classic write-skew: t1 reads a writes b, t2 reads b writes a. Serializable OCC
  // must abort one of them.
  Put("a", "0");
  Put("b", "0");
  Transaction t1(db_);
  Transaction t2(db_);
  EXPECT_TRUE(t1.Read(table_, "a").has_value());
  EXPECT_TRUE(t2.Read(table_, "b").has_value());
  t1.Write(table_, "b", "t1");
  t2.Write(table_, "a", "t2");
  uint64_t last1 = 0;
  uint64_t last2 = 0;
  TxnStatus s1 = t1.Commit(&last1);
  TxnStatus s2 = t2.Commit(&last2);
  EXPECT_TRUE((s1 == TxnStatus::kCommitted) != (s2 == TxnStatus::kCommitted))
      << "exactly one of the write-skew pair must commit";
}

// --- Transactions: phantom protection -------------------------------------------------

TEST_F(TxnTest, PhantomInsertInScannedRangeAborts) {
  Put("r-a", "1");
  Put("r-c", "3");
  Transaction scanner(db_);
  int rows = 0;
  scanner.Scan(table_, "r-a", "r-z", false, 0,
               [&rows](const std::string&, const std::string&, Record*) {
                 rows++;
                 return true;
               });
  EXPECT_EQ(rows, 2);

  Put("r-b", "2");  // phantom appears inside the scanned range

  scanner.Write(table_, "out", "saw-2-rows");
  uint64_t last = 0;
  EXPECT_EQ(scanner.Commit(&last), TxnStatus::kAborted);
}

TEST_F(TxnTest, DeleteInScannedRangeAborts) {
  Put("r-a", "1");
  Put("r-b", "2");
  Transaction scanner(db_);
  scanner.Scan(table_, "r-a", "r-z", false, 0,
               [](const std::string&, const std::string&, Record*) { return true; });

  TxnExecutor executor(db_);
  executor.Run([&](Transaction& txn) {
    txn.Delete(table_, "r-b");
    return true;
  });

  scanner.Write(table_, "out", "v");
  uint64_t last = 0;
  EXPECT_EQ(scanner.Commit(&last), TxnStatus::kAborted);
}

TEST_F(TxnTest, KeyInsertedAndDeletedAfterTheScanAbortsTheScanner) {
  // The range looks the same at commit as at the scan, but a key came and went in
  // between. A read validated before the range walk could have seen it (a counter of
  // the range's keys, say), so the scanner must not commit. Both deletes: a tombstone
  // and a structural erase.
  for (bool erase : {false, true}) {
    const std::string key = erase ? "r-e" : "r-t";
    Put("r-a", "1");
    Transaction scanner(db_);
    scanner.Scan(table_, "r-a", "r-z", false, 0,
                 [](const std::string&, const std::string&, Record*) { return true; });
    Put(key, "came");
    TxnExecutor executor(db_);
    ASSERT_EQ(executor.Run([&](Transaction& txn) {
      txn.Delete(table_, key, erase);
      return true;
    }),
              TxnStatus::kCommitted);
    scanner.Write(table_, "out", "v");
    uint64_t last = 0;
    EXPECT_EQ(scanner.Commit(&last), TxnStatus::kAborted) << "erase=" << erase;
  }
}

TEST_F(TxnTest, InsertBeyondLimitedScanDoesNotAbort) {
  Put("r-a", "1");
  Put("r-b", "2");
  Transaction scanner(db_);
  int rows = 0;
  // Limit 1: the effective validated range shrinks to [r-a, r-a].
  scanner.Scan(table_, "r-a", "r-z", false, 1,
               [&rows](const std::string&, const std::string&, Record*) {
                 rows++;
                 return true;
               });
  EXPECT_EQ(rows, 1);

  Put("r-m", "phantom beyond the observed prefix");

  scanner.Write(table_, "out", "v");
  uint64_t last = 0;
  EXPECT_EQ(scanner.Commit(&last), TxnStatus::kCommitted);
}

TEST_F(TxnTest, ScanAppliesOwnPendingWrites) {
  Put("s-a", "committed");
  Transaction txn(db_);
  txn.Write(table_, "s-a", "pending");
  std::vector<std::string> values;
  txn.Scan(table_, "s-a", "s-z", false, 0,
           [&values](const std::string&, const std::string& value, Record*) {
             values.push_back(value);
             return true;
           });
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "pending");
  txn.Abort();
}

TEST_F(TxnTest, ScanCallbackMayWriteAndInsertIntoTheScannedTable) {
  // The index lock is not held while a scan callback runs, so writing the scanned
  // rows and inserting new keys into the same table from inside it cannot deadlock.
  constexpr int kRows = 3 * static_cast<int>(OrderedIndex::kMaxScanChunk);
  for (int i = 0; i < kRows; ++i) {
    Put("row-" + std::to_string(1000 + i), "v");
  }
  TxnExecutor executor(db_);
  int visited = 0;
  TxnStatus status = executor.Run([&](Transaction& txn) {
    visited = 0;
    txn.Scan(table_, "row-", "row-~", false, 0,
             [&](const std::string& key, const std::string& value, Record*) {
               visited++;
               txn.Write(table_, key, value + "+");
               txn.Insert(table_, "new-" + key, "inserted");
               return true;
             });
    return true;
  });
  EXPECT_EQ(status, TxnStatus::kCommitted);
  EXPECT_EQ(visited, kRows);
  EXPECT_EQ(Get("row-1000").value_or("?"), "v+");
  EXPECT_EQ(Get("new-row-1000").value_or("?"), "inserted");
}

// --- Multi-threaded serializability smoke tests ---------------------------------------

TEST_F(TxnTest, ConcurrentIncrementsLoseNoUpdates) {
  Put("counter", "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      TxnExecutor executor(db_);
      for (int i = 0; i < kIncrements; ++i) {
        executor.Run([&](Transaction& txn) {
          int value = std::stoi(txn.Read(table_, "counter").value_or("0"));
          txn.Write(table_, "counter", std::to_string(value + 1));
          return true;
        });
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(Get("counter").value_or("?"), std::to_string(kThreads * kIncrements));
}

TEST_F(TxnTest, ConcurrentTransfersPreserveTotalBalance) {
  constexpr int kAccounts = 16;
  constexpr int64_t kInitial = 1000;
  for (int a = 0; a < kAccounts; ++a) {
    Put("acct" + std::to_string(a), std::to_string(kInitial));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([this, t, &stop] {
      TxnExecutor executor(db_);
      Rng rng(static_cast<uint64_t>(t) + 99);
      for (int i = 0; i < 400 && !stop.load(); ++i) {
        int from = static_cast<int>(rng.NextBounded(kAccounts));
        int to = static_cast<int>(rng.NextBounded(kAccounts));
        if (from == to) {
          continue;
        }
        executor.Run([&](Transaction& txn) {
          auto from_key = "acct" + std::to_string(from);
          auto to_key = "acct" + std::to_string(to);
          int64_t from_balance = std::stoll(txn.Read(table_, from_key).value_or("0"));
          int64_t to_balance = std::stoll(txn.Read(table_, to_key).value_or("0"));
          int64_t amount = static_cast<int64_t>(rng.NextBounded(50));
          txn.Write(table_, from_key, std::to_string(from_balance - amount));
          txn.Write(table_, to_key, std::to_string(to_balance + amount));
          return true;
        });
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  int64_t total = 0;
  for (int a = 0; a < kAccounts; ++a) {
    total += std::stoll(Get("acct" + std::to_string(a)).value_or("0"));
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_F(TxnTest, ConcurrentInsertsOfSameKeyAdmitExactlyOne) {
  constexpr int kThreads = 4;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &winners] {
      TxnExecutor executor(db_);
      TxnStatus status = executor.Run([&](Transaction& txn) {
        txn.Insert(table_, "contested", "winner-" + std::to_string(t));
        return true;
      });
      if (status == TxnStatus::kCommitted) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(winners.load(), 1);
  EXPECT_TRUE(Get("contested").has_value());
}

TEST_F(TxnTest, ConcurrentScansMatchTheCounterTheyRead) {
  // Two mutators change a range several scan chunks wide and keep a counter row equal
  // to the number of live keys in it, in the same transaction: a toggler inserts and
  // deletes (half of them structurally) a fixed set of slot keys; an inserter adds
  // keys that never existed and deletes them again once it has kFresh. Scanners count
  // the range (ascending and descending) and read the counter in one transaction:
  // every committed scan must match its counter.
  constexpr int kSlots = 4 * static_cast<int>(OrderedIndex::kMaxScanChunk);
  auto key_of = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "c-%05d", i);
    return std::string(buf);
  };
  int live = 0;
  for (int i = 0; i < kSlots; i += 2) {
    Put(key_of(i), "x");
    live++;
  }
  Put("counter", std::to_string(live));

  std::atomic<int> mutators_running{2};
  std::atomic<int> mismatches{0};
  std::atomic<int> committed_scans{0};
  // Mutators keep going until scans have committed alongside them (on a loaded or
  // single-CPU host they could otherwise finish before a scanner is scheduled), and
  // pause between bursts while no scan commits (a slow, e.g. sanitized, scan would
  // otherwise always find its range changed).
  constexpr int kMinScans = 20;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const bool toggler = t == 0;
      constexpr size_t kFresh = 32;
      std::deque<std::string> fresh;  // the inserter's live keys, oldest first
      TxnExecutor executor(db_);
      Rng rng(static_cast<uint64_t>(t) + 7);
      int scans_seen = 0;
      for (int op = 0; op < 4000 || (committed_scans.load() < kMinScans &&
                                     std::chrono::steady_clock::now() < deadline);
           ++op) {
        if (op % 64 == 63) {
          // No scan committed during the last burst: pause until one does (bounded).
          const auto pause_end =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
          while (committed_scans.load() == scans_seen &&
                 std::chrono::steady_clock::now() < pause_end) {
            std::this_thread::yield();
          }
          scans_seen = committed_scans.load();
        }
        std::string key = key_of(static_cast<int>(rng.NextBounded(kSlots)));
        if (!toggler) {
          if (fresh.size() < kFresh) {
            key += "." + std::to_string(op);  // inside the range, never seen before
            fresh.push_back(key);
          } else {
            key = fresh.front();
            fresh.pop_front();
          }
        }
        const bool erase = rng.NextBounded(2) == 0;
        executor.Run([&](Transaction& txn) {
          int count = std::stoi(txn.Read(table_, "counter").value_or("0"));
          if (txn.Read(table_, key).has_value()) {
            txn.Delete(table_, key, erase);
            count--;
          } else {
            EXPECT_TRUE(txn.Insert(table_, key, "x"));  // only this thread writes `key`
            count++;
          }
          txn.Write(table_, "counter", std::to_string(count));
          return true;
        });
      }
      mutators_running.fetch_sub(1);
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      TxnExecutor executor(db_);
      bool descending = t == 1;
      int round = 0;
      while (mutators_running.load() > 0) {
        // Counter read after the scan on odd rounds: then only range validation can
        // catch a key inserted behind the scan cursor before the counter read.
        const bool counter_first = (round++ % 2) == 0;
        int counter = -1;
        int rows = 0;
        TxnStatus status = executor.Run([&](Transaction& txn) {
          auto read_counter = [&] {
            counter = std::stoi(txn.Read(table_, "counter").value_or("-1"));
          };
          if (counter_first) {
            read_counter();
          }
          rows = 0;
          txn.Scan(table_, key_of(0), key_of(kSlots), descending, 0,
                   [&rows](const std::string&, const std::string&, Record*) {
                     rows++;
                     return true;
                   });
          if (!counter_first) {
            read_counter();
          }
          return true;
        });
        if (status == TxnStatus::kCommitted) {
          committed_scans.fetch_add(1);
          if (rows != counter) {
            mismatches.fetch_add(1);
          }
        }
        if (round % 2 == 0) {
          descending = !descending;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(committed_scans.load(), kMinScans);
  // The final state agrees too.
  Transaction txn(db_);
  int rows = 0;
  txn.Scan(table_, key_of(0), key_of(kSlots), false, 0,
           [&rows](const std::string&, const std::string&, Record*) {
             rows++;
             return true;
           });
  EXPECT_EQ(std::to_string(rows), txn.Read(table_, "counter").value_or("?"));
  txn.Abort();
}

// --- Structural erase (Masstree-style delete, GC-disabled graveyard) -------------------

TEST(OrderedIndexTest, EraseUnlinksKeyButKeepsRecordAlive) {
  OrderedIndex index;
  auto [record, created] = index.GetOrInsert("k");
  ASSERT_TRUE(created);
  record->Lock();
  record->Install(TidWord::Make(1, 1), "v");
  EXPECT_TRUE(index.Erase("k"));
  EXPECT_EQ(index.Get("k"), nullptr);
  EXPECT_EQ(index.GraveyardSize(), 1u);
  // The graveyard keeps the record valid: pointers held elsewhere still read it.
  std::string row;
  EXPECT_FALSE(TidWord::Absent(record->StableRead(&row)));
  EXPECT_EQ(row, "v");
  EXPECT_FALSE(index.Erase("k"));  // idempotence: already gone
}

TEST_F(TxnTest, DeleteWithEraseRemovesKeyFromScans) {
  Put("e-a", "1");
  Put("e-b", "2");
  TxnExecutor executor(db_);
  executor.Run([&](Transaction& txn) {
    txn.Delete(table_, "e-a", /*erase=*/true);
    return true;
  });
  // The key is structurally gone: scans skip it without visiting a tombstone.
  Transaction txn(db_);
  std::vector<std::string> keys;
  txn.Scan(table_, "e-a", "e-z", false, 0,
           [&keys](const std::string& key, const std::string&, Record*) {
             keys.push_back(key);
             return true;
           });
  txn.Abort();
  EXPECT_EQ(keys, (std::vector<std::string>{"e-b"}));
  EXPECT_EQ(db_.table(table_).GraveyardSize(), 1u);
}

TEST_F(TxnTest, EraseInScannedRangeStillAbortsTheScanner) {
  // Phantom protection must survive structural deletes: the vanished key changes the
  // range fingerprint.
  Put("e-a", "1");
  Put("e-b", "2");
  Transaction scanner(db_);
  scanner.Scan(table_, "e-a", "e-z", false, 0,
               [](const std::string&, const std::string&, Record*) { return true; });

  TxnExecutor executor(db_);
  executor.Run([&](Transaction& txn) {
    txn.Delete(table_, "e-b", /*erase=*/true);
    return true;
  });

  scanner.Write(table_, "out", "v");
  uint64_t last = 0;
  EXPECT_EQ(scanner.Commit(&last), TxnStatus::kAborted);
}

TEST_F(TxnTest, WriteToARecordErasedBeforeCommitRetriesOnTheFreshKey) {
  // The write set holds Record pointers. A record unlinked from the index after this
  // transaction resolved it must not receive the write (it would be lost in the
  // graveyard): commit aborts, and the retry resolves the key afresh.
  Put("e-w", "old");
  TxnExecutor writer(db_);
  TxnExecutor eraser(db_);
  bool erased = false;
  EXPECT_EQ(writer.Run([&](Transaction& txn) {
    txn.Write(table_, "e-w", "new");
    if (!erased) {
      erased = true;
      EXPECT_EQ(eraser.Run([&](Transaction& other) {
        other.Delete(table_, "e-w", /*erase=*/true);
        return true;
      }),
                TxnStatus::kCommitted);
    }
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(writer.retries(), 1u);
  EXPECT_EQ(Get("e-w").value_or("?"), "new");
}

TEST_F(TxnTest, WriteThroughAReadHandleIsSeenByOwnReadsAndScansAndInstallsAtCommit) {
  // ReadRow and Scan hand out the record they read; a write through it buffers the
  // row with no index walk, and behaves as the by-key write does.
  Put("h-a", "old");
  Put("h-b", "bbb");
  Transaction txn(db_);
  std::array<char, 3> row{};
  Record* handle = txn.ReadRow(table_, "h-a", &row);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle, db_.table(table_).Get("h-a"));
  EXPECT_EQ(std::string(row.data(), row.size()), "old");
  EXPECT_EQ(txn.ReadRow(table_, "h-missing", &row), nullptr);
  txn.Write(handle, "new");
  // Read-own-writes, by key and by the handle a second ReadRow returns.
  EXPECT_EQ(txn.Read(table_, "h-a").value_or("?"), "new");
  EXPECT_EQ(txn.ReadRow(table_, "h-a", &row), handle);
  EXPECT_EQ(std::string(row.data(), row.size()), "new");
  // A later scan sees the pending row, and its handles write the same way.
  std::vector<std::string> values;
  txn.Scan(table_, "h-a", "h-z", false, 0,
           [&](const std::string&, const std::string& value, Record* record) {
             values.push_back(value);
             if (value == "bbb") {
               txn.Write(record, "b+");
             }
             return true;
           });
  EXPECT_EQ(values, (std::vector<std::string>{"new", "bbb"}));
  EXPECT_EQ(txn.Read(table_, "h-b").value_or("?"), "b+");
  EXPECT_EQ(txn.WriteSetSize(), 2u);
  // Nothing is visible before the commit; both rows install at it.
  EXPECT_EQ(Get("h-a").value_or("?"), "old");
  uint64_t last = 0;
  ASSERT_EQ(txn.Commit(&last), TxnStatus::kCommitted);
  EXPECT_EQ(Get("h-a").value_or("?"), "new");
  EXPECT_EQ(Get("h-b").value_or("?"), "b+");
}

TEST_F(TxnTest, WriteThroughAReadHandleAbortsWhenAnotherCommitterErasedTheRecord) {
  // The read entry catches the erase (its absent install moved the TID); the retry
  // finds the key gone and inserts it afresh.
  Put("e-r", "old");
  TxnExecutor writer(db_);
  TxnExecutor eraser(db_);
  bool erased = false;
  EXPECT_EQ(writer.Run([&](Transaction& txn) {
    std::array<char, 3> row{};
    Record* handle = txn.ReadRow(table_, "e-r", &row);
    if (handle == nullptr) {
      return txn.Insert(table_, "e-r", "new");
    }
    if (!erased) {
      erased = true;
      EXPECT_EQ(eraser.Run([&](Transaction& other) {
        other.Delete(table_, "e-r", /*erase=*/true);
        return true;
      }),
                TxnStatus::kCommitted);
    }
    txn.Write(handle, "new");
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(writer.retries(), 1u);
  EXPECT_EQ(Get("e-r").value_or("?"), "new");
}

TEST_F(TxnTest, WriteThroughAnOwnWriteHandleToAnErasedRecordRetriesOnTheFreshKey) {
  // The handle twin of WriteToARecordErasedBeforeCommitRetriesOnTheFreshKey. A handle
  // that ReadRow returned from this transaction's own pending write carries no read
  // entry, so only commit's unlinked check keeps its write out of the graveyard.
  Put("e-h", "old");
  TxnExecutor writer(db_);
  TxnExecutor eraser(db_);
  bool erased = false;
  EXPECT_EQ(writer.Run([&](Transaction& txn) {
    txn.Write(table_, "e-h", "mid");
    std::array<char, 3> row{};
    Record* handle = txn.ReadRow(table_, "e-h", &row);
    EXPECT_NE(handle, nullptr);
    EXPECT_EQ(txn.ReadSetSize(), 0u);
    if (!erased) {
      erased = true;
      EXPECT_EQ(eraser.Run([&](Transaction& other) {
        other.Delete(table_, "e-h", /*erase=*/true);
        return true;
      }),
                TxnStatus::kCommitted);
    }
    txn.Write(handle, "new");
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(writer.retries(), 1u);
  EXPECT_EQ(Get("e-h").value_or("?"), "new");
}

TEST_F(TxnTest, InsertAfterEraseCreatesFreshRecord) {
  Put("e-k", "old");
  TxnExecutor executor(db_);
  executor.Run([&](Transaction& txn) {
    txn.Delete(table_, "e-k", /*erase=*/true);
    return true;
  });
  EXPECT_EQ(executor.Run([&](Transaction& txn) {
    EXPECT_TRUE(txn.Insert(table_, "e-k", "new"));
    return true;
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(Get("e-k").value_or("?"), "new");
}

}  // namespace
}  // namespace zygos
