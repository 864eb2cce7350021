// Tests for the memcached-style KV store: protocol codec, hash table (including
// concurrent access and a differential test against std::unordered_map), service
// dispatch, the ETC/USR workload generators, and the allocations of the load and GET
// paths.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/kvstore/hash_table.h"
#include "src/kvstore/protocol.h"
#include "src/kvstore/service.h"
#include "src/kvstore/workload.h"

// Global allocation counters (the idiom of core_test.cc and db_test.cc), with
// over-aligned allocations (the table's 64-byte buckets) counted apart.
namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_aligned_allocs{0};
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

[[gnu::noinline]] void* operator new(size_t size, std::align_val_t align) {
  g_aligned_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<size_t>(align);
  const size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, size_t, std::align_val_t align) noexcept {
  operator delete(p, align);
}

namespace zygos {
namespace {

// --- Protocol ------------------------------------------------------------------------

TEST(KvProtocolTest, RequestRoundTripGet) {
  KvRequest request{KvOp::kGet, "some-key", ""};
  auto decoded = DecodeKvRequest(EncodeKvRequest(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, KvOp::kGet);
  EXPECT_EQ(decoded->key, "some-key");
  EXPECT_TRUE(decoded->value.empty());
}

TEST(KvProtocolTest, RequestRoundTripSetWithBinaryValue) {
  std::string value;
  for (int i = 0; i < 256; ++i) {
    value.push_back(static_cast<char>(i));
  }
  KvRequest request{KvOp::kSet, "k", value};
  auto decoded = DecodeKvRequest(EncodeKvRequest(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, KvOp::kSet);
  EXPECT_EQ(decoded->value, value);
}

TEST(KvProtocolTest, ResponseRoundTrip) {
  for (auto status : {KvStatus::kOk, KvStatus::kMiss, KvStatus::kError}) {
    KvResponse response{status, status == KvStatus::kOk ? "payload" : ""};
    auto decoded = DecodeKvResponse(EncodeKvResponse(response));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, status);
    EXPECT_EQ(decoded->value, response.value);
  }
}

TEST(KvProtocolTest, DecodeRejectsTruncatedInput) {
  EXPECT_FALSE(DecodeKvRequest("").has_value());
  EXPECT_FALSE(DecodeKvRequest("\x01").has_value());
  // Header promising a longer key than the payload carries.
  std::string bogus;
  bogus.push_back(0);        // op
  bogus.push_back(50);       // key_len low byte = 50
  bogus.push_back(0);        // key_len high byte
  bogus.append("short");     // only 5 bytes of key follow
  EXPECT_FALSE(DecodeKvRequest(bogus).has_value());
  EXPECT_FALSE(DecodeKvResponse("").has_value());
}

TEST(KvProtocolTest, DecodeRejectsUnknownOp) {
  std::string raw = EncodeKvRequest({KvOp::kGet, "k", ""});
  raw[0] = 9;  // not a valid KvOp
  EXPECT_FALSE(DecodeKvRequest(raw).has_value());
}

// --- Hash table ----------------------------------------------------------------------

TEST(HashTableTest, SetGetDelete) {
  HashTable table(1024, 8);
  EXPECT_TRUE(table.Set("a", "1"));
  EXPECT_FALSE(table.Set("a", "2"));  // overwrite is not a new insert
  EXPECT_EQ(table.Get("a").value_or("?"), "2");
  EXPECT_FALSE(table.Get("missing").has_value());
  EXPECT_TRUE(table.Delete("a"));
  EXPECT_FALSE(table.Delete("a"));
  EXPECT_FALSE(table.Get("a").has_value());
  EXPECT_EQ(table.Size(), 0u);
}

TEST(HashTableTest, SizeTracksInsertsAcrossManyKeys) {
  HashTable table(64, 4);  // force heavy chaining
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    table.Set("key-" + std::to_string(i), std::to_string(i));
  }
  EXPECT_EQ(table.Size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    auto hit = table.Get("key-" + std::to_string(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, std::to_string(i));
  }
}

TEST(HashTableTest, EmptyKeyAndLargeValue) {
  HashTable table;
  std::string big(1 << 20, 'x');
  EXPECT_TRUE(table.Set("", big));
  EXPECT_EQ(table.Get("").value_or("").size(), big.size());
}

TEST(HashTableTest, ConcurrentDisjointWritersDontLoseUpdates) {
  HashTable table(1 << 12, 16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (int i = 0; i < kPerThread; ++i) {
        table.Set("t" + std::to_string(t) + "-" + std::to_string(i), std::to_string(i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(table.Size(), static_cast<size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; i += 97) {
      auto hit = table.Get("t" + std::to_string(t) + "-" + std::to_string(i));
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(*hit, std::to_string(i));
    }
  }
}

TEST(HashTableTest, ConcurrentReadersSeeConsistentValues) {
  // Writers flip one key between two equally sized values; readers must always observe
  // one of the two (never a torn mixture) because reads copy under the stripe lock.
  HashTable table;
  const std::string v1(64, 'a');
  const std::string v2(64, 'b');
  table.Set("flip", v1);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      table.Set("flip", (i & 1) != 0 ? v1 : v2);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      auto value = table.Get("flip");
      if (value.has_value() && *value != v1 && *value != v2) {
        torn.fetch_add(1);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

// Differential test against std::unordered_map. 16 buckets of five slots hold 400
// keys only through overflow chains; the seeded mix grows and shrinks values across
// the in-place/new-block boundary (empty values up to 4 KB), and deletes free slots
// that later inserts of the chain reuse.
TEST(HashTableTest, MatchesAnUnorderedMapThroughOverwritesDeletesAndOverflow) {
  HashTable table(16, 4);
  std::unordered_map<std::string, std::string> oracle;
  Rng rng(29);
  constexpr uint64_t kKeys = 400;
  auto sample_value = [&rng] {
    const double u = rng.NextDouble();
    size_t size = 0;
    if (u < 0.1) {
      size = 0;
    } else if (u < 0.6) {
      size = 1 + rng.NextBounded(16);
    } else {
      size = rng.NextBounded(4097);
    }
    // Bytes that differ by position and draw, so a stale tail or a torn copy shows.
    std::string value(size, '\0');
    const uint64_t salt = rng.NextU64();
    for (size_t i = 0; i < size; ++i) {
      value[i] = static_cast<char>((salt >> (i % 57)) + i);
    }
    return value;
  };
  auto expect_matches = [&](const std::string& key) {
    auto it = oracle.find(key);
    std::optional<std::string> got = table.Get(key);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << key;
    if (got.has_value()) {
      ASSERT_EQ(*got, it->second) << key;
    }
  };
  for (int step = 0; step < 30000; ++step) {
    const std::string key = "key-" + std::to_string(rng.NextBounded(kKeys));
    const uint64_t op = rng.NextBounded(10);
    if (op < 4) {
      std::string value = sample_value();
      ASSERT_EQ(table.Set(key, value), oracle.find(key) == oracle.end()) << key;
      oracle[key] = std::move(value);
    } else if (op < 6) {
      expect_matches(key);
    } else if (op < 8) {
      std::string seen;
      const bool hit = table.Visit(key, [&seen](std::string_view value) {
        seen = std::string(value);
      });
      auto it = oracle.find(key);
      ASSERT_EQ(hit, it != oracle.end()) << key;
      if (hit) {
        ASSERT_EQ(seen, it->second) << key;
      }
    } else {
      ASSERT_EQ(table.Delete(key), oracle.erase(key) == 1) << key;
      if (rng.NextBool(0.5)) {
        std::string value = sample_value();
        ASSERT_TRUE(table.Set(key, value)) << key;
        oracle[key] = std::move(value);
      }
    }
    ASSERT_EQ(table.Size(), oracle.size());
  }
  for (uint64_t i = 0; i < kKeys; ++i) {
    expect_matches("key-" + std::to_string(i));
  }
}

// --- Service -------------------------------------------------------------------------

TEST(KvServiceTest, GetSetDeleteViaPayloads) {
  KvService service;
  auto set = DecodeKvResponse(service.Handle(EncodeKvRequest({KvOp::kSet, "k", "v"})));
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->status, KvStatus::kOk);

  auto get = DecodeKvResponse(service.Handle(EncodeKvRequest({KvOp::kGet, "k", ""})));
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->status, KvStatus::kOk);
  EXPECT_EQ(get->value, "v");

  auto del = DecodeKvResponse(service.Handle(EncodeKvRequest({KvOp::kDelete, "k", ""})));
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(del->status, KvStatus::kOk);

  auto miss = DecodeKvResponse(service.Handle(EncodeKvRequest({KvOp::kGet, "k", ""})));
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->status, KvStatus::kMiss);
}

TEST(KvServiceTest, MalformedRequestYieldsErrorNotCrash) {
  KvService service;
  auto response = DecodeKvResponse(service.Handle("garbage"));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, KvStatus::kError);
}

// --- Zero-copy fast path --------------------------------------------------------------

TEST(KvServiceTest, HandleViewWritesResponseIntoTheFrameBuilder) {
  KvService service;
  service.table().Set("k", "value-bytes");

  ResponseBuilder get(/*payload_hint=*/16);
  EXPECT_EQ(service.HandleView(EncodeKvRequest({KvOp::kGet, "k", ""}), get),
            KvStatus::kOk);
  IoBuf frame = get.Finish(/*request_id=*/1);
  auto decoded = DecodeKvResponse(frame.view().substr(kFrameHeaderSize));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, KvStatus::kOk);
  EXPECT_EQ(decoded->value, "value-bytes");

  // A miss patches the optimistic status byte in place: exactly one byte, kMiss.
  ResponseBuilder miss;
  EXPECT_EQ(service.HandleView(EncodeKvRequest({KvOp::kGet, "absent", ""}), miss),
            KvStatus::kMiss);
  IoBuf miss_frame = miss.Finish(2);
  std::string_view miss_payload = miss_frame.view().substr(kFrameHeaderSize);
  ASSERT_EQ(miss_payload.size(), 1u);
  EXPECT_EQ(static_cast<KvStatus>(miss_payload[0]), KvStatus::kMiss);

  ResponseBuilder bad;
  EXPECT_EQ(service.HandleView("x", bad), KvStatus::kError);
  ResponseBuilder del;
  EXPECT_EQ(service.HandleView(EncodeKvRequest({KvOp::kDelete, "k", ""}), del),
            KvStatus::kOk);
  EXPECT_FALSE(service.table().Get("k").has_value());
}

TEST(KvProtocolTest, ViewDecodeAliasesThePayload) {
  std::string payload = EncodeKvRequest({KvOp::kSet, "the-key", "the-value"});
  auto view = DecodeKvRequestView(payload);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->key, "the-key");
  EXPECT_EQ(view->value, "the-value");
  // Zero copy: the views point into the original payload bytes.
  EXPECT_GE(view->key.data(), payload.data());
  EXPECT_LT(view->key.data(), payload.data() + payload.size());
  EXPECT_GE(view->value.data(), payload.data());
}

TEST(HashTableTest, VisitExposesValueUnderTheLock) {
  HashTable table(256, 4);
  table.Set("visited", "through-a-view");
  std::string copied;
  EXPECT_TRUE(table.Visit("visited", [&copied](std::string_view value) {
    copied = std::string(value);
  }));
  EXPECT_EQ(copied, "through-a-view");
  EXPECT_FALSE(table.Visit("missing", [](std::string_view) { FAIL(); }));
}

// --- Workloads -----------------------------------------------------------------------

TEST(KvWorkloadTest, KeysAreStableAndUnique) {
  KvWorkload workload(KvWorkloadSpec::Etc(), 7);
  EXPECT_EQ(workload.KeyAt(42), workload.KeyAt(42));
  EXPECT_NE(workload.KeyAt(1), workload.KeyAt(2));
}

TEST(KvWorkloadTest, KeyLengthProfilesMatchTraces) {
  KvWorkload usr(KvWorkloadSpec::Usr(), 7);
  KvWorkload etc(KvWorkloadSpec::Etc(), 7);
  for (uint64_t i = 0; i < 500; ++i) {
    size_t usr_len = usr.KeyAt(i).size();
    EXPECT_GE(usr_len, 19u);
    EXPECT_LE(usr_len, 21u);
    size_t etc_len = etc.KeyAt(i).size();
    EXPECT_GE(etc_len, 20u);
    EXPECT_LE(etc_len, 45u);
  }
}

TEST(KvWorkloadTest, UsrValuesAreTwoBytes) {
  KvWorkload workload(KvWorkloadSpec::Usr(), 3);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(workload.SampleValue(rng).size(), 2u);
  }
}

TEST(KvWorkloadTest, EtcValueSizesSpanTheDistribution) {
  KvWorkload workload(KvWorkloadSpec::Etc(), 3);
  Rng rng(3);
  RunningStats sizes;
  for (int i = 0; i < 20000; ++i) {
    sizes.Add(static_cast<double>(workload.SampleValue(rng).size()));
  }
  EXPECT_GE(sizes.Min(), 2.0);
  EXPECT_LE(sizes.Max(), 1024.0);
  // The mix has mass both below 16 B and above 512 B.
  EXPECT_LT(sizes.Min(), 16.0);
  EXPECT_GT(sizes.Max(), 512.0);
}

TEST(KvWorkloadTest, GetFractionIsRespected) {
  KvWorkload workload(KvWorkloadSpec::Etc(), 11);
  Rng rng(11);
  int gets = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    auto request = DecodeKvRequest(workload.SampleRequest(rng));
    ASSERT_TRUE(request.has_value());
    if (request->op == KvOp::kGet) {
      gets++;
    }
  }
  double fraction = static_cast<double>(gets) / kSamples;
  EXPECT_NEAR(fraction, KvWorkloadSpec::Etc().get_fraction, 0.01);
}

TEST(KvWorkloadTest, PopulateInsertsEveryKey) {
  KvWorkloadSpec spec = KvWorkloadSpec::Usr();
  spec.num_keys = 1000;
  KvWorkload workload(spec, 5);
  KvService service;
  workload.Populate(service);
  EXPECT_EQ(service.table().Size(), 1000u);
  EXPECT_TRUE(service.table().Get(workload.KeyAt(0)).has_value());
  EXPECT_TRUE(service.table().Get(workload.KeyAt(999)).has_value());
}

// Pins the benchmark's inputs: Populate stores exactly KeyAt(i) -> SampleValue for
// Populate's fixed value stream, and KeyAt builds the keys it always has.
TEST(KvWorkloadTest, PopulateStoresKeyAtAndSampleValueForEveryKey) {
  for (KvWorkloadSpec spec : {KvWorkloadSpec::Usr(), KvWorkloadSpec::Etc()}) {
    spec.num_keys = 1000;
    constexpr uint64_t kSeed = 17;
    KvWorkload workload(spec, kSeed);
    KvService service;
    workload.Populate(service);
    EXPECT_EQ(service.table().Size(), 1000u);
    Rng values(kSeed ^ 0x5eed);  // Populate's value stream
    for (uint64_t i = 0; i < spec.num_keys; ++i) {
      auto hit = service.table().Get(workload.KeyAt(i));
      ASSERT_TRUE(hit.has_value()) << spec.Name() << " key " << i;
      ASSERT_EQ(*hit, workload.SampleValue(values)) << spec.Name() << " key " << i;
    }
  }
  KvWorkload usr(KvWorkloadSpec::Usr(), 1);
  KvWorkload etc(KvWorkloadSpec::Etc(), 1);
  EXPECT_EQ(usr.KeyAt(0), "k0ovcjqxelszgnubipw");
  EXPECT_EQ(usr.KeyAt(12345), "k12345lszgnubipwdkr");
  EXPECT_EQ(usr.KeyAt(99999), "k99999tahovcjqxelsz");
  EXPECT_EQ(etc.KeyAt(7), "k7vcjqxelszgnubipwdkryfmtahovcjqxelszgnub");
  EXPECT_EQ(etc.KeyAt(12345), "k12345lszgnubipwdkryfmtahovcjqx");
}

// Loading costs one allocation per key (its entry block), plus the rare overflow
// bucket (over-aligned, counted apart); a warmed GET through the served path makes
// none.
TEST(KvWorkloadTest, PopulateAllocatesOncePerKeyAndWarmGetsNever) {
  for (const KvWorkloadSpec& spec : {KvWorkloadSpec::Usr(), KvWorkloadSpec::Etc()}) {
    KvWorkload workload(spec, 9);
    KvService service;
    const uint64_t allocs_before = g_allocs.load();
    const uint64_t aligned_before = g_aligned_allocs.load();
    workload.Populate(service);
    const uint64_t allocs = g_allocs.load() - allocs_before;
    const uint64_t overflow = g_aligned_allocs.load() - aligned_before;
    std::printf("%s Populate of %llu keys: %llu allocations + %llu overflow buckets\n",
                spec.Name(), static_cast<unsigned long long>(spec.num_keys),
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(overflow));
    EXPECT_LE(allocs, spec.num_keys) << spec.Name();
    EXPECT_LE(overflow, spec.num_keys / 100) << spec.Name();
  }

  KvWorkloadSpec spec = KvWorkloadSpec::Usr();
  spec.num_keys = 10'000;
  KvWorkload workload(spec, 9);
  KvService service;
  workload.Populate(service);
  std::vector<std::string> gets;
  gets.reserve(spec.num_keys);
  for (uint64_t i = 0; i < spec.num_keys; ++i) {
    gets.push_back(EncodeKvRequest({KvOp::kGet, workload.KeyAt(i), ""}));
  }
  auto serve_all = [&service, &gets] {
    for (const std::string& request : gets) {
      ResponseBuilder builder(request.size());
      ASSERT_EQ(service.HandleView(request, builder), KvStatus::kOk);
      IoBuf frame = builder.Finish(0);
    }
  };
  serve_all();  // warm the buffer pool
  const uint64_t allocs_before = g_allocs.load() + g_aligned_allocs.load();
  serve_all();
  EXPECT_EQ(g_allocs.load() + g_aligned_allocs.load() - allocs_before, 0u);
}

TEST(KvWorkloadTest, MeasuredServiceTimesArePositiveAndTiny) {
  KvWorkloadSpec spec = KvWorkloadSpec::Usr();
  spec.num_keys = 10000;
  KvWorkload workload(spec, 5);
  KvService service;
  workload.Populate(service);
  auto times = workload.MeasureServiceTimes(service, 2000);
  ASSERT_EQ(times.size(), 2000u);
  RunningStats stats;
  for (Nanos t : times) {
    EXPECT_GE(t, 0);
    stats.Add(static_cast<double>(t));
  }
  // The whole point of the memcached experiment: tasks are ~the microsecond scale.
  // Allow generous slack for noisy CI machines.
  EXPECT_LT(stats.Mean(), 100.0 * kMicrosecond);
}

}  // namespace
}  // namespace zygos
