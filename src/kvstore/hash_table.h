// Striped-lock hash table in cache-line buckets: the storage engine of the
// memcached-style KV store.
//
// memcached itself is a big hash table behind a slab allocator; for the Fig. 9
// experiments only the operation cost profile matters (sub-microsecond lookups with
// a short lock hold). Per-stripe spinlocks let the multi-core runtime serve
// concurrent GET/SET traffic.
//
// Layout. A power-of-two array of 64-byte buckets, each five (16-bit hash tag, entry
// pointer) slots plus a link to an overflow bucket, chained on when every slot of a
// chain is taken. An entry is one heap block: a 12-byte header (key length, value
// length, value capacity), the key bytes, then the value bytes. A GET hashes the key
// once (eight bytes a step), reads its bucket's line, and touches an entry block only
// on a tag match: two dependent cache misses per hit. A SET whose value fits the
// entry's capacity overwrites in place; a larger one swaps in a new block and frees
// the old, both under the stripe lock, so capacity never shrinks. Delete frees the
// block and empties the slot; an overflow bucket, once chained, stays (later inserts
// of its chain reuse it) until the table is destroyed. Loading a key costs one
// allocation (its entry) plus, rarely, an overflow bucket.
//
// Keys and values are passed as string_views so the zero-copy request path
// (src/kvstore/protocol.h decode views) reaches the table without materializing
// strings; Visit() additionally lets the caller consume the value under the stripe
// lock (e.g. copy it straight into a pooled TX frame) instead of through an
// intermediate std::string.
// Contract: Set/Get/Delete/Visit are thread-safe (per-stripe spinlocks, short
// critical sections; a key's stripe is its bucket index modulo the stripe count, so
// one lock guards a whole chain); Size is exact only at quiescence. Keys and values
// are shorter than 4 GiB. Values are copied in; Get copies out, Visit exposes a view
// only for the duration of the callback (do not retain it past the call).
#ifndef ZYGOS_KVSTORE_HASH_TABLE_H_
#define ZYGOS_KVSTORE_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/concurrency/spinlock.h"

namespace zygos {

class HashTable {
 public:
  // `bucket_count` is rounded up to a power of two. `stripes` locks guard disjoint
  // bucket ranges (must also be a power of two <= bucket_count).
  explicit HashTable(size_t bucket_count = 1 << 16, size_t stripes = 64);
  ~HashTable();

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  // Inserts or overwrites. Returns true if the key was newly inserted.
  bool Set(std::string_view key, std::string_view value);

  // Returns a copy of the value or nullopt.
  std::optional<std::string> Get(std::string_view key) const;

  // Invokes `sink(value_view)` under the stripe lock if the key exists; returns true
  // on a hit. The view is valid only inside the callback — the zero-copy read path.
  template <typename Sink>
  bool Visit(std::string_view key, Sink&& sink) const {
    const uint64_t hash = Hash(key);
    Spinlock::Guard guard(LockFor(hash));
    const auto [bucket, slot] = Find(&buckets_[hash & bucket_mask_], hash, key);
    if (bucket == nullptr) {
      return false;
    }
    sink(bucket->entries[slot]->value());
    return true;
  }

  // Removes the key; returns true if it existed.
  bool Delete(std::string_view key);

  size_t Size() const;

 private:
  // The header of an entry's heap block; the key bytes follow it, then `capacity`
  // value bytes of which the first `value_size` are live.
  struct Entry {
    uint32_t key_size;
    uint32_t value_size;
    uint32_t capacity;

    char* bytes() { return reinterpret_cast<char*>(this + 1); }
    const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
    std::string_view key() const { return {bytes(), key_size}; }
    std::string_view value() const { return {bytes() + key_size, value_size}; }
  };

  static constexpr size_t kSlots = 5;
  struct alignas(64) Bucket {
    uint16_t tags[kSlots];    // high 16 bits of the hash of the slot's key
    Entry* entries[kSlots];   // nullptr: the slot is empty
    Bucket* next;             // overflow chain
  };
  static_assert(sizeof(Bucket) == 64, "a bucket is one cache line");

  // Eight bytes a step, then MurmurHash3's 64-bit finalizer: the bucket index and
  // stripe take the low bits, the tag the high 16.
  static uint64_t Hash(std::string_view key) {
    constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    const char* p = key.data();
    size_t n = key.size();
    uint64_t h = n * kMul;
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t word;
      std::memcpy(&word, p, 8);
      h = (h ^ word) * kMul;
      h ^= h >> 29;
    }
    if (n > 0) {
      uint64_t word = 0;
      std::memcpy(&word, p, n);
      h = (h ^ word) * kMul;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }
  static uint16_t Tag(uint64_t hash) { return static_cast<uint16_t>(hash >> 48); }

  Spinlock& LockFor(uint64_t hash) const { return locks_[hash & stripe_mask_]; }

  // The bucket and slot holding `key` in the chain that starts at `bucket`, or
  // {nullptr, 0} (caller holds the stripe lock). `B` is Bucket or const Bucket.
  template <typename B>
  static std::pair<B*, size_t> Find(B* bucket, uint64_t hash, std::string_view key) {
    const uint16_t tag = Tag(hash);
    for (; bucket != nullptr; bucket = bucket->next) {
      for (size_t i = 0; i < kSlots; ++i) {
        const Entry* entry = bucket->entries[i];
        if (entry != nullptr && bucket->tags[i] == tag && entry->key() == key) {
          return {bucket, i};
        }
      }
    }
    return {nullptr, 0};
  }

  static Entry* NewEntry(std::string_view key, std::string_view value);
  static void FreeEntry(Entry* entry);

  size_t bucket_mask_;
  std::vector<Bucket> buckets_;
  size_t stripe_mask_;
  mutable std::vector<Spinlock> locks_;
  std::atomic<size_t> size_{0};
};

}  // namespace zygos

#endif  // ZYGOS_KVSTORE_HASH_TABLE_H_
