// Ordered in-memory index: the Masstree substitute.
//
// Silo stores records in Masstree, a trie/B+-tree hybrid supporting lock-free readers.
// Reimplementing Masstree is out of scope (and immaterial to the paper's Fig. 10, which
// depends on transaction *service times*, not index internals); instead the index is a
// std::map guarded by a readers-writer spin lock (RwSpinlock, never a kernel sleep):
//
//   - lookups and scans take the lock shared — concurrent readers never block each other;
//   - structural inserts and erases take it exclusive (record *values* are versioned in
//     the Record itself, so updates never touch the index).
//
// The lock covers only the map walk, never work on a record: Scan copies a bounded
// chunk of (key, Record*) pairs under the shared lock, releases it, and only then runs
// the callback. Two workers sharing one database therefore never wait on each other's
// record reads, record locks or callbacks through this lock.
//
// Keys are byte strings whose lexicographic order encodes the schema order (see
// tpcc_schema.h's big-endian key builders). Record pointers are stable for the life of
// the index (map nodes are never moved, deletes are logical via the TID absent bit, and
// erased records move to a graveyard that is never freed — GC is disabled, as in the
// paper's Silo measurements), which is what lets a scan hand them out after unlocking.
// Contract: thread-safe; the lock is held only inside these methods. A scan is not a
// snapshot of the map: keys inserted or erased between its chunks may or may not be
// visited. Serializability comes from the transaction layer's OCC — record TIDs plus
// the range fingerprint revalidated at commit — not from this lock.
#ifndef ZYGOS_DB_INDEX_H_
#define ZYGOS_DB_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/concurrency/spinlock.h"
#include "src/db/record.h"

namespace zygos {

class OrderedIndex {
 public:
  // A scan's first chunk is small (limit-1 scans such as TPC-C's oldest-NEW-ORDER
  // lookup stop at their first visible row); later chunks double up to the maximum.
  static constexpr size_t kFirstScanChunk = 4;
  static constexpr size_t kMaxScanChunk = 64;

  OrderedIndex() = default;
  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  // Returns the record for `key`, or nullptr. The record may be logically absent —
  // callers check the TID.
  Record* Get(std::string_view key) const {
    RwSpinlock::SharedGuard guard(lock_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second.get();
  }

  // Returns the record for `key`, inserting a fresh absent record if none exists.
  // `second` is true iff this call created the record.
  std::pair<Record*, bool> GetOrInsert(std::string_view key) {
    if (Record* record = Get(key)) {
      return {record, false};
    }
    auto fresh = std::make_unique<Record>();  // allocated outside the lock
    RwSpinlock::Guard guard(lock_);
    auto [it, inserted] = map_.try_emplace(std::string(key));
    if (inserted) {
      it->second = std::move(fresh);
    }
    return {it->second.get(), inserted};
  }

  // Visits records with lo <= key <= hi in key order (descending if requested) until
  // `fn` returns false. Absent records are visited too — the transaction layer decides
  // visibility. The walk proceeds in chunks: each chunk's keys and record pointers are
  // copied under the shared lock, then `fn` runs on them with no lock held (it may
  // itself read, insert into or scan this index). The next chunk resumes strictly past
  // the last key handed out, so no key is visited twice.
  void Scan(std::string_view lo, std::string_view hi, bool descending,
            const std::function<bool(const std::string&, Record*)>& fn) const {
    if (lo > hi) {
      return;
    }
    ScanScratch::Lease lease;
    ScanScratch& chunk = lease.scratch();
    size_t capacity = kFirstScanChunk;
    size_t count = 0;  // entries of `chunk` filled last round; 0 before the first
    while (true) {
      bool exhausted = false;
      {
        RwSpinlock::SharedGuard guard(lock_);
        // Position first (from the previous chunk's last key), then overwrite the chunk.
        if (!descending) {
          auto it = count == 0 ? map_.lower_bound(lo)
                               : map_.upper_bound(chunk.keys[count - 1]);
          auto end = map_.upper_bound(hi);
          count = 0;
          for (; it != end && count < capacity; ++it) {
            chunk.Set(count++, it->first, it->second.get());
          }
          exhausted = it == end;
        } else {
          auto it = count == 0 ? map_.upper_bound(hi)
                               : map_.lower_bound(chunk.keys[count - 1]);
          auto begin = map_.lower_bound(lo);
          count = 0;
          for (; it != begin && count < capacity;) {
            --it;
            chunk.Set(count++, it->first, it->second.get());
          }
          exhausted = it == begin;
        }
      }
      for (size_t i = 0; i < count; ++i) {
        if (!fn(chunk.keys[i], chunk.records[i])) {
          return;
        }
      }
      if (exhausted || count == 0) {
        return;
      }
      capacity = std::min(capacity * 2, kMaxScanChunk);
    }
  }

  // Number of keys (including logically absent ones).
  size_t KeyCount() const {
    RwSpinlock::SharedGuard guard(lock_);
    return map_.size();
  }

  // Structurally unlinks `key` from the map, as Masstree's delete does, and marks the
  // record unlinked (TidWord::kUnlinkedBit). The record is moved to a graveyard (never
  // freed — the paper benchmarks with GC disabled), so pointers held in concurrent
  // read/write sets and scan chunks stay valid; the unlinked bit makes any of them that
  // were taken before the unlink fail validation, so a write can never land on a record
  // that is no longer in the index. The transaction layer calls this while holding the
  // record's lock, after validation and before the absent install (Transaction::Commit).
  //
  // Semantics caveat (why this is opt-in, see Transaction::Delete): a *point read* of
  // an erased key that found no record cannot detect a later fresh insert of the same
  // key (the new key creates a new record). Range scans remain fully protected by their
  // key fingerprints. Callers must erase only keys that are never blind-point-read
  // again — e.g. TPC-C NEW-ORDER rows, whose o_id space is never revisited.
  bool Erase(std::string_view key) {
    RwSpinlock::Guard guard(lock_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    it->second->MarkUnlinked();
    graveyard_.push_back(std::move(it->second));
    map_.erase(it);
    erases_.fetch_add(1, std::memory_order_release);
    return true;
  }

  // Number of Erase calls that unlinked a key, ever. A scan that records it before
  // walking and finds it unchanged after its validation walk knows no key of its
  // range can have appeared and been unlinked in between (see ValidateScan).
  uint64_t EraseCount() const { return erases_.load(std::memory_order_acquire); }

  // Tombstones awaiting the (disabled) garbage collector; exposed for tests.
  size_t GraveyardSize() const {
    RwSpinlock::SharedGuard guard(lock_);
    return graveyard_.size();
  }

 private:
  // Per-thread chunk buffers, reused across scans so a warmed-up scan allocates
  // nothing. One buffer per nesting level: a scan callback may start another scan.
  struct ScanScratch {
    std::vector<std::string> keys;
    std::vector<Record*> records;

    void Set(size_t i, const std::string& key, Record* record) {
      if (i == keys.size()) {
        keys.emplace_back();
        records.push_back(nullptr);
      }
      keys[i].assign(key);  // reuses the string's capacity
      records[i] = record;
    }

    // Borrows the calling thread's buffer for the current nesting depth.
    class Lease {
     public:
      Lease() {
        if (depth_ == pool_.size()) {
          pool_.push_back(std::make_unique<ScanScratch>());
        }
        scratch_ = pool_[depth_++].get();
      }
      ~Lease() { depth_--; }
      Lease(const Lease&) = delete;
      Lease& operator=(const Lease&) = delete;

      ScanScratch& scratch() { return *scratch_; }

     private:
      ScanScratch* scratch_;
      static inline thread_local std::vector<std::unique_ptr<ScanScratch>> pool_;
      static inline thread_local size_t depth_ = 0;
    };
  };

  mutable RwSpinlock lock_;
  std::map<std::string, std::unique_ptr<Record>, std::less<>> map_;
  std::vector<std::unique_ptr<Record>> graveyard_;
  std::atomic<uint64_t> erases_{0};
};

}  // namespace zygos

#endif  // ZYGOS_DB_INDEX_H_
