// Versioned record: one row version with a Silo-style TID word and a swappable value.
//
// Readers use an optimistic seqlock-like protocol: read the TID, copy the value
// pointer, re-read the TID, and retry if it moved or was locked. The TID tells the
// reader which version it observed; the value itself is a reference-counted immutable
// string, so a snapshot stays valid after a later install replaces it.
//
// The value slot is a plain std::shared_ptr guarded by its own one-word spin bit
// (acquire to take, release to drop), held only for the pointer copy or swap. This is
// what std::atomic<std::shared_ptr> does internally, but with the release ordering
// spelled out: libstdc++ 12 releases that internal bit with a relaxed store on load,
// which ThreadSanitizer reports as a race between Install and StableRead.
// Contract: StableRead and LoadTid from any thread; Lock/TryLock/Unlock/Install by a
// committer (Install and Unlock only while holding the TID lock). Nothing here sleeps:
// a reader spins only across an install in flight.
#ifndef ZYGOS_DB_RECORD_H_
#define ZYGOS_DB_RECORD_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "src/concurrency/cache_line.h"
#include "src/db/tid.h"

namespace zygos {

class Record {
 public:
  // A new record starts absent (uncommitted insert); the inserting transaction's commit
  // makes it visible.
  Record() : tid_(TidWord::kAbsentBit) {}

  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;

  // --- Optimistic read ----------------------------------------------------------------

  struct ReadResult {
    uint64_t tid = 0;  // observed version (unlocked; may carry the absent bit)
    std::shared_ptr<const std::string> value;  // null iff absent
  };

  // Returns a consistent (tid, value) snapshot, spinning across in-flight writers.
  ReadResult StableRead() const {
    while (true) {
      uint64_t t1 = tid_.load(std::memory_order_acquire);
      if (TidWord::Locked(t1)) {
        CpuRelax();
        continue;
      }
      std::shared_ptr<const std::string> value = LoadValue();
      uint64_t t2 = tid_.load(std::memory_order_acquire);
      if (t1 == t2) {
        if (TidWord::Absent(t1)) {
          value.reset();
        }
        return ReadResult{t1, std::move(value)};
      }
    }
  }

  // Raw TID peek (validation path).
  uint64_t LoadTid() const { return tid_.load(std::memory_order_acquire); }

  // --- Write locking (commit protocol) -------------------------------------------------

  // Spins until the lock bit is acquired. Safe against deadlock because committers lock
  // their write sets in a global order.
  void Lock() {
    while (true) {
      uint64_t t = tid_.load(std::memory_order_relaxed);
      if (!TidWord::Locked(t) &&
          tid_.compare_exchange_weak(t, t | TidWord::kLockBit,
                                     std::memory_order_acquire)) {
        return;
      }
      CpuRelax();
    }
  }

  // Single attempt; true on success.
  bool TryLock() {
    uint64_t t = tid_.load(std::memory_order_relaxed);
    return !TidWord::Locked(t) &&
           tid_.compare_exchange_strong(t, t | TidWord::kLockBit,
                                        std::memory_order_acquire);
  }

  // Releases the lock without changing the version (abort path).
  void Unlock() {
    tid_.fetch_and(~TidWord::kLockBit, std::memory_order_release);
  }

  // Sets the unlinked bit (OrderedIndex::Erase). Callers that race committers must hold
  // the lock: the bit then survives the Install that follows, and every read entry or
  // write-set claim taken before the unlink fails validation.
  void MarkUnlinked() { tid_.fetch_or(TidWord::kUnlinkedBit, std::memory_order_release); }

  // Installs a new committed version and releases the lock. Caller must hold the lock.
  // `value` may be null only together with `absent` (logical delete).
  void Install(uint64_t commit_tid, std::shared_ptr<const std::string> value,
               bool absent = false) {
    LockValue();
    value_.swap(value);
    UnlockValue();
    uint64_t tid = TidWord::Version(commit_tid) | (absent ? TidWord::kAbsentBit : 0) |
                   (tid_.load(std::memory_order_relaxed) & TidWord::kUnlinkedBit);
    tid_.store(tid, std::memory_order_release);
    // `value` now holds the replaced version; it is released here, outside the bit.
  }

 private:
  std::shared_ptr<const std::string> LoadValue() const {
    LockValue();
    std::shared_ptr<const std::string> value = value_;
    UnlockValue();
    return value;
  }

  // Test-and-test-and-set on the value slot's bit (see the header comment).
  void LockValue() const {
    while (value_locked_.exchange(true, std::memory_order_acquire)) {
      while (value_locked_.load(std::memory_order_relaxed)) {
        CpuRelax();
      }
    }
  }
  void UnlockValue() const { value_locked_.store(false, std::memory_order_release); }

  std::atomic<uint64_t> tid_;
  mutable std::atomic<bool> value_locked_{false};
  std::shared_ptr<const std::string> value_;  // guarded by value_locked_
};

}  // namespace zygos

#endif  // ZYGOS_DB_RECORD_H_
