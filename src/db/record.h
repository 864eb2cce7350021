// Versioned record: one row with a Silo-style TID word, read under Silo's own protocol
// (Tu et al., SOSP'13 §4).
//
// Each record owns one row buffer of 64-bit words, allocated at its first install. A
// reader loads the TID, copies the row word by word, loads the TID again, and retries
// if the TID was locked or moved: the TID tells it which version it copied, and it
// writes nothing shared. A committer copies the new row into the same buffer while it
// holds the TID lock. Only a row longer than the buffer allocates a new one; the
// replaced buffer stays allocated until ~Record, so a reader racing the install never
// touches freed memory (its second TID load then sends it round again).
//
// Ordering uses no standalone fence (ThreadSanitizer does not model them): the data
// words are release stores that follow the lock CAS, and the reader's acquire loads of
// them precede its second TID load. A reader that copies any word of an install in
// flight therefore sees that install's lock in its second TID load. A new buffer is
// published with a release store of its pointer and loaded with acquire. On x86 every
// one of these is a plain MOV.
// Contract: StableRead and LoadTid from any thread; Lock/TryLock/Unlock/Install by a
// committer (Install and Unlock only while holding the TID lock). Nothing here sleeps:
// a reader spins only across an install in flight.
#ifndef ZYGOS_DB_RECORD_H_
#define ZYGOS_DB_RECORD_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>

#include "src/concurrency/cache_line.h"
#include "src/db/tid.h"

namespace zygos {

class Record {
 public:
  // A new record starts absent (uncommitted insert); the inserting transaction's commit
  // makes it visible.
  Record() : tid_(TidWord::kAbsentBit) {}

  ~Record() {
    RowBuffer* buffer = buffer_.load(std::memory_order_relaxed);
    while (buffer != nullptr) {
      RowBuffer* replaced = buffer->replaced;
      ::operator delete(buffer);
      buffer = replaced;
    }
  }

  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;

  // --- Optimistic read ----------------------------------------------------------------

  struct ReadResult {
    uint64_t tid = 0;  // observed version (unlocked; may carry the absent bit)
    size_t size = 0;   // the row's length; 0 when absent
  };

  // Copies a consistent snapshot of the row's first min(size, capacity) bytes into
  // `dst`, spinning across in-flight writers. Allocates nothing.
  ReadResult StableRead(void* dst, size_t capacity) const {
    auto* out = static_cast<unsigned char*>(dst);
    while (true) {
      uint64_t t1 = tid_.load(std::memory_order_acquire);
      if (TidWord::Locked(t1)) {
        CpuRelax();
        continue;
      }
      size_t size = 0;
      if (!TidWord::Absent(t1)) {
        const RowBuffer* buffer = buffer_.load(std::memory_order_acquire);
        size = size_.load(std::memory_order_acquire);
        if (buffer != nullptr) {
          // The clamp to the buffer matters only when an install raced the loads
          // above: the second TID load then rejects whatever was copied.
          size_t n = std::min({size, capacity, buffer->words * 8});
          const std::atomic<uint64_t>* words = buffer->data();
          // Whole words, then the partial tail word. Both tests also check
          // `capacity` itself (n <= capacity already): inlined with a constant
          // capacity, they fold, and the compiler sees no copy run past `dst` (GCC
          // does not fold the three-way std::min above).
          size_t done = 0;
          for (; done + 8 <= n && done + 8 <= capacity; done += 8) {
            uint64_t word = words[done / 8].load(std::memory_order_acquire);
            std::memcpy(out + done, &word, 8);
          }
          if (done < n && done < capacity) {
            uint64_t word = words[done / 8].load(std::memory_order_acquire);
            std::memcpy(out + done, &word, n - done);
          }
        }
      }
      uint64_t t2 = tid_.load(std::memory_order_acquire);
      if (t1 == t2) {
        return ReadResult{t1, size};
      }
    }
  }

  // The same snapshot into a string sized to the row. Allocates only when `out`'s
  // capacity is smaller than the row.
  uint64_t StableRead(std::string* out) const {
    out->resize(out->capacity());
    while (true) {
      ReadResult result = StableRead(out->data(), out->size());
      bool fits = result.size <= out->size();
      out->resize(result.size);
      if (fits) {
        return result.tid;
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
  // An `absent` install (logical delete) leaves the buffer as it is; readers of an
  // absent TID copy nothing.
  void Install(uint64_t commit_tid, std::string_view row, bool absent = false) {
    if (!absent) {
      StoreRow(row);
    }
    uint64_t tid = TidWord::Version(commit_tid) | (absent ? TidWord::kAbsentBit : 0) |
                   (tid_.load(std::memory_order_relaxed) & TidWord::kUnlinkedBit);
    tid_.store(tid, std::memory_order_release);
  }

 private:
  // One allocation: this header, then `words` atomic row words.
  struct RowBuffer {
    size_t words = 0;
    RowBuffer* replaced = nullptr;  // the smaller buffer this one replaced

    std::atomic<uint64_t>* data() { return reinterpret_cast<std::atomic<uint64_t>*>(this + 1); }
    const std::atomic<uint64_t>* data() const {
      return reinterpret_cast<const std::atomic<uint64_t>*>(this + 1);
    }
  };
  static_assert(sizeof(RowBuffer) % alignof(std::atomic<uint64_t>) == 0);

  // Copies `row` into the buffer (a larger one first if it does not fit). Caller holds
  // the lock, so readers that copy any of these words retry.
  void StoreRow(std::string_view row) {
    size_t words = (row.size() + 7) / 8;
    RowBuffer* buffer = buffer_.load(std::memory_order_relaxed);
    bool grow = buffer == nullptr || buffer->words < words;
    if (grow) {
      void* memory = ::operator new(sizeof(RowBuffer) + words * sizeof(uint64_t));
      buffer = new (memory) RowBuffer{words, buffer};
      for (size_t i = 0; i < words; ++i) {
        new (&buffer->data()[i]) std::atomic<uint64_t>(0);
      }
    }
    std::atomic<uint64_t>* out = buffer->data();
    for (size_t i = 0; i < words; ++i) {
      uint64_t word = 0;
      std::memcpy(&word, row.data() + i * 8, std::min<size_t>(8, row.size() - i * 8));
      out[i].store(word, std::memory_order_release);
    }
    if (grow) {
      buffer_.store(buffer, std::memory_order_release);
    }
    size_.store(row.size(), std::memory_order_release);
  }

  std::atomic<uint64_t> tid_;
  std::atomic<size_t> size_{0};              // written under the TID lock
  std::atomic<RowBuffer*> buffer_{nullptr};  // grows under the TID lock
};

}  // namespace zygos

#endif  // ZYGOS_DB_RECORD_H_
