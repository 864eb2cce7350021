// Optimistic concurrency control transaction, following Silo's commit protocol
// (Tu et al., SOSP'13 §4):
//
//   execution   — reads record versions optimistically (TID-validated copies of the
//                 row, see Record) into a read set; writes are buffered in a write set
//                 keyed by record, each entry owning its row bytes: every
//                 Write/Insert/Delete resolves its Record* when it is buffered (an
//                 absent key gets a fresh absent record, as an insert does), so
//                 read-own-writes and commit match entries by pointer, one entry per
//                 record; range scans additionally capture a key fingerprint for
//                 phantom checks.
//   commit (1)  — lock the write set in a global order (record address), spin locks are
//                 deadlock-free under the ordering;
//   commit (2)  — serialization point: read the global epoch; validate that every read
//                 record's TID is unchanged (and not locked by others) and that every
//                 scanned key range still fingerprints identically and has had no key
//                 come and go since the scan (no phantoms, see ValidateScan);
//   commit (3)  — pick the commit TID (greater than everything observed, the thread's
//                 previous TID, and within the current epoch), install the new values,
//                 and release the locks.
//
// Lock discipline: no index lock is held across a record read, a record lock or a
// scan callback (OrderedIndex::Scan runs callbacks with no lock held), and every lock
// on this path spins rather than sleeps, so two workers sharing one Database never
// put each other to sleep. Record locks are taken only in phase 1, in address order;
// a committer holding them may still take an index lock (scan validation, and the
// structural erase in phase 3), never the reverse.
//
// Aborts release locks and leave claimed-but-absent records in the index (harmless,
// equivalent to Silo's pre-GC state; the paper benchmarks with GC disabled).
// Contract: one Txn per worker thread at a time; a Txn is not thread-safe but
// different threads' transactions may run concurrently against the same Database.
// Abort/commit leaves no locks held; TIDs embed the serialization epoch.
#ifndef ZYGOS_DB_TXN_H_
#define ZYGOS_DB_TXN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/db/database.h"
#include "src/db/record.h"

namespace zygos {

enum class TxnStatus {
  kCommitted,
  kAborted,    // validation or write-write conflict; caller should retry
  kDuplicate,  // insert hit an existing live key; caller decides (TPC-C treats as error)
};

class Transaction {
 public:
  explicit Transaction(Database& db) : db_(db) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  // Copies the committed row of `key` (applying this transaction's own pending writes)
  // into `dst`, at most `capacity` bytes, and returns the row's full length. Returns
  // nullopt if the key is missing or logically deleted. Records the observed version
  // for validation even on misses that found an absent record. Allocates nothing once
  // the read set has grown to the transaction's size.
  std::optional<size_t> ReadInto(TableId table, std::string_view key, void* dst,
                                 size_t capacity);

  // ReadInto a trivially copyable row struct: bytes past the stored row keep `*row`'s
  // values. False iff the key is missing or deleted.
  template <typename Row>
  bool ReadRow(TableId table, std::string_view key, Row* row) {
    static_assert(std::is_trivially_copyable_v<Row>);
    return ReadInto(table, key, row, sizeof(Row)).has_value();
  }

  // ReadInto a string sized to the row (tests and ad-hoc callers).
  std::optional<std::string> Read(TableId table, std::string_view key);

  // Buffers an update. The key should exist (Read/Scan normally precedes it); writing a
  // missing key places an absent record now and installs it as an insert at commit.
  void Write(TableId table, std::string_view key, std::string value);

  // Inserts a new key. Returns false (and poisons the transaction into kDuplicate) if
  // the key already exists live.
  bool Insert(TableId table, std::string_view key, std::string value);

  // Logically deletes `key` (absent bit install at commit). With `erase` set, the key
  // is additionally unlinked from the index after the commit installs (Masstree-style
  // structural delete; see OrderedIndex::Erase for the semantics caveat — only use for
  // keys that are never blind-point-read again, like TPC-C NEW-ORDER rows).
  void Delete(TableId table, std::string key, bool erase = false);

  // Ordered scan of lo..hi (inclusive, descending optional), visiting at most `limit`
  // visible rows (0 = unlimited). `fn` returns false to stop early. Rows reflect this
  // transaction's own pending writes; `value` is one buffer the scan reuses for every
  // row, valid only during the call. The visited range is fingerprinted for phantom
  // validation at commit. `fn` runs with no index lock held, so it may Read, Write,
  // Insert, Delete or Scan on this transaction, the scanned table included.
  void Scan(TableId table, std::string_view lo, std::string_view hi, bool descending,
            uint64_t limit,
            const std::function<bool(const std::string& key, const std::string& value)>& fn);

  // Runs the commit protocol. `last_tid` is the calling thread's most recent commit TID
  // (in/out — threads own one, see TxnExecutor). After kCommitted, committed_tid() is
  // valid. After any result the sets are empty and the object can run the next
  // transaction (TxnExecutor reuses one, keeping the sets' capacity).
  TxnStatus Commit(uint64_t* last_tid);

  // Discards all buffered state (user abort / rollback). No locks are held outside
  // Commit, so this only clears the sets (keeping their capacity).
  void Abort();

  uint64_t committed_tid() const { return committed_tid_; }

  // Introspection for tests.
  size_t ReadSetSize() const { return reads_.size(); }
  size_t WriteSetSize() const { return writes_.size(); }
  size_t ScanSetSize() const { return scans_.size(); }

 private:
  struct ReadEntry {
    Record* record = nullptr;
    uint64_t observed_tid = 0;
  };
  struct WriteEntry {
    Record* record = nullptr;  // resolved when the write is buffered
    std::string value;         // the row to install (empty for a delete)
    bool deleted = false;
    bool erase_after = false;  // structural unlink after install (deletes only)
    TableId table = 0;         // table and key are kept only for erase_after
    std::string key;
  };
  struct ScanEntry {
    TableId table = 0;
    std::string lo;
    std::string hi;  // effective upper bound (shrunk when a limit stopped the walk)
    bool descending = false;
    uint64_t fingerprint = 0;
    uint64_t count = 0;
    uint64_t erases = 0;  // the table's EraseCount() before the walk
  };

  WriteEntry* FindWrite(const Record* record);
  // The write entry for `record`, appended if the write set has none yet.
  WriteEntry& WriteFor(Record* record);
  void AddRead(Record* record, uint64_t observed_tid);
  bool LockedByUs(const Record* record) const;

  // Order-dependent hash of the visible keys in a range (phantom detection).
  static uint64_t HashKey(uint64_t h, std::string_view key);

  // Re-walks a scanned range and returns false if its visible-key fingerprint changed,
  // or if a key could have appeared in it and vanished again since the scan.
  bool ValidateScan(const ScanEntry& scan) const;
  bool InReadSet(const Record* record) const;

  Database& db_;
  std::vector<ReadEntry> reads_;
  std::vector<WriteEntry> writes_;
  std::vector<ScanEntry> scans_;
  std::vector<Record*> locked_;  // commit's write-set records, sorted by address
  uint64_t committed_tid_ = 0;
  bool poisoned_duplicate_ = false;
};

// Per-thread transaction runner: owns the thread's last-commit TID, the retry loop and
// one Transaction whose sets are reused across retries and transactions.
class TxnExecutor {
 public:
  explicit TxnExecutor(Database& db) : db_(db), txn_(db) {}

  // Runs `body` in an empty transaction, retrying on validation aborts until it commits
  // or `body` requests rollback by returning false (user abort, e.g. TPC-C's 1%
  // NewOrder rollback). Returns the final status: kCommitted, or kAborted for a user
  // abort, or kDuplicate if an insert failed.
  TxnStatus Run(const std::function<bool(Transaction&)>& body);

  uint64_t last_tid() const { return last_tid_; }
  uint64_t commits() const { return commits_; }
  uint64_t retries() const { return retries_; }
  uint64_t user_aborts() const { return user_aborts_; }

  Database& db() { return db_; }

 private:
  Database& db_;
  Transaction txn_;
  uint64_t last_tid_ = 0;
  uint64_t commits_ = 0;
  uint64_t retries_ = 0;
  uint64_t user_aborts_ = 0;
};

}  // namespace zygos

#endif  // ZYGOS_DB_TXN_H_
