// Optimistic concurrency control transaction, following Silo's commit protocol
// (Tu et al., SOSP'13 §4):
//
//   execution   — reads record versions optimistically (TID-validated copies of the
//                 row, see Record) into a read set; writes are buffered in a write set
//                 keyed by record, each entry owning its row bytes: every
//                 Write/Insert/Delete holds its Record* when it is buffered — the
//                 handle a ReadRow or Scan returned, with no second index walk, or one
//                 resolved from the key (an absent key gets a fresh absent record, as
//                 an insert does) — so read-own-writes and commit match entries by
//                 pointer, one entry per record, found through an open-addressed hash
//                 of the record address (no search of the write set); range scans
//                 additionally capture a fingerprint of the visible rows' record
//                 identities for phantom checks.
//   commit (1)  — lock the write set in a global order (record address), spin locks are
//                 deadlock-free under the ordering;
//   commit (2)  — serialization point: read the global epoch; validate that every read
//                 record's TID is unchanged (and not locked by others) and that every
//                 scanned range still fingerprints identically and has had no key
//                 come and go since the scan (no phantoms, see ValidateScan);
//   commit (3)  — pick the commit TID (greater than everything observed, the thread's
//                 previous TID, and within the current epoch), install the new values,
//                 and release the locks.
//
// A fingerprint over records is as strict as one over keys: while a key is linked it
// maps to one record for that record's whole life, and a key that is erased and
// inserted again gets a fresh record (the erase also moves the table's EraseCount).
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
// Abort/commit leaves no locks held; TIDs embed the serialization epoch. The sets,
// the write-set hash and the scan row buffers keep their capacity across
// transactions, so a warmed transaction allocates nothing of its own.
#ifndef ZYGOS_DB_TXN_H_
#define ZYGOS_DB_TXN_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/function_ref.h"
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
  // values. Returns the record read — a handle for Write(Record*, ...) — or nullptr
  // iff the key is missing or deleted.
  template <typename Row>
  Record* ReadRow(TableId table, std::string_view key, Row* row) {
    static_assert(std::is_trivially_copyable_v<Row>);
    size_t size = 0;
    return ReadRecord(table, key, row, sizeof(Row), &size);
  }

  // ReadInto a string sized to the row (tests and ad-hoc callers).
  std::optional<std::string> Read(TableId table, std::string_view key);

  // Buffers an update of `record`, a handle this transaction got from ReadRow or Scan:
  // no index walk. A record the transaction has not read is written blind.
  void Write(Record* record, std::string_view row);

  // Buffers an update by key: Write(record of `key`, row). The key should exist;
  // writing a missing key places an absent record now and installs it as an insert at
  // commit.
  void Write(TableId table, std::string_view key, std::string_view row) {
    Write(Resolve(table, key), row);
  }

  // Inserts a new key. Returns false (and poisons the transaction into kDuplicate) if
  // the key already exists live.
  bool Insert(TableId table, std::string_view key, std::string_view row);

  // Logically deletes `record`, a handle on `key` in `table` (absent bit install at
  // commit). With `erase` set, the key is additionally unlinked from the index after
  // the commit installs (Masstree-style structural delete; see OrderedIndex::Erase for
  // the semantics caveat — only use for keys that are never blind-point-read again,
  // like TPC-C NEW-ORDER rows).
  void Delete(Record* record, TableId table, std::string_view key, bool erase = false);

  // Delete by key: Delete(record of `key`, ...).
  void Delete(TableId table, std::string_view key, bool erase = false) {
    Delete(Resolve(table, key), table, key, erase);
  }

  // Ordered scan of lo..hi (inclusive, descending optional), visiting at most `limit`
  // visible rows (0 = unlimited). `fn` returns false to stop early. Rows reflect this
  // transaction's own pending writes; `value` is one buffer the transaction reuses for
  // every row of every scan at this nesting depth, valid only during the call, and
  // `record` is the row's handle for Write or Delete. The visited range is
  // fingerprinted for phantom validation at commit. `fn` runs with no index lock held,
  // so it may Read, Write, Insert, Delete or Scan on this transaction, the scanned
  // table included.
  void Scan(TableId table, std::string_view lo, std::string_view hi, bool descending,
            uint64_t limit,
            FunctionRef<bool(const std::string& key, const std::string& value,
                             Record* record)>
                fn);

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
  size_t WriteSetSize() const { return write_count_; }
  size_t ScanSetSize() const { return scan_count_; }

  // Slots of the write-set hash before its first growth; it doubles whenever it would
  // become more than half full.
  static constexpr size_t kInitialWriteSlots = 64;

 private:
  struct ReadEntry {
    Record* record = nullptr;
    uint64_t observed_tid = 0;
  };
  struct WriteEntry {
    Record* record = nullptr;  // held when the write is buffered
    std::string value;         // the row to install (empty for a delete)
    bool deleted = false;
    bool erase_after = false;  // structural unlink after install (deletes only)
    TableId table = 0;         // table and key are kept only for erase_after
    std::string key;
    size_t slot = 0;           // this entry's slot in write_slots_
  };
  // A slot of the write-set hash: open addressing, linear probing.
  struct WriteSlot {
    const Record* record = nullptr;  // nullptr: empty
    uint32_t entry = 0;              // index into writes_
  };
  struct ScanEntry {
    TableId table = 0;
    std::string lo;  // effective bounds (one shrunk when the walk stopped early)
    std::string hi;
    bool descending = false;
    uint64_t fingerprint = 0;
    uint64_t erases = 0;  // the table's EraseCount() before the walk
  };

  // ReadInto that also returns the record read (nullptr where ReadInto returns
  // nullopt) and stores the row's full length in `*size`.
  Record* ReadRecord(TableId table, std::string_view key, void* dst, size_t capacity,
                     size_t* size);

  // The record of a key that usually exists already: a shared-lock lookup, and the
  // exclusive insert walk only on a miss.
  Record* Resolve(TableId table, std::string_view key);

  // The live write and scan entries.
  std::span<WriteEntry> Writes() { return {writes_.data(), write_count_}; }
  std::span<const ScanEntry> Scans() const { return {scans_.data(), scan_count_}; }
  // The slot of `record` in write_slots_, or the empty slot where it would go.
  size_t SlotOf(const Record* record) const;
  const WriteEntry* FindWrite(const Record* record) const;
  // The write entry for `record`, appended if the write set has none yet. An appended
  // entry reuses a slot of an earlier transaction, buffers included.
  WriteEntry& WriteFor(Record* record);
  // Doubles write_slots_ and rehashes the live entries into it.
  void GrowWriteSlots();
  void AddRead(Record* record, uint64_t observed_tid);
  // Commit locks the whole write set before it validates, so during validation a
  // record is locked by this transaction iff it is in the write set.
  bool LockedByUs(const Record* record) const { return FindWrite(record) != nullptr; }

  // Re-walks a scanned range and returns false if its visible-row fingerprint changed,
  // or if a key could have appeared in it and vanished again since the scan.
  bool ValidateScan(const ScanEntry& scan) const;
  bool InReadSet(const Record* record) const;

  Database& db_;
  std::vector<ReadEntry> reads_;
  // Entries [0, write_count_) are this transaction's; the slots past them keep their
  // strings' capacity, so a warmed write set buffers rows without allocating.
  std::vector<WriteEntry> writes_;
  size_t write_count_ = 0;
  // Record -> write entry. Its size is 0 or a power of two at least twice
  // write_count_; only the live entries' slots are occupied, so clearing it costs
  // O(write_count_).
  std::vector<WriteSlot> write_slots_;
  // Entries [0, scan_count_) are this transaction's, reused as writes_ are.
  std::vector<ScanEntry> scans_;
  size_t scan_count_ = 0;
  // The row buffer Scan fills, one per nesting depth (a scan callback may scan); a
  // deque, so a deeper scan's buffer never moves a shallower one's.
  std::deque<std::string> scan_rows_;
  size_t scan_depth_ = 0;
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
  TxnStatus Run(FunctionRef<bool(Transaction&)> body);

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
