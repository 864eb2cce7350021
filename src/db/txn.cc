#include "src/db/txn.h"

#include <algorithm>
#include <cstring>

#include "src/db/tid.h"

namespace zygos {

namespace {

// FNV-1a step used for scan fingerprints (order-dependent combination).
uint64_t Fnv1aMix(uint64_t h, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The record of a key that usually exists already: a shared-lock lookup, and the
// exclusive insert walk only on a miss.
Record* Resolve(OrderedIndex& index, std::string_view key) {
  if (Record* record = index.Get(key)) {
    return record;
  }
  return index.GetOrInsert(key).first;
}

}  // namespace

uint64_t Transaction::HashKey(uint64_t h, std::string_view key) {
  // Mix in the length first so ("ab","c") and ("a","bc") sequences differ.
  uint64_t len = key.size();
  h = Fnv1aMix(h, &len, sizeof(len));
  return Fnv1aMix(h, key.data(), key.size());
}

Transaction::WriteEntry* Transaction::FindWrite(const Record* record) {
  for (auto& write : writes_) {
    if (write.record == record) {
      return &write;
    }
  }
  return nullptr;
}

Transaction::WriteEntry& Transaction::WriteFor(Record* record) {
  if (WriteEntry* write = FindWrite(record)) {
    return *write;
  }
  writes_.push_back(WriteEntry{});
  writes_.back().record = record;
  return writes_.back();
}

void Transaction::AddRead(Record* record, uint64_t observed_tid) {
  reads_.push_back(ReadEntry{record, observed_tid});
}

bool Transaction::InReadSet(const Record* record) const {
  return std::any_of(reads_.begin(), reads_.end(),
                     [record](const ReadEntry& read) { return read.record == record; });
}

bool Transaction::LockedByUs(const Record* record) const {
  return std::binary_search(locked_.begin(), locked_.end(), record);
}

std::optional<size_t> Transaction::ReadInto(TableId table, std::string_view key,
                                            void* dst, size_t capacity) {
  Record* record = db_.table(table).Get(key);
  if (record == nullptr) {
    // Structurally missing keys cannot be version-validated; they are covered only by
    // scan fingerprints. TPC-C reads always target loaded keys, so this is a miss path
    // for genuinely unknown keys.
    return std::nullopt;
  }
  // Read-own-writes.
  if (const WriteEntry* write = FindWrite(record)) {
    if (write->deleted) {
      return std::nullopt;
    }
    size_t n = std::min(capacity, write->value.size());
    if (n > 0) {
      std::memcpy(dst, write->value.data(), n);
    }
    return write->value.size();
  }
  Record::ReadResult snapshot = record->StableRead(dst, capacity);
  AddRead(record, snapshot.tid);
  if (TidWord::Absent(snapshot.tid)) {
    return std::nullopt;  // logically absent; the TID is validated so the miss is stable
  }
  return snapshot.size;
}

std::optional<std::string> Transaction::Read(TableId table, std::string_view key) {
  std::string row;
  row.resize(row.capacity());  // the inline buffer: short rows take one read
  std::optional<size_t> size = ReadInto(table, key, row.data(), row.size());
  // A longer row is read again into a buffer of its size; both reads are validated.
  while (size.has_value() && *size > row.size()) {
    row.resize(*size);
    size = ReadInto(table, key, row.data(), row.size());
  }
  if (!size.has_value()) {
    return std::nullopt;
  }
  row.resize(*size);
  return row;
}

void Transaction::Write(TableId table, std::string_view key, std::string value) {
  WriteEntry& write = WriteFor(Resolve(db_.table(table), key));
  write.value = std::move(value);
  write.deleted = false;
  write.erase_after = false;
}

bool Transaction::Insert(TableId table, std::string_view key, std::string value) {
  // The key is usually fresh: straight to the insert walk, with no lookup first.
  auto [record, created] = db_.table(table).GetOrInsert(key);
  if (!created) {
    uint64_t tid = record->LoadTid();
    if (!TidWord::Absent(tid)) {
      poisoned_duplicate_ = true;
      return false;
    }
    // Reusing a dead/claimed slot: validate it is still absent at commit.
    AddRead(record, TidWord::Version(tid) | TidWord::kAbsentBit);
  }
  WriteEntry& write = WriteFor(record);
  write.value = std::move(value);
  write.deleted = false;
  write.erase_after = false;
  return true;
}

void Transaction::Delete(TableId table, std::string key, bool erase) {
  WriteEntry& write = WriteFor(Resolve(db_.table(table), key));
  write.value.clear();
  write.deleted = true;
  write.erase_after = erase;
  if (erase) {
    write.table = table;
    write.key = std::move(key);
  }
}

void Transaction::Scan(
    TableId table, std::string_view lo, std::string_view hi, bool descending,
    uint64_t limit,
    const std::function<bool(const std::string& key, const std::string& value)>& fn) {
  ScanEntry scan;
  scan.table = table;
  scan.lo = std::string(lo);
  scan.hi = std::string(hi);
  scan.descending = descending;
  scan.erases = db_.table(table).EraseCount();
  uint64_t fingerprint = 14695981039346656037ull;
  uint64_t visited = 0;
  std::string effective_bound;
  bool stopped_early = false;

  std::string row;  // every row handed to `fn` is copied here
  db_.table(table).Scan(lo, hi, descending, [&](const std::string& key, Record* record) {
    uint64_t tid = record->StableRead(&row);
    AddRead(record, tid);
    bool visible = !TidWord::Absent(tid);
    // Fingerprint the *committed-visible* key set (own pending inserts stay absent
    // until commit, so validation recomputes the same set).
    if (visible) {
      fingerprint = HashKey(fingerprint, key);
    }
    // Row visibility for the callback applies own writes on top. An own row is copied:
    // `fn` may overwrite this very entry.
    if (const WriteEntry* own = FindWrite(record)) {
      visible = !own->deleted;
      row = own->value;
    }
    if (!visible) {
      return true;  // keep walking
    }
    visited++;
    bool keep_going = fn(key, row);
    if (!keep_going || (limit != 0 && visited >= limit)) {
      stopped_early = true;
      effective_bound = key;
      return false;
    }
    return true;
  });

  if (stopped_early) {
    // Shrink the validated range to what was actually observed: phantoms beyond the
    // stopping point cannot have affected this transaction.
    if (descending) {
      scan.lo = effective_bound;
    } else {
      scan.hi = effective_bound;
    }
  }
  scan.fingerprint = fingerprint;
  scan.count = visited;
  scans_.push_back(std::move(scan));
}

bool Transaction::ValidateScan(const ScanEntry& scan) const {
  // The visible-key fingerprint alone is not monotonic: a key inserted behind the
  // scan cursor and deleted again before this walk restores it, although a read
  // validated earlier may have seen the insert (a counter of the range's keys, say).
  // Every key the scan visited is in the read set, whose TIDs only grow, so such a
  // key is one this scan never visited: it is caught as an absent record outside the
  // read set that was committed at some point (version != 0), or, if it was unlinked
  // too, by the table's erase count.
  const OrderedIndex& index = db_.table(scan.table);
  uint64_t fingerprint = 14695981039346656037ull;
  bool conflict = false;
  index.Scan(scan.lo, scan.hi, scan.descending, [&](const std::string& key, Record* record) {
    uint64_t tid = record->LoadTid();
    if (TidWord::Locked(tid) && !LockedByUs(record)) {
      conflict = true;  // another committer is mutating the range
      return false;
    }
    if (!TidWord::Absent(tid)) {
      fingerprint = HashKey(fingerprint, key);
    } else if (TidWord::Version(tid) != 0 && !InReadSet(record)) {
      conflict = true;  // committed and deleted since the scan passed its key
      return false;
    }
    return true;
  });
  return !conflict && fingerprint == scan.fingerprint && index.EraseCount() == scan.erases;
}

TxnStatus Transaction::Commit(uint64_t* last_tid) {
  if (poisoned_duplicate_) {
    Abort();
    return TxnStatus::kDuplicate;
  }
  // Phase 1: lock the write set in global (record-address) order. Entries are unique
  // per record, so the sorted vector has no duplicates.
  locked_.clear();
  for (const auto& write : writes_) {
    locked_.push_back(write.record);
  }
  std::sort(locked_.begin(), locked_.end());
  for (Record* record : locked_) {
    record->Lock();
  }

  // Phase 2: serialization point + validation. A write-set record erased from its
  // index since it was resolved must not be written (the write would be lost in the
  // graveyard); re-execution resolves the key afresh.
  uint64_t epoch = db_.epochs().Current();
  bool valid = true;
  for (Record* record : locked_) {
    if (TidWord::Unlinked(record->LoadTid())) {
      valid = false;
      break;
    }
  }
  for (size_t i = 0; valid && i < reads_.size(); ++i) {
    const ReadEntry& read = reads_[i];
    uint64_t current = read.record->LoadTid();
    if (TidWord::Locked(current) && !LockedByUs(read.record)) {
      valid = false;  // locked by a concurrent committer
      break;
    }
    // Both version and absent-bit must match what execution observed.
    uint64_t current_cmp = current & ~TidWord::kLockBit;
    uint64_t observed_cmp = read.observed_tid & ~TidWord::kLockBit;
    if (current_cmp != observed_cmp) {
      valid = false;
      break;
    }
  }
  if (valid) {
    for (const auto& scan : scans_) {
      if (!ValidateScan(scan)) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    for (Record* record : locked_) {
      record->Unlock();
    }
    Abort();
    return TxnStatus::kAborted;
  }

  // Phase 3: pick the commit TID and install.
  uint64_t max_seen = *last_tid;
  for (const auto& read : reads_) {
    max_seen = std::max(max_seen, TidWord::Version(read.observed_tid));
  }
  for (Record* record : locked_) {
    max_seen = std::max(max_seen, TidWord::Version(record->LoadTid()));
  }
  uint64_t commit_tid = TidWord::NextAfter(max_seen, epoch);
  *last_tid = commit_tid;
  committed_tid_ = commit_tid;

  for (auto& write : writes_) {
    // A structural unlink happens under the record lock, so no other committer can
    // revive the record in between (no index lock holder ever waits on a record lock,
    // so taking the index lock here cannot deadlock).
    if (write.erase_after) {
      db_.table(write.table).Erase(write.key);
    }
    write.record->Install(commit_tid, write.value, write.deleted);
  }
  Abort();  // clears the sets for the next transaction
  return TxnStatus::kCommitted;
}

void Transaction::Abort() {
  reads_.clear();
  writes_.clear();
  scans_.clear();
  poisoned_duplicate_ = false;
}

TxnStatus TxnExecutor::Run(const std::function<bool(Transaction&)>& body) {
  while (true) {
    if (!body(txn_)) {
      txn_.Abort();
      user_aborts_++;
      return TxnStatus::kAborted;
    }
    TxnStatus status = txn_.Commit(&last_tid_);
    if (status == TxnStatus::kCommitted) {
      commits_++;
      return status;
    }
    if (status == TxnStatus::kDuplicate) {
      return status;
    }
    retries_++;  // validation conflict: re-execute from scratch
  }
}

}  // namespace zygos
