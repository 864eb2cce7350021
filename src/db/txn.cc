#include "src/db/txn.h"

#include <algorithm>
#include <cstring>

#include "src/db/tid.h"

namespace zygos {

namespace {

// 2^64 over the golden ratio: Fibonacci hashing's multiplier, which spreads record
// addresses a few words apart over the high bits.
constexpr uint64_t kGoldenMultiplier = 0x9e3779b97f4a7c15ull;

// The scan fingerprint's starting value and its fold: one multiply per visible row,
// order-dependent, over the row's record identity.
constexpr uint64_t kFingerprintSeed = 14695981039346656037ull;

uint64_t FoldRecord(uint64_t fingerprint, const Record* record) {
  return (fingerprint ^ reinterpret_cast<uintptr_t>(record)) * kGoldenMultiplier;
}

}  // namespace

Record* Transaction::Resolve(TableId table, std::string_view key) {
  OrderedIndex& index = db_.table(table);
  if (Record* record = index.Get(key)) {
    return record;
  }
  return index.GetOrInsert(key).first;
}

size_t Transaction::SlotOf(const Record* record) const {
  const size_t mask = write_slots_.size() - 1;
  size_t at =
      static_cast<size_t>((reinterpret_cast<uintptr_t>(record) * kGoldenMultiplier) >> 32) &
      mask;
  while (write_slots_[at].record != nullptr && write_slots_[at].record != record) {
    at = (at + 1) & mask;
  }
  return at;
}

const Transaction::WriteEntry* Transaction::FindWrite(const Record* record) const {
  if (write_count_ == 0) {
    return nullptr;
  }
  const WriteSlot& slot = write_slots_[SlotOf(record)];
  return slot.record == nullptr ? nullptr : &writes_[slot.entry];
}

Transaction::WriteEntry& Transaction::WriteFor(Record* record) {
  if ((write_count_ + 1) * 2 > write_slots_.size()) {
    GrowWriteSlots();
  }
  const size_t at = SlotOf(record);
  if (write_slots_[at].record != nullptr) {
    return writes_[write_slots_[at].entry];
  }
  if (write_count_ == writes_.size()) {
    writes_.emplace_back();
  }
  write_slots_[at] = WriteSlot{record, static_cast<uint32_t>(write_count_)};
  WriteEntry& write = writes_[write_count_++];
  write.record = record;
  write.slot = at;
  return write;
}

void Transaction::GrowWriteSlots() {
  write_slots_.assign(std::max(kInitialWriteSlots, write_slots_.size() * 2), WriteSlot{});
  for (size_t i = 0; i < write_count_; ++i) {
    WriteEntry& write = writes_[i];
    write.slot = SlotOf(write.record);
    write_slots_[write.slot] = WriteSlot{write.record, static_cast<uint32_t>(i)};
  }
}

void Transaction::AddRead(Record* record, uint64_t observed_tid) {
  reads_.push_back(ReadEntry{record, observed_tid});
}

bool Transaction::InReadSet(const Record* record) const {
  return std::any_of(reads_.begin(), reads_.end(),
                     [record](const ReadEntry& read) { return read.record == record; });
}

Record* Transaction::ReadRecord(TableId table, std::string_view key, void* dst,
                                size_t capacity, size_t* size) {
  Record* record = db_.table(table).Get(key);
  if (record == nullptr) {
    // Structurally missing keys cannot be version-validated; they are covered only by
    // scan fingerprints. TPC-C reads always target loaded keys, so this is a miss path
    // for genuinely unknown keys.
    return nullptr;
  }
  // Read-own-writes.
  if (const WriteEntry* write = FindWrite(record)) {
    if (write->deleted) {
      return nullptr;
    }
    size_t n = std::min(capacity, write->value.size());
    if (n > 0) {
      std::memcpy(dst, write->value.data(), n);
    }
    *size = write->value.size();
    return record;
  }
  Record::ReadResult snapshot = record->StableRead(dst, capacity);
  AddRead(record, snapshot.tid);
  if (TidWord::Absent(snapshot.tid)) {
    return nullptr;  // logically absent; the TID is validated so the miss is stable
  }
  *size = snapshot.size;
  return record;
}

std::optional<size_t> Transaction::ReadInto(TableId table, std::string_view key,
                                            void* dst, size_t capacity) {
  size_t size = 0;
  if (ReadRecord(table, key, dst, capacity, &size) == nullptr) {
    return std::nullopt;
  }
  return size;
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

void Transaction::Write(Record* record, std::string_view row) {
  WriteEntry& write = WriteFor(record);
  write.value.assign(row);
  write.deleted = false;
  write.erase_after = false;
}

bool Transaction::Insert(TableId table, std::string_view key, std::string_view row) {
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
  Write(record, row);
  return true;
}

void Transaction::Delete(Record* record, TableId table, std::string_view key,
                         bool erase) {
  WriteEntry& write = WriteFor(record);
  write.value.clear();
  write.deleted = true;
  write.erase_after = erase;
  if (erase) {
    write.table = table;
    write.key.assign(key);
  }
}

void Transaction::Scan(TableId table, std::string_view lo, std::string_view hi,
                       bool descending, uint64_t limit,
                       FunctionRef<bool(const std::string& key, const std::string& value,
                                        Record* record)>
                           fn) {
  // The entry is claimed before the walk, so a scan inside `fn` claims the next one.
  // That may move scans_, so this one is reached by index, not by reference.
  const size_t entry = scan_count_++;
  if (entry == scans_.size()) {
    scans_.emplace_back();
  }
  {
    ScanEntry& scan = scans_[entry];
    scan.table = table;
    scan.lo.assign(lo);
    scan.hi.assign(hi);
    scan.descending = descending;
    scan.erases = db_.table(table).EraseCount();
  }
  if (scan_depth_ == scan_rows_.size()) {
    scan_rows_.emplace_back();
  }
  std::string& row = scan_rows_[scan_depth_++];  // every row handed to `fn` is copied here
  uint64_t fingerprint = kFingerprintSeed;
  uint64_t visited = 0;

  db_.table(table).Scan(lo, hi, descending, [&](const std::string& key, Record* record) {
    uint64_t tid = record->StableRead(&row);
    AddRead(record, tid);
    bool visible = !TidWord::Absent(tid);
    // Fingerprint the *committed-visible* rows (own pending inserts stay absent until
    // commit, so validation recomputes the same set).
    if (visible) {
      fingerprint = FoldRecord(fingerprint, record);
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
    bool keep_going = fn(key, row, record);
    if (!keep_going || (limit != 0 && visited >= limit)) {
      // Shrink the validated range to what was actually observed: phantoms beyond the
      // stopping point cannot have affected this transaction.
      ScanEntry& scan = scans_[entry];
      (descending ? scan.lo : scan.hi).assign(key);
      return false;
    }
    return true;
  });
  scan_depth_--;
  scans_[entry].fingerprint = fingerprint;
}

bool Transaction::ValidateScan(const ScanEntry& scan) const {
  // The visible-row fingerprint alone is not monotonic: a key inserted behind the
  // scan cursor and deleted again before this walk restores it, although a read
  // validated earlier may have seen the insert (a counter of the range's keys, say).
  // Every key the scan visited is in the read set, whose TIDs only grow, so such a
  // key is one this scan never visited: it is caught as an absent record outside the
  // read set that was committed at some point (version != 0), or, if it was unlinked
  // too, by the table's erase count.
  const OrderedIndex& index = db_.table(scan.table);
  uint64_t fingerprint = kFingerprintSeed;
  bool conflict = false;
  index.Scan(scan.lo, scan.hi, scan.descending, [&](const std::string&, Record* record) {
    uint64_t tid = record->LoadTid();
    if (TidWord::Locked(tid) && !LockedByUs(record)) {
      conflict = true;  // another committer is mutating the range
      return false;
    }
    if (!TidWord::Absent(tid)) {
      fingerprint = FoldRecord(fingerprint, record);
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
  for (const auto& write : Writes()) {
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
    for (const ScanEntry& scan : Scans()) {
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

  for (auto& write : Writes()) {
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
  for (const WriteEntry& write : Writes()) {
    write_slots_[write.slot] = WriteSlot{};
  }
  write_count_ = 0;
  scan_count_ = 0;
  poisoned_duplicate_ = false;
}

TxnStatus TxnExecutor::Run(FunctionRef<bool(Transaction&)> body) {
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
