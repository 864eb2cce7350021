// Ordered in-memory index: the Masstree substitute.
//
// Silo stores records in Masstree, a trie of cache-friendly B+-trees with lock-free
// readers. This index is a single B+-tree guarded by a readers-writer spin lock
// (RwSpinlock, never a kernel sleep):
//
//   - lookups and scans take the lock shared — concurrent readers never block each other;
//   - structural inserts and erases take it exclusive (record *values* are versioned in
//     the Record itself, so updates never touch the index). An insert walks the tree
//     once, under the exclusive lock.
//
// Tree shape: every node holds up to kFanout entries, and keys (at most kMaxKeyBytes)
// are stored inline in the node, so a walk reads a few contiguous nodes instead of one
// heap node and one heap string per comparison. An inner node's separator i is a lower
// bound of child i+1's keys and a strict upper bound of child i's. Leaves are linked in
// both directions, which is the order scans walk. A full node splits in half. Nodes
// never merge; a leaf that Erase empties is unlinked from the chain and from its
// parent (an inner node left childless goes too), so every leaf except an empty root
// holds at least one key and a scan never crosses a run of empty leaves.
//
// The lock covers only the tree walk, never work on a record: Scan copies a bounded
// chunk of (key, Record*) pairs under the shared lock, releases it, and only then runs
// the callback. Two workers sharing one database therefore never wait on each other's
// record reads, record locks or callbacks through this lock.
//
// Keys are byte strings whose lexicographic order encodes the schema order (see
// tpcc_schema.h's big-endian key builders). Records live in blocks the index owns and
// never move or get freed while it lives (deletes are logical via the TID absent bit,
// and an erased record stays allocated in the graveyard — GC is disabled, as in the
// paper's Silo measurements), which is what lets a scan hand them out after unlocking.
// Contract: thread-safe; the lock is held only inside these methods. A scan is not a
// snapshot of the tree: keys inserted or erased between its chunks may or may not be
// visited. Serializability comes from the transaction layer's OCC — record TIDs plus
// the range fingerprint revalidated at commit — not from this lock. A reader that
// needs only committed rows (TPC-C's StockLevel) may also Get or Scan and copy each
// record with Record::StableRead, with no transaction.
#ifndef ZYGOS_DB_INDEX_H_
#define ZYGOS_DB_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/function_ref.h"
#include "src/concurrency/spinlock.h"
#include "src/db/record.h"

namespace zygos {

class OrderedIndex {
 public:
  // A scan's first chunk is small (limit-1 scans such as TPC-C's oldest-NEW-ORDER
  // lookup stop at their first visible row); later chunks double up to the maximum.
  static constexpr size_t kFirstScanChunk = 4;
  static constexpr size_t kMaxScanChunk = 64;
  // Entries per leaf and children per inner node.
  static constexpr size_t kFanout = 32;
  // Longest key the index stores (inline, with its length byte in a 48-byte slot).
  // TPC-C's longest key, CustomerNameKey, is 44 bytes.
  static constexpr size_t kMaxKeyBytes = 47;

  OrderedIndex() : root_(new Leaf) {}
  ~OrderedIndex() { FreeSubtree(root_); }
  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  // Returns the record for `key`, or nullptr. The record may be logically absent —
  // callers check the TID.
  Record* Get(std::string_view key) const {
    RwSpinlock::SharedGuard guard(lock_);
    const Leaf* leaf = FindLeaf(key);
    size_t i = leaf->LowerBound(key);
    return i < leaf->count && leaf->keys[i].view() == key ? leaf->records[i] : nullptr;
  }

  // Returns the record for `key`, inserting a fresh absent record if none exists.
  // `second` is true iff this call created the record. One walk, under the exclusive
  // lock: callers that expect the key to exist already should try Get first. Aborts on
  // a key longer than kMaxKeyBytes.
  std::pair<Record*, bool> GetOrInsert(std::string_view key) {
    if (key.size() > kMaxKeyBytes) {
      std::fprintf(stderr,
                   "zygos: OrderedIndex key of %zu bytes exceeds the %zu-byte limit\n",
                   key.size(), kMaxKeyBytes);
      std::abort();
    }
    RwSpinlock::Guard guard(lock_);
    Leaf* leaf = FindLeafRecordingPath(key);
    size_t i = leaf->LowerBound(key);
    if (i < leaf->count && leaf->keys[i].view() == key) {
      return {leaf->records[i], false};
    }
    Record* record = AllocateRecord();
    InsertIntoLeaf(leaf, i, key, record);
    key_count_++;
    return {record, true};
  }

  // Visits records with lo <= key <= hi in key order (descending if requested) until
  // `fn` returns false. Absent records are visited too — the transaction layer decides
  // visibility. The walk proceeds in chunks: each chunk's keys and record pointers are
  // copied under the shared lock, then `fn` runs on them with no lock held (it may
  // itself read, insert into or scan this index). The next chunk resumes strictly past
  // the last key handed out, so no key is visited twice.
  void Scan(std::string_view lo, std::string_view hi, bool descending,
            FunctionRef<bool(const std::string&, Record*)> fn) const {
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
          Cursor at = count == 0 ? First(lo, /*inclusive=*/true)
                                 : First(chunk.keys[count - 1], /*inclusive=*/false);
          count = 0;
          for (; !at.AtEnd() && at.key() <= hi && count < capacity; at.Next()) {
            chunk.Set(count++, at.key(), at.record());
          }
          exhausted = at.AtEnd() || at.key() > hi;
        } else {
          Cursor at = count == 0 ? Last(hi, /*inclusive=*/true)
                                 : Last(chunk.keys[count - 1], /*inclusive=*/false);
          count = 0;
          for (; !at.AtEnd() && at.key() >= lo && count < capacity; at.Prev()) {
            chunk.Set(count++, at.key(), at.record());
          }
          exhausted = at.AtEnd() || at.key() < lo;
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
    return key_count_;
  }

  // Structurally unlinks `key` from the tree, as Masstree's delete does, and marks the
  // record unlinked (TidWord::kUnlinkedBit). The record stays allocated in the
  // graveyard (never freed — the paper benchmarks with GC disabled), so pointers held
  // in concurrent read/write sets and scan chunks stay valid; the unlinked bit makes
  // any of them that were taken before the unlink fail validation, so a write can
  // never land on a record that is no longer in the index. The transaction layer calls
  // this while holding the record's lock, after validation and before the absent
  // install (Transaction::Commit).
  //
  // Semantics caveat (why this is opt-in, see Transaction::Delete): a *point read* of
  // an erased key that found no record cannot detect a later fresh insert of the same
  // key (the new key creates a new record). Range scans remain fully protected by their
  // fingerprints and the erase count. Callers must erase only keys that are never
  // blind-point-read again — e.g. TPC-C NEW-ORDER rows, whose o_id space is never
  // revisited.
  bool Erase(std::string_view key) {
    RwSpinlock::Guard guard(lock_);
    Leaf* leaf = FindLeafRecordingPath(key);
    size_t i = leaf->LowerBound(key);
    if (i == leaf->count || leaf->keys[i].view() != key) {
      return false;
    }
    leaf->records[i]->MarkUnlinked();
    leaf->RemoveAt(i);
    key_count_--;
    if (leaf->count == 0 && leaf != root_) {
      RemoveEmptyLeaf(leaf);
    }
    erases_.fetch_add(1, std::memory_order_release);
    return true;
  }

  // Number of Erase calls that unlinked a key, ever. A scan that records it before
  // walking and finds it unchanged after its validation walk knows no key of its
  // range can have appeared and been unlinked in between (see ValidateScan).
  uint64_t EraseCount() const { return erases_.load(std::memory_order_acquire); }

  // Tombstones awaiting the (disabled) garbage collector — every record Erase
  // unlinked; exposed for tests.
  size_t GraveyardSize() const { return static_cast<size_t>(EraseCount()); }

 private:
  struct Key {
    uint8_t size;
    char bytes[kMaxKeyBytes];

    std::string_view view() const { return {bytes, size}; }
    void Set(std::string_view key) {
      size = static_cast<uint8_t>(key.size());
      std::memcpy(bytes, key.data(), key.size());
    }
  };
  static_assert(sizeof(Key) == 48);

  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    const bool leaf;
    uint32_t count = 0;  // keys in a leaf, children in an inner node
  };

  struct Leaf : Node {
    Leaf() : Node(true) {}

    // First entry whose key is >= `key` (or count).
    size_t LowerBound(std::string_view key) const {
      size_t lo = 0;
      size_t hi = count;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (keys[mid].view() < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
    void RemoveAt(size_t i) {
      std::memmove(&keys[i], &keys[i + 1], (count - i - 1) * sizeof(Key));
      std::memmove(&records[i], &records[i + 1], (count - i - 1) * sizeof(Record*));
      count--;
    }

    Leaf* prev = nullptr;
    Leaf* next = nullptr;
    Key keys[kFanout];
    Record* records[kFanout];
  };

  struct Inner : Node {
    Inner() : Node(false) {}

    // The child whose range holds `key`: the number of separators <= key.
    size_t ChildFor(std::string_view key) const {
      size_t lo = 0;
      size_t hi = count - 1;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (keys[mid].view() <= key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }

    Key keys[kFanout - 1];  // count - 1 separators
    Node* children[kFanout];
  };

  // An entry position in the leaf chain; a null leaf is past either end.
  struct Cursor {
    const Leaf* leaf = nullptr;
    size_t index = 0;

    bool AtEnd() const { return leaf == nullptr; }
    std::string_view key() const { return leaf->keys[index].view(); }
    Record* record() const { return leaf->records[index]; }
    // Both steps rely on every linked leaf holding a key.
    void Next() {
      if (++index == leaf->count) {
        leaf = leaf->next;
        index = 0;
      }
    }
    void Prev() {
      if (index == 0) {
        leaf = leaf->prev;
        index = leaf == nullptr ? 0 : leaf->count - 1;
      } else {
        index--;
      }
    }
  };

  struct PathStep {
    Inner* node;
    size_t child;
  };

  const Leaf* FindLeaf(std::string_view key) const {
    const Node* node = root_;
    while (!node->leaf) {
      const auto* inner = static_cast<const Inner*>(node);
      node = inner->children[inner->ChildFor(key)];
    }
    return static_cast<const Leaf*>(node);
  }

  // FindLeaf for a writer: records the inner nodes walked in `path_`.
  Leaf* FindLeafRecordingPath(std::string_view key) {
    path_.clear();
    Node* node = root_;
    while (!node->leaf) {
      auto* inner = static_cast<Inner*>(node);
      size_t child = inner->ChildFor(key);
      path_.push_back(PathStep{inner, child});
      node = inner->children[child];
    }
    return static_cast<Leaf*>(node);
  }

  // The first entry >= key (> key unless `inclusive`). The leaf FindLeaf picks holds
  // it unless all its keys are smaller; then every key of the next leaf is at least
  // the separator above `key`, so its first entry is the answer.
  Cursor First(std::string_view key, bool inclusive) const {
    const Leaf* leaf = FindLeaf(key);
    size_t i = leaf->LowerBound(key);
    if (!inclusive && i < leaf->count && leaf->keys[i].view() == key) {
      i++;
    }
    if (i == leaf->count) {
      return Cursor{leaf->next, 0};
    }
    return Cursor{leaf, i};
  }

  // The last entry <= key (< key unless `inclusive`), symmetrically: every key of the
  // previous leaf is below the separator at or below `key`.
  Cursor Last(std::string_view key, bool inclusive) const {
    const Leaf* leaf = FindLeaf(key);
    size_t i = leaf->LowerBound(key);
    if (inclusive && i < leaf->count && leaf->keys[i].view() == key) {
      i++;
    }
    Cursor at{leaf, i};
    at.Prev();
    return at;
  }

  // Inserts (key, record) at position `i` of `leaf`, splitting it first if it is full.
  // `path_` holds the walk that reached `leaf`.
  void InsertIntoLeaf(Leaf* leaf, size_t i, std::string_view key, Record* record) {
    if (leaf->count < kFanout) {
      PlaceInLeaf(leaf, i, key, record);
      return;
    }
    auto* right = new Leaf;
    constexpr size_t keep = kFanout / 2;
    right->count = static_cast<uint32_t>(kFanout - keep);
    std::memcpy(&right->keys[0], &leaf->keys[keep], right->count * sizeof(Key));
    std::memcpy(&right->records[0], &leaf->records[keep], right->count * sizeof(Record*));
    leaf->count = static_cast<uint32_t>(keep);
    right->prev = leaf;
    right->next = leaf->next;
    if (leaf->next != nullptr) {
      leaf->next->prev = right;
    }
    leaf->next = right;
    if (i <= keep) {
      PlaceInLeaf(leaf, i, key, record);
    } else {
      PlaceInLeaf(right, i - keep, key, record);
    }
    InsertIntoParent(path_.size(), leaf, right->keys[0], right);
  }

  static void PlaceInLeaf(Leaf* leaf, size_t i, std::string_view key, Record* record) {
    std::memmove(&leaf->keys[i + 1], &leaf->keys[i], (leaf->count - i) * sizeof(Key));
    std::memmove(&leaf->records[i + 1], &leaf->records[i],
                 (leaf->count - i) * sizeof(Record*));
    leaf->keys[i].Set(key);
    leaf->records[i] = record;
    leaf->count++;
  }

  // Links `right`, split off `left` with lower bound `separator`, into the parent at
  // path_[depth - 1] (a new root when depth is 0), splitting upwards as needed.
  void InsertIntoParent(size_t depth, Node* left, const Key& separator, Node* right) {
    if (depth == 0) {
      auto* root = new Inner;
      root->children[0] = left;
      root->children[1] = right;
      root->keys[0] = separator;
      root->count = 2;
      root_ = root;
      return;
    }
    Inner* parent = path_[depth - 1].node;
    size_t at = path_[depth - 1].child + 1;  // `right`'s child position
    if (parent->count < kFanout) {
      std::memmove(&parent->children[at + 1], &parent->children[at],
                   (parent->count - at) * sizeof(Node*));
      std::memmove(&parent->keys[at], &parent->keys[at - 1],
                   (parent->count - at) * sizeof(Key));
      parent->children[at] = right;
      parent->keys[at - 1] = separator;
      parent->count++;
      return;
    }
    // Full: lay the kFanout + 1 children and their separators out in order, then
    // deal them to `parent` and a new right sibling; the separator between the two
    // halves moves up.
    Node* children[kFanout + 1];
    Key keys[kFanout];
    std::memcpy(children, parent->children, at * sizeof(Node*));
    children[at] = right;
    std::memcpy(children + at + 1, parent->children + at, (kFanout - at) * sizeof(Node*));
    std::memcpy(keys, parent->keys, (at - 1) * sizeof(Key));
    keys[at - 1] = separator;
    std::memcpy(keys + at, parent->keys + at - 1, (kFanout - at) * sizeof(Key));

    constexpr size_t keep = (kFanout + 1) / 2;
    auto* sibling = new Inner;
    parent->count = static_cast<uint32_t>(keep);
    std::memcpy(parent->children, children, keep * sizeof(Node*));
    std::memcpy(parent->keys, keys, (keep - 1) * sizeof(Key));
    sibling->count = static_cast<uint32_t>(kFanout + 1 - keep);
    std::memcpy(sibling->children, children + keep, sibling->count * sizeof(Node*));
    std::memcpy(sibling->keys, keys + keep, (sibling->count - 1) * sizeof(Key));
    InsertIntoParent(depth - 1, parent, keys[keep - 1], sibling);
  }

  // Unlinks an emptied non-root leaf from the chain and from its parent, removes
  // inner nodes left without children, and shortens the tree while its root has a
  // single child. `path_` holds the walk that reached `leaf`.
  void RemoveEmptyLeaf(Leaf* leaf) {
    if (leaf->prev != nullptr) {
      leaf->prev->next = leaf->next;
    }
    if (leaf->next != nullptr) {
      leaf->next->prev = leaf->prev;
    }
    delete leaf;
    for (size_t depth = path_.size(); depth > 0; --depth) {
      Inner* parent = path_[depth - 1].node;
      size_t child = path_[depth - 1].child;
      // Drop the child and its lower-bound separator (the first child's upper bound
      // when it is the first): the neighbour that absorbs the range holds none of it.
      size_t separator = child == 0 ? 0 : child - 1;
      std::memmove(&parent->children[child], &parent->children[child + 1],
                   (parent->count - child - 1) * sizeof(Node*));
      if (parent->count > 1) {
        std::memmove(&parent->keys[separator], &parent->keys[separator + 1],
                     (parent->count - separator - 2) * sizeof(Key));
      }
      parent->count--;
      if (parent->count > 0) {
        break;
      }
      delete parent;
    }
    while (!root_->leaf && root_->count == 1) {
      auto* old = static_cast<Inner*>(root_);
      root_ = old->children[0];
      delete old;
    }
  }

  // Records come from blocks that are never freed or moved while the index lives.
  Record* AllocateRecord() {
    if (records_.empty() || block_used_ == kRecordBlock) {
      records_.push_back(std::make_unique<Record[]>(kRecordBlock));
      block_used_ = 0;
    }
    return &records_.back()[block_used_++];
  }

  static void FreeSubtree(Node* node) {
    if (node->leaf) {
      delete static_cast<Leaf*>(node);
      return;
    }
    auto* inner = static_cast<Inner*>(node);
    for (size_t i = 0; i < inner->count; ++i) {
      FreeSubtree(inner->children[i]);
    }
    delete inner;
  }

  // Per-thread chunk buffers, reused across scans so a warmed-up scan allocates
  // nothing. One buffer per nesting level: a scan callback may start another scan.
  struct ScanScratch {
    std::vector<std::string> keys;
    std::vector<Record*> records;

    void Set(size_t i, std::string_view key, Record* record) {
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

  static constexpr size_t kRecordBlock = 256;

  mutable RwSpinlock lock_;
  Node* root_;  // a leaf, or an inner node with at least two children
  size_t key_count_ = 0;
  std::vector<PathStep> path_;  // the last writer walk; used under the exclusive lock
  std::vector<std::unique_ptr<Record[]>> records_;
  size_t block_used_ = 0;  // records handed out of records_.back()
  std::atomic<uint64_t> erases_{0};
};

}  // namespace zygos

#endif  // ZYGOS_DB_INDEX_H_
