#include "src/kvstore/hash_table.h"

#include <atomic>
#include <bit>
#include <new>

namespace zygos {

namespace {

void CopyBytes(char* dst, std::string_view bytes) {
  if (!bytes.empty()) {
    std::memcpy(dst, bytes.data(), bytes.size());
  }
}

}  // namespace

HashTable::HashTable(size_t bucket_count, size_t stripes)
    : bucket_mask_(std::bit_ceil(bucket_count) - 1),
      buckets_(bucket_mask_ + 1),
      stripe_mask_(std::bit_ceil(stripes) - 1),
      locks_(stripe_mask_ + 1) {}

HashTable::~HashTable() {
  for (Bucket& head : buckets_) {
    Bucket* overflow = head.next;
    for (Bucket* bucket = &head; bucket != nullptr; bucket = bucket->next) {
      for (Entry* entry : bucket->entries) {
        if (entry != nullptr) {
          FreeEntry(entry);
        }
      }
    }
    while (overflow != nullptr) {
      delete std::exchange(overflow, overflow->next);
    }
  }
}

HashTable::Entry* HashTable::NewEntry(std::string_view key, std::string_view value) {
  auto* entry =
      static_cast<Entry*>(::operator new(sizeof(Entry) + key.size() + value.size()));
  entry->key_size = static_cast<uint32_t>(key.size());
  entry->value_size = static_cast<uint32_t>(value.size());
  entry->capacity = static_cast<uint32_t>(value.size());
  CopyBytes(entry->bytes(), key);
  CopyBytes(entry->bytes() + key.size(), value);
  return entry;
}

void HashTable::FreeEntry(Entry* entry) { ::operator delete(entry); }

bool HashTable::Set(std::string_view key, std::string_view value) {
  const uint64_t hash = Hash(key);
  Spinlock::Guard guard(LockFor(hash));
  Bucket* head = &buckets_[hash & bucket_mask_];
  if (auto [bucket, slot] = Find(head, hash, key); bucket != nullptr) {
    Entry*& entry = bucket->entries[slot];
    if (value.size() <= entry->capacity) {
      CopyBytes(entry->bytes() + entry->key_size, value);
      entry->value_size = static_cast<uint32_t>(value.size());
    } else {
      FreeEntry(std::exchange(entry, NewEntry(key, value)));
    }
    return false;
  }
  // A new key takes the chain's first empty slot, chaining on an overflow bucket
  // when every slot is taken.
  Bucket* bucket = head;
  size_t slot = 0;
  while (bucket->entries[slot] != nullptr) {
    if (++slot == kSlots) {
      if (bucket->next == nullptr) {
        bucket->next = new Bucket();
      }
      bucket = bucket->next;
      slot = 0;
    }
  }
  bucket->tags[slot] = Tag(hash);
  bucket->entries[slot] = NewEntry(key, value);
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<std::string> HashTable::Get(std::string_view key) const {
  std::optional<std::string> result;
  Visit(key, [&result](std::string_view value) { result = std::string(value); });
  return result;
}

bool HashTable::Delete(std::string_view key) {
  const uint64_t hash = Hash(key);
  Spinlock::Guard guard(LockFor(hash));
  auto [bucket, slot] = Find(&buckets_[hash & bucket_mask_], hash, key);
  if (bucket == nullptr) {
    return false;
  }
  FreeEntry(std::exchange(bucket->entries[slot], nullptr));
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

size_t HashTable::Size() const { return size_.load(std::memory_order_relaxed); }

}  // namespace zygos
