// Transaction-id (TID) word, following Silo's layout (Tu et al., SOSP'13 §4.2).
//
// Every record carries one 64-bit TID word combining version metadata and status bits:
//
//   bit  0       lock     — record is write-locked by a committing transaction
//   bit  1       absent   — record is logically deleted / not yet committed-inserted
//   bit  2       unlinked — record was structurally erased from its index (it lives on
//                in the graveyard, absent, and must never be written again)
//   bits 3..33   sequence — per-epoch counter, chosen at commit
//   bits 34..63  epoch    — global epoch number at commit time
//
// TIDs order commits: within an epoch the sequence grows; across epochs the epoch
// dominates. The status bits are masked out when TIDs are compared.
#ifndef ZYGOS_DB_TID_H_
#define ZYGOS_DB_TID_H_

#include <cstdint>

namespace zygos {

class TidWord {
 public:
  static constexpr uint64_t kLockBit = 1ull << 0;
  static constexpr uint64_t kAbsentBit = 1ull << 1;
  static constexpr uint64_t kUnlinkedBit = 1ull << 2;
  static constexpr int kSequenceShift = 3;
  static constexpr int kEpochShift = 34;
  static constexpr uint64_t kStatusMask = (1ull << kSequenceShift) - 1;
  static constexpr uint64_t kSequenceMask = ((1ull << kEpochShift) - 1) & ~kStatusMask;

  static bool Locked(uint64_t tid) { return (tid & kLockBit) != 0; }
  static bool Absent(uint64_t tid) { return (tid & kAbsentBit) != 0; }
  static bool Unlinked(uint64_t tid) { return (tid & kUnlinkedBit) != 0; }

  // The orderable portion (epoch + sequence), with status bits stripped.
  static uint64_t Version(uint64_t tid) { return tid & ~kStatusMask; }

  static uint64_t EpochOf(uint64_t tid) { return tid >> kEpochShift; }
  static uint64_t SequenceOf(uint64_t tid) {
    return (tid & kSequenceMask) >> kSequenceShift;
  }

  // Builds a committed-version TID (no status bits).
  static uint64_t Make(uint64_t epoch, uint64_t sequence) {
    return (epoch << kEpochShift) | (sequence << kSequenceShift);
  }

  // The smallest valid commit TID strictly greater than `version`, within `epoch`.
  // If `version` already belongs to `epoch` the sequence is bumped; otherwise the
  // new epoch restarts the sequence at 1.
  static uint64_t NextAfter(uint64_t version, uint64_t epoch) {
    version = Version(version);
    if (EpochOf(version) >= epoch) {
      return version + (1ull << kSequenceShift);
    }
    return Make(epoch, 1);
  }
};

}  // namespace zygos

#endif  // ZYGOS_DB_TID_H_
