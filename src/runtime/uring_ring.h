// Minimal io_uring shim: mmap'd SQ/CQ rings over the raw syscalls, no liburing.
//
// The container bakes in the uapi header (<linux/io_uring.h>) but not liburing, so
// this vendors the ring bookkeeping the library would provide: setup + the three
// mmaps (honoring IORING_FEAT_SINGLE_MMAP), SQE acquisition against the kernel's
// consumer head, a submit path that counts every io_uring_enter (the
// syscalls-per-request metric the benches report), CQE peek/advance for the
// single-consumer home core, and an any-thread CQ occupancy probe behind
// ApproxNonEmpty (the idle loop's peeks).
//
// Deliberate simplifications vs liburing:
//   - No kernel SQ poller thread, no provided-buffer rings and no standing
//     (many-completion) receives: the transport arms one plain RECV per connection
//     and submits with io_uring_enter. Both alternatives were measured on the served
//     benchmark and removed (docs/ARCHITECTURE.md, "Deleted rungs").
//   - No IORING_SETUP_DEFER_TASKRUN/SINGLE_ISSUER: deferred task running makes CQEs
//     invisible to *other* threads until the issuer enters the kernel, which would
//     break the Transport contract's any-thread ApproxNonEmpty — the same trade the
//     epoll backend makes by using level-triggered readiness as its peek. The live
//     runtime peeks another worker's ring when that worker is busy in a handler,
//     to decide whether to ring its doorbell.
//   - The SQ index array is identity-mapped once at Init; SQEs are used in ring
//     order, which is all a batch-submit transport needs.
//
// Contract: Init/Destroy and all SQ/CQ operations are single-caller (the owning
// worker); CqReady alone is safe from any thread (it reads the shared mmap with
// atomic loads). SubmitAndWait uses IORING_ENTER_EXT_ARG timeouts when the kernel
// offers them (IORING_FEAT_EXT_ARG) and degrades to a bounded nonblocking poll loop
// otherwise. UringAvailable() probes io_uring_setup once per process — sandboxes and
// seccomp policies commonly deny it, and every uring code path must degrade to a
// clear skip/error, never a crash.
#ifndef ZYGOS_RUNTIME_URING_RING_H_
#define ZYGOS_RUNTIME_URING_RING_H_

#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/common/time_units.h"

namespace zygos {

inline int SysUringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

inline int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                         unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg, argsz));
}

// Process-wide capability probe, evaluated once: can this process create a ring at
// all? Seccomp/sandbox denials surface as EPERM/ENOSYS here, not at first I/O.
struct UringProbe {
  bool available = false;
  std::string reason;   // human-readable denial cause when !available
  uint32_t features = 0;
  // No longer probed, always false; perfbench/bench.cc is the only reader.
  bool buf_ring = false;
  bool multishot = false;
  bool send_zc = false;
  bool sqpoll = false;
};

inline const UringProbe& ProbeUring() {
  static const UringProbe probe = [] {
    UringProbe p;
    io_uring_params params{};
    int fd = SysUringSetup(4, &params);
    if (fd < 0) {
      p.reason = std::string("io_uring_setup: ") + std::strerror(errno);
      return p;
    }
    ::close(fd);
    // The transport's SENDMSG ops point at per-batch msghdr/iovec scratch: the kernel
    // must have copied it by the time the SQE is consumed.
    if ((params.features & IORING_FEAT_SUBMIT_STABLE) == 0) {
      p.reason = "io_uring lacks IORING_FEAT_SUBMIT_STABLE";
      return p;
    }
    p.available = true;
    p.features = params.features;
    return p;
  }();
  return probe;
}

inline bool UringAvailable() { return ProbeUring().available; }

// One mmap'd submission/completion ring pair. Owned by exactly one worker queue.
class UringRing {
 public:
  UringRing() = default;
  ~UringRing() { Destroy(); }
  UringRing(const UringRing&) = delete;
  UringRing& operator=(const UringRing&) = delete;

  // Creates the ring: `sq_entries` SQEs and a CQ sized `cq_entries` (>= SQ size, so
  // a full TX batch plus every armed recv can complete without overflow). On failure
  // returns false and describes why in *error.
  bool Init(unsigned sq_entries, unsigned cq_entries, std::string* error) {
    io_uring_params params{};
    params.flags = IORING_SETUP_CQSIZE;
    params.cq_entries = cq_entries;
    ring_fd_ = SysUringSetup(sq_entries, &params);
    if (ring_fd_ < 0) {
      if (error != nullptr) {
        *error = std::string("io_uring_setup: ") + std::strerror(errno);
      }
      return false;
    }
    features_ = params.features;
    sq_entries_ = params.sq_entries;
    cq_entries_ = params.cq_entries;

    size_t sq_bytes = params.sq_off.array + params.sq_entries * sizeof(uint32_t);
    size_t cq_bytes = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    if ((params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      sq_bytes = cq_bytes = sq_bytes > cq_bytes ? sq_bytes : cq_bytes;
    }
    sq_ring_sz_ = sq_bytes;
    sq_ring_ = ::mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) {
      return Fail(error, "mmap(SQ ring)");
    }
    if ((params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      cq_ring_ = sq_ring_;
      cq_ring_sz_ = 0;  // shared mapping; unmapped via sq_ring_
    } else {
      cq_ring_sz_ = cq_bytes;
      cq_ring_ = ::mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
      if (cq_ring_ == MAP_FAILED) {
        return Fail(error, "mmap(CQ ring)");
      }
    }
    sqes_sz_ = params.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(::mmap(nullptr, sqes_sz_,
                                              PROT_READ | PROT_WRITE,
                                              MAP_SHARED | MAP_POPULATE, ring_fd_,
                                              IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      return Fail(error, "mmap(SQEs)");
    }

    auto* sq = static_cast<char*>(sq_ring_);
    sq_head_ = reinterpret_cast<std::atomic<uint32_t>*>(sq + params.sq_off.head);
    sq_tail_ = reinterpret_cast<std::atomic<uint32_t>*>(sq + params.sq_off.tail);
    sq_mask_ = *reinterpret_cast<uint32_t*>(sq + params.sq_off.ring_mask);
    sq_flags_ = reinterpret_cast<std::atomic<uint32_t>*>(sq + params.sq_off.flags);
    sq_array_ = reinterpret_cast<uint32_t*>(sq + params.sq_off.array);
    auto* cq = static_cast<char*>(cq_ring_);
    cq_head_ = reinterpret_cast<std::atomic<uint32_t>*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<std::atomic<uint32_t>*>(cq + params.cq_off.tail);
    cq_mask_ = *reinterpret_cast<uint32_t*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);

    // Identity map once: SQE slot i is always submitted as index i.
    for (uint32_t i = 0; i < sq_entries_; ++i) {
      sq_array_[i] = i;
    }
    sq_tail_shadow_ = sq_tail_->load(std::memory_order_relaxed);
    cq_head_shadow_ = cq_head_->load(std::memory_order_relaxed);
    return true;
  }

  void Destroy() {
    if (sqes_ != nullptr) {
      ::munmap(sqes_, sqes_sz_);
      sqes_ = nullptr;
    }
    if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
      ::munmap(cq_ring_, cq_ring_sz_);
    }
    cq_ring_ = nullptr;
    if (sq_ring_ != nullptr) {
      ::munmap(sq_ring_, sq_ring_sz_);
      sq_ring_ = nullptr;
    }
    if (ring_fd_ >= 0) {
      ::close(ring_fd_);
      ring_fd_ = -1;
    }
  }

  bool valid() const { return ring_fd_ >= 0; }
  int ring_fd() const { return ring_fd_; }
  uint32_t features() const { return features_; }

  // Next free SQE, zeroed, or nullptr when the SQ is full (Submit, then retry).
  io_uring_sqe* GetSqe() {
    uint32_t head = sq_head_->load(std::memory_order_acquire);
    if (sq_tail_shadow_ - head >= sq_entries_) {
      return nullptr;
    }
    io_uring_sqe* sqe = &sqes_[sq_tail_shadow_ & sq_mask_];
    std::memset(sqe, 0, sizeof *sqe);
    sq_tail_shadow_++;
    return sqe;
  }

  uint32_t PendingSqes() const {
    return sq_tail_shadow_ - sq_tail_->load(std::memory_order_relaxed);
  }

  // Publishes prepared SQEs and submits them with ONE io_uring_enter — the batching
  // that amortizes the whole transport's syscall cost. Returns SQEs consumed (or a
  // negative errno). A no-op (zero syscalls) when nothing is pending.
  int Submit() { return EnterSubmit(0, 0, nullptr, 0); }

  // Submit + block until `wait_nr` completions are available or `timeout` elapses —
  // still a single syscall when the kernel supports EXT_ARG timeouts.
  int SubmitAndWait(unsigned wait_nr, Nanos timeout) {
    if ((features_ & IORING_FEAT_EXT_ARG) != 0) {
      __kernel_timespec ts{};
      ts.tv_sec = static_cast<int64_t>(timeout / kSecond);
      ts.tv_nsec = static_cast<long long>(timeout % kSecond);
      io_uring_getevents_arg arg{};
      arg.ts = reinterpret_cast<uint64_t>(&ts);
      int r = EnterSubmit(wait_nr, IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                          &arg, sizeof arg);
      return r == -ETIME ? 0 : r;
    }
    // Pre-EXT_ARG kernel: submit without blocking, then bounded nonblocking polls.
    int r = EnterSubmit(0, 0, nullptr, 0);
    if (r < 0) {
      return r;
    }
    Nanos deadline = NowNanos() + timeout;
    while (!CqReady() && NowNanos() < deadline) {
      int g = SysUringEnter(ring_fd_, 0, wait_nr, IORING_ENTER_GETEVENTS, nullptr, 0);
      enters_++;
      if (g < 0 && errno != EINTR && errno != EBUSY) {
        break;
      }
      if (CqReady()) {
        break;
      }
      ::usleep(50);
    }
    return r;
  }

  // Oldest unreaped CQE, or nullptr. Owner thread only; AdvanceCqe consumes it.
  io_uring_cqe* PeekCqe() {
    if (cq_head_shadow_ == cq_tail_->load(std::memory_order_acquire)) {
      return nullptr;
    }
    return &cqes_[cq_head_shadow_ & cq_mask_];
  }

  void AdvanceCqe() {
    cq_head_shadow_++;
    cq_head_->store(cq_head_shadow_, std::memory_order_release);
  }

  // Any-thread peek at CQ occupancy: the uring analogue of a zero-timeout epoll_wait
  // (and unlike it, not a syscall — the rings are shared memory).
  bool CqReady() const {
    return cq_head_->load(std::memory_order_relaxed) !=
           cq_tail_->load(std::memory_order_acquire);
  }

  // CQEs the kernel parked because the CQ was full: flush them back into the ring.
  // Returns true when an overflow flush was needed (a sizing bug worth counting).
  bool FlushOverflow() {
    if ((sq_flags_->load(std::memory_order_relaxed) & IORING_SQ_CQ_OVERFLOW) == 0) {
      return false;
    }
    SysUringEnter(ring_fd_, 0, 0, IORING_ENTER_GETEVENTS, nullptr, 0);
    enters_++;
    return true;
  }

  // io_uring_enter calls made through this ring (the data-path syscall count).
  // Racy-but-safe snapshot from any thread; incremented only by the owner.
  uint64_t Enters() const { return enters_.load(std::memory_order_relaxed); }

 private:
  bool Fail(std::string* error, const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    Destroy();
    return false;
  }

  int EnterSubmit(unsigned wait_nr, unsigned flags, const void* arg, size_t argsz) {
    uint32_t to_submit = PendingSqes();
    if (to_submit == 0 && wait_nr == 0) {
      return 0;
    }
    sq_tail_->store(sq_tail_shadow_, std::memory_order_release);
    while (true) {
      int r = SysUringEnter(ring_fd_, to_submit, wait_nr, flags, arg, argsz);
      enters_++;
      if (r >= 0) {
        return r;
      }
      if (errno == EINTR) {
        continue;
      }
      return -errno;
    }
  }

  int ring_fd_ = -1;
  uint32_t features_ = 0;
  uint32_t sq_entries_ = 0;
  uint32_t cq_entries_ = 0;

  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  size_t sq_ring_sz_ = 0;
  size_t cq_ring_sz_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_sz_ = 0;

  std::atomic<uint32_t>* sq_head_ = nullptr;
  std::atomic<uint32_t>* sq_tail_ = nullptr;
  std::atomic<uint32_t>* sq_flags_ = nullptr;
  uint32_t* sq_array_ = nullptr;
  uint32_t sq_mask_ = 0;
  uint32_t sq_tail_shadow_ = 0;

  std::atomic<uint32_t>* cq_head_ = nullptr;
  std::atomic<uint32_t>* cq_tail_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
  uint32_t cq_mask_ = 0;
  uint32_t cq_head_shadow_ = 0;

  std::atomic<uint64_t> enters_{0};
};

// SQE preparation helpers (the liburing io_uring_prep_* equivalents we use).

inline void PrepRecv(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                     uint64_t user_data) {
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = len;
  sqe->user_data = user_data;
}

// Gather send of `msg`'s iovecs. The kernel reads the msghdr and iovec array while
// consuming the SQE (IORING_FEAT_SUBMIT_STABLE), so only the bytes they point at must
// outlive the op.
inline void PrepSendmsg(io_uring_sqe* sqe, int fd, const msghdr* msg,
                        uint64_t user_data) {
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(msg);
  sqe->len = 1;
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = user_data;
}

inline void PrepCancel(io_uring_sqe* sqe, uint64_t target_user_data,
                       uint64_t user_data) {
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = target_user_data;
  sqe->user_data = user_data;
}

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_URING_RING_H_
