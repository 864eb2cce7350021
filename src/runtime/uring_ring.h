// Minimal io_uring shim: mmap'd SQ/CQ rings over the raw syscalls, no liburing.
//
// The container bakes in the uapi header (<linux/io_uring.h>) but not liburing, so
// this vendors the ~200 lines of ring bookkeeping the library would provide: setup +
// the three mmaps (honoring IORING_FEAT_SINGLE_MMAP), SQE acquisition against the
// kernel's consumer head, a submit path that counts every io_uring_enter (the
// syscalls-per-request metric the benches report), CQE peek/advance for the
// single-consumer home core, an any-thread CQ occupancy probe for the ZygOS idle
// loop's remote-ring polling step, and a provided-buffer ring
// (IORING_REGISTER_PBUF_RING) for multishot receive.
//
// Deliberate simplifications vs liburing:
//   - IORING_SETUP_SQPOLL is opt-in (UringRingOptions::sqpoll), with an
//     honest-counting policy: the kernel poller legitimately removes submission
//     syscalls, so in SQPOLL mode the submit path publishes the SQ tail in shared
//     memory and calls io_uring_enter ONLY when the poller has gone idle and raised
//     IORING_SQ_NEED_WAKEUP (the enter carries IORING_ENTER_SQ_WAKEUP and is counted
//     in Enters() like any other). syscalls_per_request approaches zero because the
//     kernel consumes the SQ without a syscall — never because an enter went
//     uncounted — and the idle-loop CQ probe (CqReady) stays a pure shared-memory
//     read in both modes.
//   - No IORING_SETUP_DEFER_TASKRUN/SINGLE_ISSUER: deferred task running makes CQEs
//     invisible to *other* threads until the issuer enters the kernel, which would
//     blind ApproxNonEmpty (the idle loop's doorbell trigger) — a documented
//     substitution, the same trade the epoll backend makes by using level-triggered
//     readiness as its any-thread peek.
//   - The SQ index array is identity-mapped once at Init; SQEs are used in ring
//     order, which is all a batch-submit transport needs.
//
// Contract: Init/Destroy and all SQ/CQ/buf-ring operations are single-caller (the
// owning worker); CqReady alone is safe from any thread (it reads the shared mmap
// with atomic loads). SubmitAndWait uses IORING_ENTER_EXT_ARG timeouts when the
// kernel offers them (IORING_FEAT_EXT_ARG) and degrades to a bounded nonblocking
// poll loop otherwise; in SQPOLL mode it never blocks in the kernel for CQEs — it
// wakes the poller if needed and spins a bounded userspace CQ poll. UringAvailable()
// probes io_uring_setup once per process — sandboxes and seccomp policies commonly
// deny it, and every uring code path must degrade to a clear skip/error, never a
// crash (see ISSUE 7 satellite 1). ProbeUring() additionally reports the per-feature
// ladder (buf_ring / multishot / sqpoll) so callers can request rungs individually
// and degrade per-feature. It also reports whether the kernel has a zero-copy send
// opcode (send_zc), for display only: no transport uses it.
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

inline int SysUringRegister(int fd, unsigned opcode, const void* arg,
                            unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// Process-wide capability probe, evaluated once: can this process create a ring at
// all (seccomp/sandbox denials surface as EPERM/ENOSYS here, not at first I/O), and
// which rungs of the feature ladder does the kernel grant? Each rung is probed
// functionally — a trial registration or a live socketpair round-trip — because
// kernel version alone doesn't tell you what a sandbox allows.
struct UringProbe {
  bool available = false;
  std::string reason;   // human-readable denial cause when !available
  uint32_t features = 0;
  // Per-feature ladder rungs (ISSUE 10). Transports AND these with the requested
  // options, so asking for a denied rung degrades instead of failing.
  bool buf_ring = false;   // IORING_REGISTER_PBUF_RING accepted
  bool multishot = false;  // IORING_RECV_MULTISHOT delivers F_BUFFER completions
  bool send_zc = false;    // IORING_OP_SEND_ZC present in the opcode table
                           // (reported only; the transports never send zero-copy)
  bool sqpoll = false;     // IORING_SETUP_SQPOLL ring creation permitted
};

const UringProbe& ProbeUring();  // defined below UringRing (the probe uses it)

inline bool UringAvailable() { return ProbeUring().available; }

// How long the kernel SQ poller spins before parking and raising NEED_WAKEUP.
// Modest: on small hosts the poller timeshares with the workers.
constexpr unsigned kSqThreadIdleMs = 50;

struct UringRingOptions {
  bool sqpoll = false;
};

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
    return Init(sq_entries, cq_entries, UringRingOptions{}, error);
  }

  bool Init(unsigned sq_entries, unsigned cq_entries, const UringRingOptions& opts,
            std::string* error) {
    io_uring_params params{};
    params.flags = IORING_SETUP_CQSIZE;
    params.cq_entries = cq_entries;
    if (opts.sqpoll) {
      params.flags |= IORING_SETUP_SQPOLL;
      params.sq_thread_idle = kSqThreadIdleMs;
    }
    ring_fd_ = SysUringSetup(sq_entries, &params);
    if (ring_fd_ < 0) {
      if (error != nullptr) {
        *error = std::string("io_uring_setup: ") + std::strerror(errno);
      }
      return false;
    }
    if (opts.sqpoll && (params.features & IORING_FEAT_SQPOLL_NONFIXED) == 0) {
      // Pre-5.11 SQPOLL only accepts registered files; our sockets are plain fds.
      if (error != nullptr) {
        *error = "SQPOLL without IORING_FEAT_SQPOLL_NONFIXED (registered-files-only)";
      }
      Destroy();
      return false;
    }
    sqpoll_ = opts.sqpoll;
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
    TeardownBufRing();
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
    sqpoll_ = false;
  }

  bool valid() const { return ring_fd_ >= 0; }
  int ring_fd() const { return ring_fd_; }
  uint32_t features() const { return features_; }
  bool sqpoll() const { return sqpoll_; }

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

  // Publishes prepared SQEs and submits them. Without SQPOLL that is ONE
  // io_uring_enter — the batching that amortizes the whole transport's syscall
  // cost. With SQPOLL the publish alone hands the batch to the kernel poller and
  // the enter happens only on the NEED_WAKEUP path (see header comment). Returns
  // SQEs consumed (or a negative errno). A no-op (zero syscalls) when nothing is
  // pending.
  int Submit() { return EnterSubmit(0, 0, nullptr, 0); }

  // Submit + block until `wait_nr` completions are available or `timeout` elapses —
  // still a single syscall when the kernel supports EXT_ARG timeouts. In SQPOLL
  // mode: publish (+wake if needed), then a bounded userspace CQ poll — the wait
  // itself costs no enters.
  int SubmitAndWait(unsigned wait_nr, Nanos timeout) {
    if (sqpoll_) {
      int r = EnterSubmit(0, 0, nullptr, 0);
      if (r < 0) {
        return r;
      }
      Nanos deadline = NowNanos() + timeout;
      while (CqReadyCount() < wait_nr && NowNanos() < deadline) {
        ::usleep(10);
      }
      return r;
    }
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

  uint32_t CqReadyCount() const {
    return cq_tail_->load(std::memory_order_acquire) -
           cq_head_->load(std::memory_order_relaxed);
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

  // ---- Provided buffer ring (multishot receive) ----------------------------
  //
  // One buffer group (bgid) per ring. The kernel pops entries as multishot RECV
  // completions consume them; the owner refills with BufRingAdd + one release-store
  // BufRingPublish per batch. `entries` must be a power of two.

  bool SetupBufRing(uint32_t entries, uint16_t bgid, std::string* error) {
    if ((entries & (entries - 1)) != 0 || entries == 0) {
      if (error != nullptr) {
        *error = "SetupBufRing: entries must be a power of two";
      }
      return false;
    }
    size_t bytes = entries * sizeof(io_uring_buf);
    size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    bytes = (bytes + page - 1) & ~(page - 1);
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (mem == MAP_FAILED) {
      if (error != nullptr) {
        *error = std::string("mmap(buf ring): ") + std::strerror(errno);
      }
      return false;
    }
    io_uring_buf_reg reg{};
    reg.ring_addr = reinterpret_cast<uint64_t>(mem);
    reg.ring_entries = entries;
    reg.bgid = bgid;
    if (SysUringRegister(ring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
      if (error != nullptr) {
        *error = std::string("IORING_REGISTER_PBUF_RING: ") + std::strerror(errno);
      }
      ::munmap(mem, bytes);
      return false;
    }
    buf_ring_ = static_cast<io_uring_buf_ring*>(mem);
    buf_ring_sz_ = bytes;
    buf_ring_entries_ = entries;
    buf_ring_bgid_ = bgid;
    buf_tail_shadow_ = 0;
    return true;
  }

  void TeardownBufRing() {
    if (buf_ring_ == nullptr) {
      return;
    }
    if (ring_fd_ >= 0) {
      io_uring_buf_reg reg{};
      reg.bgid = buf_ring_bgid_;
      SysUringRegister(ring_fd_, IORING_UNREGISTER_PBUF_RING, &reg, 1);
    }
    ::munmap(buf_ring_, buf_ring_sz_);
    buf_ring_ = nullptr;
    buf_ring_entries_ = 0;
  }

  bool HasBufRing() const { return buf_ring_ != nullptr; }
  uint16_t BufRingBgid() const { return buf_ring_bgid_; }

  // Stages one buffer for the kernel to select. Not visible until BufRingPublish.
  // NOTE: slots are indexed from the mapping base, NOT via io_uring_buf_ring::bufs —
  // under C++ the uapi __DECLARE_FLEX_ARRAY wrapper pads that member to offset 8
  // (empty-struct rule), while the kernel ABI puts entry 0 at offset 0.
  void BufRingAdd(void* addr, unsigned len, uint16_t bid) {
    io_uring_buf* slot =
        reinterpret_cast<io_uring_buf*>(buf_ring_) +
        (buf_tail_shadow_ & (buf_ring_entries_ - 1));
    slot->addr = reinterpret_cast<uint64_t>(addr);
    slot->len = len;
    slot->bid = bid;
    buf_tail_shadow_++;
  }

  void BufRingPublish() {
    reinterpret_cast<std::atomic<uint16_t>*>(&buf_ring_->tail)
        ->store(buf_tail_shadow_, std::memory_order_release);
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
      if (sqpoll_) {
        MaybeWakePoller();  // earlier publishes may still need a parked poller woken
      }
      return 0;
    }
    sq_tail_->store(sq_tail_shadow_, std::memory_order_release);
    if (sqpoll_) {
      // The kernel poller consumes the SQ; we only pay a syscall when it parked.
      MaybeWakePoller();
      return static_cast<int>(to_submit);
    }
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

  void MaybeWakePoller() {
    if ((sq_flags_->load(std::memory_order_acquire) & IORING_SQ_NEED_WAKEUP) == 0) {
      return;
    }
    while (true) {
      int r = SysUringEnter(ring_fd_, 0, 0, IORING_ENTER_SQ_WAKEUP, nullptr, 0);
      enters_++;  // honest counting: SQPOLL wakeups are data-path syscalls too
      if (r >= 0 || errno != EINTR) {
        return;
      }
    }
  }

  int ring_fd_ = -1;
  uint32_t features_ = 0;
  uint32_t sq_entries_ = 0;
  uint32_t cq_entries_ = 0;
  bool sqpoll_ = false;

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

  io_uring_buf_ring* buf_ring_ = nullptr;
  size_t buf_ring_sz_ = 0;
  uint32_t buf_ring_entries_ = 0;
  uint16_t buf_ring_bgid_ = 0;
  uint16_t buf_tail_shadow_ = 0;

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

// Standing multishot receive: ONE SQE, many completions. The kernel picks a buffer
// from the provided-buffer ring (`buf_group`) per completion; the CQE carries the
// buffer id in flags >> IORING_CQE_BUFFER_SHIFT and IORING_CQE_F_MORE while the SQE
// remains armed. Terminal conditions (F_MORE clear): socket FIN/error, -ENOBUFS
// when the buffer ring ran dry, or cancellation.
inline void PrepRecvMultishot(io_uring_sqe* sqe, int fd, uint16_t buf_group,
                              uint64_t user_data) {
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = buf_group;
  sqe->user_data = user_data;
}

inline void PrepSend(io_uring_sqe* sqe, int fd, const void* buf, unsigned len,
                     uint64_t user_data) {
  sqe->opcode = IORING_OP_SEND;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = len;
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

inline const UringProbe& ProbeUring() {
  static const UringProbe probe = [] {
    UringProbe p;
    {
      io_uring_params params{};
      int fd = SysUringSetup(4, &params);
      if (fd < 0) {
        p.reason = std::string("io_uring_setup: ") + std::strerror(errno);
        return p;
      }
      p.available = true;
      p.features = params.features;
      // SEND_ZC: consult the opcode table. Zero-length ops array entries read as
      // unsupported, so an EINVAL from old kernels just leaves send_zc false.
      constexpr unsigned kProbeOps = 64;  // > IORING_OP_SEND_ZC on every kernel
      alignas(io_uring_probe) unsigned char
          raw[sizeof(io_uring_probe) + kProbeOps * sizeof(io_uring_probe_op)] = {};
      auto* ops = reinterpret_cast<io_uring_probe*>(raw);
      if (SysUringRegister(fd, IORING_REGISTER_PROBE, ops, kProbeOps) == 0 &&
          ops->last_op >= IORING_OP_SEND_ZC &&
          (ops->ops[IORING_OP_SEND_ZC].flags & IO_URING_OP_SUPPORTED) != 0) {
        p.send_zc = true;
      }
      ::close(fd);
    }
    {
      // SQPOLL: trial ring creation (older kernels demand CAP_SYS_NICE; sandboxes
      // may deny the flag outright).
      io_uring_params params{};
      params.flags = IORING_SETUP_SQPOLL;
      params.sq_thread_idle = 20;
      int fd = SysUringSetup(4, &params);
      if (fd >= 0) {
        p.sqpoll = (params.features & IORING_FEAT_SQPOLL_NONFIXED) != 0;
        ::close(fd);
      }
    }
    {
      // Buffer ring + multishot recv: a live socketpair round-trip through the shim
      // itself, because IORING_RECV_MULTISHOT is a flag (not a probeable opcode) and
      // old kernels silently treat unknown ioprio bits as EINVAL at completion time.
      UringRing ring;
      std::string err;
      if (ring.Init(8, 16, &err) && ring.SetupBufRing(8, 0, &err)) {
        p.buf_ring = true;
        static char slab[512];
        ring.BufRingAdd(slab, sizeof slab, 0);
        ring.BufRingPublish();
        int sp[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) == 0) {
          io_uring_sqe* sqe = ring.GetSqe();
          PrepRecvMultishot(sqe, sp[0], 0, 1);
          (void)!::write(sp[1], "mshot", 5);
          ring.SubmitAndWait(1, 100 * kMillisecond);
          for (int i = 0; i < 100 && !ring.CqReady(); ++i) {
            ::usleep(1000);
          }
          io_uring_cqe* cqe = ring.PeekCqe();
          if (cqe != nullptr && cqe->res > 0 &&
              (cqe->flags & IORING_CQE_F_BUFFER) != 0) {
            p.multishot = true;
          }
          ::close(sp[0]);
          ::close(sp[1]);
        }
      }
    }
    return p;
  }();
  return probe;
}

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_URING_RING_H_
