#include "src/runtime/uring_transport.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace zygos {

namespace {

// SQ depth per queue: a full TX batch (runtime kTxBatch) plus recv re-arms and
// cancels fit with room to spare; GetSqe submits mid-pass if a pass ever outgrows it.
constexpr unsigned kSqEntries = 256;
// Granularity of the bounded TransmitBatch wait (mirrors the epoll backend's
// kTxPollMillis poll() slices — same stall discipline, one syscall per slice).
constexpr Nanos kTxWaitSlice = 10 * kMillisecond;
// After the stall deadline fires we cancel the laggard SQEs and grant this long for
// the -ECANCELED completions to arrive before parking the sends as zombies.
constexpr Nanos kCancelGrace = kSecond;

// user_data layout: op kind in the top byte, payload (flow id / send token) below.
constexpr uint64_t kOpShift = 56;
constexpr uint64_t kPayloadMask = (uint64_t{1} << kOpShift) - 1;
constexpr uint64_t kUdRecv = 1;
constexpr uint64_t kUdSend = 2;
constexpr uint64_t kUdCancel = 3;

constexpr uint64_t MakeUd(uint64_t op, uint64_t payload) {
  return (op << kOpShift) | (payload & kPayloadMask);
}

unsigned RoundPow2(unsigned v) {
  unsigned p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

UringTransport::UringTransport(TcpTransportOptions options)
    : SocketTransportBase(std::move(options), "uring transport") {
  queues_.reserve(static_cast<size_t>(options_.num_queues));
  for (int q = 0; q < options_.num_queues; ++q) {
    queues_.push_back(std::make_unique<PerQueue>());
  }
}

UringTransport::~UringTransport() { Stop(); }

void UringTransport::Start() {
  const UringProbe& probe = ProbeUring();
  if (!probe.available) {
    std::fprintf(stderr, "zygos: uring transport: io_uring unavailable: %s\n",
                 probe.reason.c_str());
    std::abort();
  }
  // CQ must absorb every in-flight op at once: an armed recv per connection plus a
  // full TX batch. Undersizing only costs overflow flushes, but size it right.
  unsigned cq_entries = RoundPow2(static_cast<unsigned>(std::min<uint64_t>(
      std::max<uint64_t>(1024, options_.max_flows + kSqEntries), 65536)));
  for (auto& pq : queues_) {
    std::string error;
    if (!pq->ring.Init(kSqEntries, cq_entries, &error)) {
      std::fprintf(stderr, "zygos: uring transport: %s\n", error.c_str());
      std::abort();
    }
  }
  StartListener();
}

void UringTransport::Stop() {
  StopListener();
  for (auto& pqp : queues_) {
    PerQueue& pq = *pqp;
    if (!pq.ring.valid()) {
      continue;
    }
    // Reap every in-flight recv before freeing its target memory: mark all
    // connections closing, cancel the armed recvs, and drain until the kernel has
    // handed every CQE back. FinalizeClose (via the drain) closes fds and erases.
    std::vector<uint64_t> flows;
    flows.reserve(pq.conns.size());
    for (const auto& [flow, conn] : pq.conns) {
      (void)conn;
      flows.push_back(flow);
    }
    for (uint64_t flow : flows) {
      auto it = pq.conns.find(flow);
      if (it == pq.conns.end()) {
        continue;
      }
      UConn* conn = it->second.get();
      conn->closing = true;
      conn->purge_on_close = false;
      if (conn->rx_inflight) {
        io_uring_sqe* sqe = GetSqe(pq);
        PrepCancel(sqe, MakeUd(kUdRecv, flow), MakeUd(kUdCancel, flow));
      } else {
        FinalizeClose(pq, conn);
      }
    }
    pq.ring.Submit();
    int spins = 0;
    while ((!pq.conns.empty() || !pq.zombie_sends.empty()) && spins++ < 400) {
      pq.ring.SubmitAndWait(1, 5 * kMillisecond);
      pq.ring.FlushOverflow();
      DrainCq(pq, nullptr);
    }
    // A CQE that never arrived (kernel-side hang; should not happen) means the
    // kernel may still write into that connection's buffers: leak them rather than
    // hand corruptible memory back to the pool.
    for (auto& [flow, conn] : pq.conns) {
      (void)flow;
      conn.release();
    }
    pq.conns.clear();
    pq.pending.clear();
    pq.pending_count.store(0, std::memory_order_relaxed);
    pq.ring.Destroy();
    pq.zombie_sends.clear();
  }
}

io_uring_sqe* UringTransport::GetSqe(PerQueue& pq) {
  io_uring_sqe* sqe = pq.ring.GetSqe();
  int busy_retries = 0;
  while (sqe == nullptr) {
    // SQ full mid-pass: submit what's queued to free slots (costs an extra enter —
    // correctness over the metric). -EBUSY means the CQ side is backed up.
    int r = pq.ring.Submit();
    if (r == -EBUSY && busy_retries++ < 64) {
      pq.ring.FlushOverflow();
      ::usleep(50);
    } else if (r < 0) {
      errno = -r;
      Fatal("io_uring_enter(submit)");
    }
    sqe = pq.ring.GetSqe();
  }
  return sqe;
}

void UringTransport::ArmRecv(PerQueue& pq, UConn* conn) {
  if (conn->rx_inflight || conn->closing) {
    return;
  }
  if (!conn->rx_buf) {
    conn->rx_buf = AllocBuffer(options_.max_segment_bytes);
  }
  unsigned len = static_cast<unsigned>(
      std::min(conn->rx_buf.capacity(), options_.max_segment_bytes));
  PrepRecv(GetSqe(pq), conn->fd, conn->rx_buf.data(), len,
           MakeUd(kUdRecv, conn->flow_id));
  conn->rx_inflight = true;
}

void UringTransport::PushPending(PerQueue& pq, PendingItem item) {
  pq.pending.push_back(std::move(item));
  pq.pending_count.store(pq.pending.size(), std::memory_order_relaxed);
}

void UringTransport::FinalizeClose(PerQueue& pq, UConn* conn) {
  ::close(conn->fd);
  const uint64_t flow = conn->flow_id;
  if (conn->purge_on_close) {
    // Severed flow: its undelivered segments must not surface after the close.
    auto is_purged = [flow](const PendingItem& item) {
      return !item.is_close && item.flow_id == flow;
    };
    pq.pending.erase(
        std::remove_if(pq.pending.begin(), pq.pending.end(), is_purged),
        pq.pending.end());
  }
  PushPending(pq, PendingItem{/*is_close=*/true, flow, IoBuf(), 0});
  pq.conns.erase(flow);  // frees *conn
}

void UringTransport::CloseConn(PerQueue& pq, UConn* conn, bool purge_pending) {
  if (conn->closing) {
    conn->purge_on_close = conn->purge_on_close || purge_pending;
    return;
  }
  conn->closing = true;
  conn->purge_on_close = purge_pending;
  if (conn->rx_inflight) {
    // A recv still references this connection's buffer: cancel it and finalize only
    // when its CQE is reaped (HandleRecvCqe), so the kernel can never complete into a
    // closed connection's memory.
    io_uring_sqe* sqe = GetSqe(pq);
    PrepCancel(sqe, MakeUd(kUdRecv, conn->flow_id),
               MakeUd(kUdCancel, conn->flow_id));
    return;
  }
  FinalizeClose(pq, conn);
}

void UringTransport::HandleRecvCqe(PerQueue& pq, uint64_t flow_id, int res) {
  auto it = pq.conns.find(flow_id);
  if (it == pq.conns.end()) {
    return;  // unreachable by construction: closes are deferred past in-flight recvs
  }
  UConn* conn = it->second.get();
  conn->rx_inflight = false;
  if (conn->closing) {
    FinalizeClose(pq, conn);  // sever/teardown completed its deferred close
    return;
  }
  if (res > 0) {
    // The pooled target becomes the Segment (zero copy); the re-arm below
    // allocates a fresh one.
    IoBuf buf = std::move(conn->rx_buf);
    buf.set_size(static_cast<size_t>(res));
    pq.pooled_recvs++;
    PushPending(pq,
                PendingItem{/*is_close=*/false, flow_id, std::move(buf), NowNanos()});
    ArmRecv(pq, conn);
    return;
  }
  if (res == -EAGAIN || res == -EINTR) {
    ArmRecv(pq, conn);
    return;
  }
  // res == 0 (orderly FIN) or a hard error: close. Segments already in the FIFO
  // arrived before the hangup and stay; the close lands behind them.
  conn->purge_on_close = false;
  FinalizeClose(pq, conn);
}

void UringTransport::HandleCqe(PerQueue& pq, uint64_t user_data, int res,
                               TxContext* tx) {
  const uint64_t op = user_data >> kOpShift;
  const uint64_t payload = user_data & kPayloadMask;
  switch (op) {
    case kUdRecv:
      HandleRecvCqe(pq, payload, res);
      return;
    case kUdCancel:
      return;  // cancel outcomes are implied by the target op's own CQE
    case kUdSend:
      break;
    default:
      return;
  }
  if (tx == nullptr || payload < tx->token_base ||
      payload - tx->token_base >= tx->batch.size()) {
    // Straggler from an abandoned batch: the kernel is done with the frame now.
    pq.zombie_sends.erase(payload);
    return;
  }
  const size_t i = static_cast<size_t>(payload - tx->token_base);
  TxState& st = (*tx->state)[i];
  if (st.done) {
    return;
  }
  const TxSegment& seg = tx->batch[i];
  std::string_view frame = seg.frame.view();
  if (res > 0) {
    st.sent += static_cast<size_t>(res);
    if (st.sent >= frame.size()) {
      st.done = true;
      tx->outstanding--;
      return;
    }
  } else if (res != -EAGAIN && res != -EINTR) {
    st.done = true;
    st.failed = true;
    tx->outstanding--;
    return;
  }
  // Short send or EAGAIN/EINTR: resubmit the remainder (same token).
  auto it = pq.conns.find(seg.flow_id);
  if (it == pq.conns.end() || it->second->closing) {
    st.done = true;
    st.failed = true;
    tx->outstanding--;
    return;
  }
  PrepSend(GetSqe(pq), it->second->fd, frame.data() + st.sent,
           static_cast<unsigned>(frame.size() - st.sent), MakeUd(kUdSend, payload));
}

void UringTransport::DrainCq(PerQueue& pq, TxContext* tx) {
  while (io_uring_cqe* cqe = pq.ring.PeekCqe()) {
    const uint64_t user_data = cqe->user_data;
    const int res = cqe->res;
    pq.ring.AdvanceCqe();
    HandleCqe(pq, user_data, res, tx);
  }
}

size_t UringTransport::PollBatch(int queue, std::span<Segment> out,
                                 std::vector<ControlEvent>& control) {
  PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  if (!pq.ring.valid() || out.empty()) {
    return 0;
  }
  // Flush what earlier passes armed (re-arms, first recvs, sever cancels) that no
  // TransmitBatch has submitted yet: ONE enter, and none at all on a quiet pass —
  // the uring data path's idle cost is zero syscalls, vs one epoll_wait per pass for
  // the epoll engine. Re-arms are not submitted where they are prepared: they ride
  // the enter TransmitBatch makes anyway, which keeps a second enter off the
  // request path. The worker loop calls PollBatch every pass, so a re-arm waits at
  // most one pass.
  if (pq.ring.Submit() == -EBUSY) {
    pq.ring.FlushOverflow();
    pq.ring.Submit();
  }
  // Newborn connections: announce the open and arm the first recv. The recv SQE is
  // submitted after this pass, so the flow's first segment can only surface in a
  // later batch — the open strictly precedes it.
  while (auto handed = accept_ring(queue).TryPop()) {
    auto conn = std::make_unique<UConn>();
    conn->fd = handed->fd;
    conn->flow_id = handed->flow_id;
    conn->home_queue = handed->home_queue;
    UConn* raw = conn.get();
    pq.conns.emplace(raw->flow_id, std::move(conn));
    control.push_back(ControlEvent{ControlEventKind::kFlowOpened, raw->flow_id});
    ArmRecv(pq, raw);
  }
  pq.ring.FlushOverflow();
  DrainCq(pq, nullptr);
  // Emit from the FIFO in arrival order — but never a close in the same batch as one
  // of its flow's segments (the runtime processes a batch's control events first, so
  // co-delivery would orphan the segments). The close waits for the next batch.
  size_t produced = 0;
  std::vector<uint64_t>& emitted = pq.emitted_scratch;
  emitted.clear();
  while (!pq.pending.empty() && produced < out.size()) {
    PendingItem& item = pq.pending.front();
    if (item.is_close) {
      if (std::find(emitted.begin(), emitted.end(), item.flow_id) !=
          emitted.end()) {
        break;
      }
      control.push_back(ControlEvent{ControlEventKind::kFlowClosed, item.flow_id});
    } else {
      Segment& segment = out[produced++];
      segment.flow_id = item.flow_id;
      segment.buf = std::move(item.buf);
      segment.arrival = item.arrival;
      segment.rx_nanos = item.arrival;  // CQE reap time == transport arrival
      emitted.push_back(item.flow_id);
    }
    pq.pending.pop_front();
  }
  pq.pending_count.store(pq.pending.size(), std::memory_order_relaxed);
  return produced;
}

size_t UringTransport::TransmitBatch(int queue, std::span<TxSegment> batch) {
  PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  if (!pq.ring.valid() || batch.empty()) {
    return 0;
  }
  const uint64_t base = pq.next_send_token;
  pq.next_send_token += batch.size();
  std::vector<TxState>& state = pq.tx_state;
  state.assign(batch.size(), TxState{});
  TxContext ctx;
  ctx.batch = batch;
  ctx.state = &state;
  ctx.token_base = base;
  // One SEND SQE per response; the whole batch leaves with a single
  // submit-and-wait enter below. Responses to dead/closing flows hit the floor like
  // a TX on a downed link (completion still fires — the request retired).
  for (size_t i = 0; i < batch.size(); ++i) {
    auto it = pq.conns.find(batch[i].flow_id);
    UConn* conn =
        (it != pq.conns.end() && !it->second->closing) ? it->second.get() : nullptr;
    if (conn == nullptr) {
      state[i].done = true;
      state[i].failed = true;
      continue;
    }
    std::string_view frame = batch[i].frame.view();
    PrepSend(GetSqe(pq), conn->fd, frame.data(), static_cast<unsigned>(frame.size()),
             MakeUd(kUdSend, base + i));
    ctx.outstanding++;
  }
  // Reap every completion before returning (the runtime's shutdown accounting needs
  // completions to fire inside TransmitBatch), with the same bounded-stall
  // discipline as the epoll backend: past the deadline, cancel the laggards.
  Nanos deadline =
      NowNanos() + std::max<Nanos>(options_.stall_drop_deadline, kMillisecond);
  bool cancelled = false;
  while (ctx.outstanding > 0) {
    int r = pq.ring.SubmitAndWait(1, kTxWaitSlice);
    if (r == -EBUSY) {
      pq.ring.FlushOverflow();
    } else if (r < 0) {
      errno = -r;
      Fatal("io_uring_enter(transmit)");
    }
    pq.ring.FlushOverflow();
    DrainCq(pq, &ctx);
    if (ctx.outstanding == 0) {
      break;
    }
    Nanos now = NowNanos();
    if (now < deadline) {
      continue;
    }
    if (!cancelled) {
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!state[i].done) {
          state[i].stalled = true;
          io_uring_sqe* sqe = GetSqe(pq);
          PrepCancel(sqe, MakeUd(kUdSend, base + i), MakeUd(kUdCancel, base + i));
        }
      }
      cancelled = true;
      deadline = now + kCancelGrace;
      continue;
    }
    // Even the cancels went unanswered (pathological). Park the frame refs so the
    // kernel op can never read recycled slab bytes, and move on.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!state[i].done) {
        pq.zombie_sends.emplace(base + i, batch[i].frame);
        state[i].done = true;
        state[i].failed = true;
        ctx.outstanding--;
      }
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (state[i].failed) {
      if (state[i].stalled) {
        CountStallDrop();
      } else {
        CountDrop();
      }
      // Failed or timed-out TX severs the connection, so a stalled peer cannot
      // head-of-line-block the rest of this core's flows response after response.
      auto it = pq.conns.find(batch[i].flow_id);
      if (it != pq.conns.end()) {
        CloseConn(pq, it->second.get(), /*purge_pending=*/true);
      }
    }
    NotifyComplete(batch[i]);
  }
  // Re-arms and sever cancels the drain prepared ride the next PollBatch's flush.
  return batch.size();
}

void UringTransport::CloseFlow(int queue, uint64_t flow_id) {
  PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  auto it = pq.conns.find(flow_id);
  if (it == pq.conns.end()) {
    return;
  }
  CountDrop();
  CloseConn(pq, it->second.get(), /*purge_pending=*/true);
  // The cancel SQE (if the sever had to defer) rides the next pass's submit.
}

bool UringTransport::ApproxNonEmpty(int queue) const {
  const PerQueue& pq = *queues_[static_cast<size_t>(queue)];
  if (!pq.ring.valid()) {
    return false;
  }
  if (!accept_ring(queue).ApproxEmpty()) {
    return true;
  }
  if (pq.pending_count.load(std::memory_order_relaxed) > 0) {
    return true;
  }
  // CQ occupancy is the uring analogue of the epoll backend's zero-timeout
  // epoll_wait peek — and unlike it, costs no syscall: the rings are shared memory.
  return pq.ring.CqReady();
}

uint64_t UringTransport::IoSyscalls() const {
  uint64_t total = 0;
  for (const auto& pq : queues_) {
    total += pq->ring.Enters();
  }
  return total;
}

uint64_t UringTransport::PooledRecvs() const {
  uint64_t total = 0;
  for (const auto& pq : queues_) {
    total += pq->pooled_recvs;
  }
  return total;
}

}  // namespace zygos
