#include "src/runtime/runtime.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/hw/perf_counters.h"
#include "src/runtime/loopback_transport.h"

namespace zygos {

namespace {

std::unique_ptr<Transport> MakeLoopbackTransport(const RuntimeOptions& options,
                                                 CompletionHandler on_complete) {
  auto transport = std::make_unique<LoopbackTransport>(
      options.num_workers, options.num_flow_groups, options.ring_capacity);
  transport->set_on_complete(std::move(on_complete));
  return transport;
}

}  // namespace

ViewHandler WrapStringHandler(RequestHandler handler) {
  return [handler = std::move(handler)](uint64_t flow_id, std::string_view request,
                                        ResponseBuilder& response) {
    response.Append(handler(flow_id, std::string(request)));
  };
}

Runtime::Runtime(RuntimeOptions options, ViewHandler handler,
                 CompletionHandler on_complete)
    : Runtime(options, MakeLoopbackTransport(options, std::move(on_complete)),
              std::move(handler)) {}

Runtime::Runtime(RuntimeOptions options, RequestHandler handler,
                 CompletionHandler on_complete)
    : Runtime(options, MakeLoopbackTransport(options, std::move(on_complete)),
              WrapStringHandler(std::move(handler))) {}

Runtime::Runtime(RuntimeOptions options, std::unique_ptr<Transport> transport,
                 RequestHandler handler)
    : Runtime(options, std::move(transport), WrapStringHandler(std::move(handler))) {}

Runtime::Runtime(RuntimeOptions options, std::unique_ptr<Transport> transport,
                 ViewHandler handler)
    : options_(options),
      handler_(std::move(handler)),
      transport_(std::move(transport)),
      shuffle_(options.num_workers),
      // Connection slots are bound lazily on the home core (first segment or
      // kFlowOpened); the table itself is sized up front to the flow-capacity source
      // of truth so slot addresses are stable without synchronization.
      connections_(ResolvedMaxFlows(options)) {
  if (transport_->num_queues() != options_.num_workers) {
    std::fprintf(stderr,
                 "zygos: transport has %d queues but the runtime has %d workers\n",
                 transport_->num_queues(), options_.num_workers);
    std::abort();
  }
  if (options_.overload.enabled) {
    deadline_budget_ = ResolveDeadlineBudget(options_.overload);
    flow_rate_rps_ = options_.overload.flow_rate_rps;
    flow_burst_ = ResolveFlowBurst(options_.overload);
  }
  Rng seeder(0x2e67a5u);
  for (int c = 0; c < options_.num_workers; ++c) {
    lifecycle_.push_back(std::make_unique<CoreLifecycle>());
    admission_.push_back(std::make_unique<CoreAdmission>());
    if (options_.overload.enabled && options_.overload.adaptive) {
      admission_.back()->controller.set_target(
          ResolveAdaptiveTarget(options_.overload));
    }
    remote_queues_.push_back(std::make_unique<MpmcQueue<RemoteSyscall>>(
        options_.ring_capacity));
    stats_.push_back(std::make_unique<WorkerStats>());
    worker_rngs_.push_back(seeder.Fork());
  }
}

Runtime::~Runtime() {
  if (started_.load() && !stopped_.load()) {
    Shutdown();
  }
}

void Runtime::Start() {
  started_.store(true);
  transport_->Start();
  for (int c = 0; c < options_.num_workers; ++c) {
    workers_.emplace_back([this, c] { WorkerLoop(c); });
  }
}

void Runtime::Shutdown() {
  // Drain: every accepted request must complete (work conservation makes this finite).
  // `injected_` covers loopback-side accounting (bytes may still sit unparsed in a
  // ring); `accepted_` covers transports whose traffic arrives from real I/O.
  while (completed_.load(std::memory_order_acquire) <
             injected_.load(std::memory_order_acquire) ||
         completed_.load(std::memory_order_acquire) <
             accepted_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  transport_->Stop();
  stopped_.store(true, std::memory_order_release);
}

bool Runtime::Inject(uint64_t flow_id, uint64_t request_id, const std::string& payload,
                     Nanos arrival) {
  // One pooled frame per request, allocated from the injecting thread's pool and
  // released (remotely) by the netstack once parsing drops the last view of it.
  Segment segment;
  segment.flow_id = flow_id;
  segment.buf = EncodeFrame(request_id, payload);
  segment.arrival = arrival != 0 ? arrival : NowNanos();
  if (!transport_->Inject(std::move(segment))) {
    return false;
  }
  injected_.fetch_add(1, std::memory_order_release);
  return true;
}

bool Runtime::InjectBytes(uint64_t flow_id, std::string bytes,
                          uint64_t expected_messages) {
  Segment segment;
  segment.flow_id = flow_id;
  segment.buf = AllocBuffer(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(segment.buf.data(), bytes.data(), bytes.size());
  }
  segment.buf.set_size(bytes.size());
  segment.arrival = NowNanos();
  if (!transport_->Inject(std::move(segment))) {
    return false;
  }
  injected_.fetch_add(expected_messages, std::memory_order_release);
  return true;
}

RssTable& Runtime::mutable_rss() {
  if (started_.load(std::memory_order_acquire) &&
      !stopped_.load(std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "zygos: mutable_rss() requires a quiescent runtime (not started, or "
                 "stopped); reprogramming RSS races with concurrent delivery\n");
    std::abort();
  }
  return transport_->mutable_rss();
}

WorkerStats Runtime::TotalStats() const {
  WorkerStats total;
  for (const auto& stats : stats_) {
    total.rx_segments += stats->rx_segments;
    total.rx_batches += stats->rx_batches;
    total.app_events += stats->app_events;
    total.stolen_events += stats->stolen_events;
    total.remote_syscalls += stats->remote_syscalls;
    total.pool_hits += stats->pool_hits;
    total.pool_misses += stats->pool_misses;
    total.pool_remote_frees += stats->pool_remote_frees;
    total.flows_opened += stats->flows_opened;
    total.flows_closed += stats->flows_closed;
    total.flows_recycled += stats->flows_recycled;
    total.events_refused += stats->events_refused;
    total.sheds_deadline += stats->sheds_deadline;
    total.sheds_fairness += stats->sheds_fairness;
    total.sheds_admission += stats->sheds_admission;
    total.rx_unstamped += stats->rx_unstamped;
    total.perf_cycles += stats->perf_cycles;
    total.perf_instructions += stats->perf_instructions;
    total.perf_cache_misses += stats->perf_cache_misses;
    total.perf_workers += stats->perf_workers;
  }
  return total;
}

ShuffleStats Runtime::TotalShuffleStats() const { return shuffle_.TotalStats(); }

void Runtime::WorkerLoop(int core) {
  WorkerStats& stats = *stats_[static_cast<size_t>(core)];
  Rng& rng = worker_rngs_[static_cast<size_t>(core)];
  // This worker's thread-local buffer pool; its counters are mirrored into
  // WorkerStats every pass so per-core allocation behaviour is observable from
  // outside (workers are fresh threads, so the counters start at zero).
  const BufferPool& pool = BufferPool::ForThisThread();
  auto mirror_pool_stats = [&stats, &pool] {
    BufferPoolStats snapshot = pool.Snapshot();
    stats.pool_hits = snapshot.freelist_hits;
    stats.pool_misses = snapshot.misses();
    stats.pool_remote_frees = snapshot.remote_frees;
  };
  // Best-effort hardware counters for this worker's whole lifetime (open-to-exit);
  // a denied perf_event_open leaves the perf_* stats zero with perf_workers == 0.
  PerfCounterSet perf;
  perf.Open();

  while (true) {
    bool worked = false;
    // Priority 1: remote batched syscalls (they hold socket ownership and directly
    // add to RPC latency, §4.5).
    worked |= DrainRemoteSyscalls(core) > 0;
    // Priority 2: own receive queue through the netstack, one batch per pass.
    worked |= NetstackRx(core) > 0;
    // Teardown: flows whose close was deferred behind an owner (possibly a thief)
    // retry every pass; no-op when nothing is closing.
    worked |= ProcessClosing(core) > 0;
    // Priority 3: local shuffle queue.
    if (Pcb* pcb = shuffle_.DequeueLocal(core)) {
      ExecuteConnection(core, pcb, /*stolen=*/false);
      worked = true;
    }
    if (worked) {
      // Mirror only after useful passes: an idle spin must not pay even relaxed
      // atomic traffic for observability nobody is reading.
      mirror_pool_stats();
      continue;
    }
    // Priority 4: the idle loop (§5). (a) Packets on the own receive queue: the top
    // of the loop picks them up at priority 2.
    if (transport_->ApproxNonEmpty(core)) {
      continue;
    }
    // (b) Steal a ready connection from a remote shuffle queue.
    if (options_.enable_stealing) {
      if (Pcb* pcb = shuffle_.StealAny(core, rng)) {
        ExecuteConnection(core, pcb, /*stolen=*/true);
        continue;
      }
    }
    if (stop_.load(std::memory_order_acquire)) {
      mirror_pool_stats();  // final exact values for post-Shutdown readers
      PerfSample sample = perf.ReadSample();
      if (sample.valid) {
        stats.perf_cycles = sample.cycles;
        stats.perf_instructions = sample.instructions;
        stats.perf_cache_misses = sample.cache_misses;
        stats.perf_workers = 1;
      }
      return;
    }
    // Yield the OS thread: essential on machines with fewer hardware threads than
    // workers, harmless elsewhere.
    std::this_thread::yield();
  }
}

uint64_t Runtime::DrainRemoteSyscalls(int core) {
  WorkerStats& stats = *stats_[static_cast<size_t>(core)];
  uint64_t executed = 0;
  std::array<RemoteSyscall, kTxBatch> calls;
  // Per-worker scratch (threads are never nested into this function): its capacity
  // persists across passes, so the steady-state drain performs no vector growth.
  static thread_local std::vector<TxSegment> batch;
  while (true) {
    size_t n = remote_queues_[static_cast<size_t>(core)]->TryPopBatch(
        std::span<RemoteSyscall>(calls.data(), kTxBatch));
    if (n == 0) {
      break;
    }
    batch.clear();
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(calls[i].tx));
    }
    // One batched TX pass over the transport, then the ownership releases — a release
    // must follow its connection's TX (§4.4's state machine discipline).
    TransmitBatch(core, std::span<TxSegment>(batch.data(), n));
    // Release the transmitted frames now: the thread_local scratch must keep only
    // its capacity, never pin pooled buffers across idle periods.
    batch.clear();
    for (size_t i = 0; i < n; ++i) {
      if (calls[i].pcb != nullptr) {
        // Final syscall of a stolen batch: release exclusive ownership (busy -> ready
        // or idle); a re-enqueue becomes visible to this core and to thieves.
        shuffle_.CompleteExecution(calls[i].pcb);
      }
    }
    stats.remote_syscalls += n;
    executed += n;
  }
  return executed;
}

uint64_t Runtime::NetstackRx(int core) {
  WorkerStats& stats = *stats_[static_cast<size_t>(core)];
  std::array<Segment, kRxBatch> segments;
  // Per-worker control scratch (never nested): lifecycle events ride the same poll
  // as segments and are processed first — the transport orders an open before the
  // flow's first segment and never delivers segments after a close.
  static thread_local std::vector<ControlEvent> control;
  control.clear();
  size_t n = transport_->PollBatch(core, std::span<Segment>(segments.data(), kRxBatch),
                                   control);
  for (const ControlEvent& event : control) {
    HandleControlEvent(event, core);
  }
  if (n == 0) {
    return control.size();
  }
  stats.rx_batches++;
  stats.rx_segments += n;
  const OverloadOptions& overload = options_.overload;
  AdmissionController& admission = admission_[static_cast<size_t>(core)]->controller;
  static thread_local std::vector<MessageView> scratch;  // per-worker, never nested
  for (size_t i = 0; i < n; ++i) {
    Segment& segment = segments[i];
    if (segment.rx_nanos == 0) {
      // Transport contract violation (every backend must stamp transport arrival):
      // backfill with our own clock so overload control keeps working, and count it —
      // the conformance suite gates this counter to zero per backend.
      segment.rx_nanos = NowNanos();
      stats.rx_unstamped++;
    }
    Connection* conn = ConnectionFor(segment.flow_id, core);
    if (conn == nullptr) {
      // Unserviceable flow id (beyond the connection table): sever it at the
      // transport so the peer sees a reset instead of silence.
      transport_->CloseFlow(core, segment.flow_id);
      continue;
    }
    // Zero-copy reassembly: views alias the segment's pooled buffer (or a pooled
    // straddle buffer); the segment's refcount keeps the bytes alive through handler
    // execution on whichever core claims the connection.
    bool healthy = conn->parser.Feed(segment.buf, segment.buf.view());
    // Messages fully parsed before a poisoning header still execute (a valid request
    // ahead of garbage in the same segment must not be silently lost); their
    // responses to a severed connection are dropped at TX, with normal accounting.
    scratch.clear();
    conn->parser.TakeViewsInto(scratch);
    if (!scratch.empty()) {
      size_t accepted = scratch.size();
      for (MessageView& view : scratch) {
        uint64_t request_id = view.request_id;
        // Ingress overload verdicts (home core only, like everything layer-1). A
        // refused request still becomes a PcbEvent — its shed *reply* must flow
        // through the PCB so per-flow response FIFO holds — but the payload ref is
        // dropped right here: a shed never reads it, and pinning RX memory behind a
        // refusal would defeat the point of refusing.
        ShedKind kind = ShedKind::kNone;
        if (overload.enabled) {
          if (flow_rate_rps_ > 0.0 && !conn->bucket.TryTake(segment.rx_nanos)) {
            kind = ShedKind::kFairness;
            stats.sheds_fairness++;
          } else if (overload.adaptive && !admission.AdmitIngress()) {
            kind = ShedKind::kAdmission;
            stats.sheds_admission++;
          }
          if (kind != ShedKind::kNone) {
            view = MessageView();
          }
        }
        conn->pcb.PushEvent(PcbEvent{request_id, segment.arrival, 0, std::move(view),
                                     segment.rx_nanos, kind});
      }
      accepted_.fetch_add(accepted, std::memory_order_release);
      if (conn->pcb.HasPendingEvents()) {
        shuffle_.NotifyPending(&conn->pcb);
      }
    }
    if (!healthy) {
      // Malformed frame stream (oversized length): the parser is poisoned and will
      // never produce another message — drop the connection rather than keep
      // receiving bytes into a black hole (remote input must not pin the core).
      transport_->CloseFlow(core, segment.flow_id);
    }
  }
  return n;
}

Runtime::Connection* Runtime::ConnectionFor(uint64_t flow_id, int core) {
  if (flow_id >= connections_.size()) {
    // Transport misconfiguration (its flow-id cap exceeds RuntimeOptions::max_flows —
    // impossible when both sides derive from ResolvedMaxFlows): refuse the flow
    // instead of crashing a live server on remote input. Warn once.
    if (!flow_overflow_warned_.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "zygos: flow id %llu exceeds the connection table (max_flows=%zu); "
                   "refusing — align the transport's flow cap with RuntimeOptions\n",
                   static_cast<unsigned long long>(flow_id), connections_.size());
    }
    return nullptr;
  }
  Slot& slot = connections_[flow_id];
  if (slot.conn && slot.conn->closing) {
    // Mid-teardown: the transport contract forbids segments after a close, so this
    // only happens when a loopback client injects past its own hangup. Refuse.
    return nullptr;
  }
  if (!slot.conn) {
    // First segment of a flow with no explicit open (loopback harness): it arrived on
    // `core` because the transport's RSS steers it there, so `core` is the home core
    // for the connection's lifetime (as in the paper, flow-group reprogramming
    // migrates *future* connections only).
    return BindFlow(flow_id, core);
  }
  return slot.conn.get();
}

Runtime::Connection* Runtime::BindFlow(uint64_t flow_id, int core) {
  if (flow_id >= connections_.size()) {
    return nullptr;
  }
  Slot& slot = connections_[flow_id];
  if (slot.conn) {
    return slot.conn.get();  // double open: idempotent
  }
  CoreLifecycle& lifecycle = *lifecycle_[static_cast<size_t>(core)];
  if (!lifecycle.free_conns.empty()) {
    // Recycled object: rebind in place — no allocation, the churn steady state.
    slot.conn = std::move(lifecycle.free_conns.back());
    lifecycle.free_conns.pop_back();
    slot.conn->pcb.Reset(flow_id, core);
  } else {
    slot.conn = std::make_unique<Connection>(flow_id, core);
  }
  // Fresh fairness budget for the (possibly reincarnated) flow: a recycled slot
  // must not inherit its predecessor's token debt. No-op rate when overload is off.
  slot.conn->bucket.Reset(flow_rate_rps_, flow_burst_, NowNanos());
  stats_[static_cast<size_t>(core)]->flows_opened++;
  uint64_t open = open_flows_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = peak_open_flows_.load(std::memory_order_relaxed);
  while (open > peak &&
         !peak_open_flows_.compare_exchange_weak(peak, open,
                                                 std::memory_order_relaxed)) {
  }
  return slot.conn.get();
}

void Runtime::HandleControlEvent(const ControlEvent& event, int core) {
  WorkerStats& stats = *stats_[static_cast<size_t>(core)];
  if (event.kind == ControlEventKind::kFlowOpened) {
    if (BindFlow(event.flow_id, core) == nullptr) {
      // Beyond the table: unserviceable — sever it right back.
      transport_->CloseFlow(core, event.flow_id);
    }
    return;
  }
  // kFlowClosed.
  stats.flows_closed++;
  if (event.flow_id >= connections_.size() || !connections_[event.flow_id].conn) {
    // The flow never bound a slot (refused at ingress, or opened and closed before
    // any segment on a lazy-binding transport): nothing to tear down, the id is
    // immediately safe to reuse.
    transport_->ReleaseFlowId(event.flow_id);
    return;
  }
  Connection& conn = *connections_[event.flow_id].conn;
  if (conn.closing) {
    return;  // duplicate close (e.g. sever racing a hangup): first one wins
  }
  conn.closing = true;
  lifecycle_[static_cast<size_t>(core)]->closing.push_back(event.flow_id);
}

uint64_t Runtime::ProcessClosing(int core) {
  CoreLifecycle& lifecycle = *lifecycle_[static_cast<size_t>(core)];
  if (lifecycle.closing.empty()) {
    return 0;
  }
  WorkerStats& stats = *stats_[static_cast<size_t>(core)];
  uint64_t recycled = 0;
  for (size_t i = 0; i < lifecycle.closing.size();) {
    uint64_t flow_id = lifecycle.closing[i];
    Slot& slot = connections_[flow_id];
    Connection* conn = slot.conn.get();
    // The §4.3 ownership discipline extended to teardown: while any core (home or
    // thief) owns the socket, the slot is untouchable — TryRetire refuses and we
    // retry next pass. Responses the owner ships home still find the PCB alive.
    if (!shuffle_.TryRetire(&conn->pcb)) {
      ++i;
      continue;
    }
    // Detached from the scheduler: drain events that will never execute (their peer
    // is gone; a TX would hit the floor anyway). They were counted in
    // injected_/accepted_, so retire them through completed_ like a dropped TX.
    uint64_t refused = 0;
    while (conn->pcb.PopEvent()) {
      refused++;
    }
    if (refused > 0) {
      stats.events_refused += refused;
      completed_.fetch_add(refused, std::memory_order_release);
    }
    // Reset in place — no allocation: the parser drops any half-reassembled frame
    // (and its pooled buffers) and the object returns to this core's freelist.
    conn->parser = FrameParser();
    conn->closing = false;
    lifecycle.free_conns.push_back(std::move(slot.conn));
    slot.generation.fetch_add(1, std::memory_order_release);
    stats.flows_recycled++;
    open_flows_.fetch_sub(1, std::memory_order_relaxed);
    recycled++;
    // The id is now safe to reincarnate; tell the transport's freelist.
    transport_->ReleaseFlowId(flow_id);
    lifecycle.closing[i] = lifecycle.closing.back();
    lifecycle.closing.pop_back();
  }
  return recycled;
}

uint64_t Runtime::ExecuteConnection(int core, Pcb* pcb, bool stolen) {
  WorkerStats& stats = *stats_[static_cast<size_t>(core)];
  // Grab every pending event: exclusive ownership covers the whole pipelined batch
  // (the paper's implicit per-flow batching, §6.2). Scratch is per-worker and this
  // function never nests, so steady state performs no vector growth.
  static thread_local std::vector<PcbEvent> events;
  events.clear();
  while (auto event = pcb->PopEvent()) {
    events.push_back(std::move(*event));
  }
  const OverloadOptions& overload = options_.overload;
  AdmissionController& admission = admission_[static_cast<size_t>(core)]->controller;
  static thread_local std::vector<TxSegment> responses;
  responses.clear();
  responses.reserve(events.size());
  for (PcbEvent& event : events) {
    TxSegment response;
    response.flow_id = pcb->flow_id();
    response.request_id = event.request_id;
    response.arrival = event.arrival;
    // Overload control at dispatch. Ingress verdicts (fairness/admission) arrive on
    // the event; the deadline check happens here, with a fresh clock read per event —
    // within one pipelined batch an earlier handler's service time must push later
    // requests past their deadline, or the gated-handler determinism tests (and real
    // stalls) would slip through on a stale batch timestamp.
    bool shed = event.shed_kind != ShedKind::kNone;
    if (overload.enabled && !shed) {
      Nanos rx = event.rx_nanos != 0 ? event.rx_nanos : event.arrival;
      Nanos waited = NowNanos() - rx;
      if (deadline_budget_ > 0 && waited > deadline_budget_) {
        shed = true;
        stats.sheds_deadline++;
      } else if (overload.adaptive) {
        admission.ObserveQueueing(waited);
      }
    }
    if (shed) {
      // Refusal reply: a header-only frame carrying kFrameFlagShed, through the
      // normal TX path so it stays in per-flow FIFO order behind earlier responses.
      // The handler never runs; the payload ref (already empty for ingress sheds)
      // drops with the event.
      response.frame = EncodeShedFrame(event.request_id);
      event.msg = MessageView();
    } else {
      // The handler reads the request straight out of pooled RX memory and writes the
      // response payload straight into the pooled TX frame; Finish stamps the header.
      ResponseBuilder builder(event.msg.payload.size());
      handler_(pcb->flow_id(), event.msg.payload, builder);
      response.frame = builder.Finish(event.request_id);
      // Drop the request bytes now (possibly a remote free back to the home core's
      // pool): the RX buffer must not stay pinned behind TX latency.
      event.msg = MessageView();
      stats.app_events++;
      if (stolen) {
        stats.stolen_events++;
      }
    }
    responses.push_back(std::move(response));
  }

  if (!stolen || responses.empty()) {
    // Home-core path (or a raced-to-empty claim): transmit directly, release ownership.
    TransmitBatch(core, std::span<TxSegment>(responses.data(), responses.size()));
    shuffle_.CompleteExecution(pcb);
    size_t executed = events.size();
    // Thread-local scratch keeps capacity only — transmitted frames release now,
    // not at this worker's next (possibly distant) execution.
    responses.clear();
    events.clear();
    return executed;
  }
  // Stolen path: ship response syscalls to the home core; the last one releases
  // ownership there, after its TX (§4.4's state machine discipline).
  int home = pcb->home_core();
  for (size_t i = 0; i < responses.size(); ++i) {
    RemoteSyscall call;
    call.tx = std::move(responses[i]);
    call.pcb = (i + 1 == responses.size()) ? pcb : nullptr;
    // The remote queue is bounded; a full queue back-pressures the thief (responses
    // must not be dropped).
    while (!remote_queues_[static_cast<size_t>(home)]->TryPushRef(call)) {
      std::this_thread::yield();
    }
  }
  size_t executed = events.size();
  responses.clear();  // elements were moved into the remote queue; drop the husks
  events.clear();
  return executed;
}

void Runtime::TransmitBatch(int core, std::span<TxSegment> batch) {
  if (batch.empty()) {
    return;
  }
  transport_->TransmitBatch(core, batch);
  completed_.fetch_add(batch.size(), std::memory_order_release);
}

}  // namespace zygos
