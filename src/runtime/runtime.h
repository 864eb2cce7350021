// The ZygOS runtime: the paper's three-layer architecture (§4.2) executed by real
// threads.
//
//   layer 1  a pluggable Transport (src/runtime/transport.h): per-core receive queues
//            steered by RSS, batch-polled by each worker; frames are reassembled into
//            per-connection (PCB) event queues — coherency-free, home-core-only, like
//            the paper's lwIP-on-RSS layer 1. Backends: LoopbackTransport (in-process
//            harness), TcpTransport (real epoll sockets) and UringTransport
//            (io_uring sockets).
//   layer 2  shuffle layer: ready connections enter the home core's shuffle queue
//            (src/core/shuffle_layer.h); the home core or any idle remote core
//            atomically claims exclusive socket ownership (idle→ready→busy machine).
//   layer 3  execution layer: the claimed connection's pending requests are handed to
//            the application handler; responses from a *stolen* connection are shipped
//            back to the home core over an MPSC queue ("remote batched syscalls",
//            Fig. 4 step (b)) and transmitted there in one TransmitBatch pass, keeping
//            TX home-core-only.
//
// Connection lifecycle: the transport announces flow open/close as ControlEvents on
// the flow's home queue; the runtime binds connection slots out of a fixed,
// generation-tagged table (per-core freelists make churn allocation-free) and tears a
// closed flow down only once no core owns it (ShuffleLayer::TryRetire — the §4.3
// exclusive-ownership discipline extended to teardown), then hands the flow id back
// to the transport for reuse (Transport::ReleaseFlowId). Lifetime connections are
// unbounded; the table caps only concurrency. See docs/ARCHITECTURE.md "Connection
// lifecycle".
//
// Work conservation comes from the idle loop (§5): a worker with no local work peeks
// its own receive queue (step (a)), then, with RuntimeOptions::enable_stealing set,
// steals one ready connection from a remote shuffle queue (step (b),
// ShuffleLayer::StealAny). A worker whose steal found nothing peeks the receive queue
// of every core that is inside a handler and rings that core's Doorbell if packets
// wait there (steps (c)/(d)); a thief rings the home core's bell after shipping a
// stolen batch's responses. The bell is the live IPI (§4.5): user-level code cannot
// be interrupted, so a handler answers it at a safe point (Runtime::SafePoint), which
// drains the remote syscalls and polls one RX batch — new requests become stealable
// and the thieves' responses leave, then the handler resumes. A handler that never
// calls SafePoint serves its core's shipped responses and packets when it returns,
// as a worker loop pass drains and polls anyway. The discrete-event model
// (src/sysmodel/zygos_model.cc) models true preemption and its ablation;
// docs/ARCHITECTURE.md "Safe points: the live IPI" records the live measurement.
//
// Contract: all timestamps are wall-clock Nanos (std::steady_clock based). Inject/
// InjectBytes are thread-safe (any client thread, any time between Start and Shutdown;
// loopback-backed runtimes only). Start and Shutdown must each be called exactly once
// from one thread; Shutdown assumes external traffic sources have quiesced (every
// in-flight request's bytes fully delivered). Stats getters are racy-but-safe
// snapshots while running and exact after Shutdown returns. mutable_rss() may only be
// called while the runtime is quiescent (before Start or after Shutdown) — it aborts
// otherwise, mirroring a NIC's out-of-band indirection-table update.
#ifndef ZYGOS_RUNTIME_RUNTIME_H_
#define ZYGOS_RUNTIME_RUNTIME_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/rng.h"
#include "src/common/time_units.h"
#include "src/concurrency/cache_line.h"
#include "src/concurrency/mpmc_queue.h"
#include "src/core/shuffle_layer.h"
#include "src/net/message.h"
#include "src/net/pcb.h"
#include "src/runtime/transport.h"

namespace zygos {

// Read only by frozen perfbench/bench.cc: the runtime has one mode.
enum class RuntimeMode { kZygos };

// Application request handler, zero-copy form: the request is a view into pooled RX
// memory (valid only for the duration of the call) and the response payload is
// written directly into the pooled TX frame through the builder. Runs on whichever
// core claimed the connection; per-connection calls are serialized by socket
// ownership, so handlers for the same flow never run concurrently (the §4.3 ordering
// guarantee).
using ViewHandler = std::function<void(uint64_t flow_id, std::string_view request,
                                       ResponseBuilder& response)>;

struct RuntimeOptions {
  int num_workers = 4;
  // Read only by frozen perfbench/bench.cc; the runtime never reads it.
  RuntimeMode mode = RuntimeMode::kZygos;
  int num_flows = 64;
  int num_flow_groups = 128;
  size_t ring_capacity = 4096;
  // Upper bound on distinct flow ids the runtime will serve (connection-table size;
  // transports that mint flow ids dynamically, like TcpTransport, must stay below it).
  // 0 means max(num_flows, 4096).
  size_t max_flows = 0;
  // The live runtime's one scheduling ablation. false skips the idle loop's steal
  // step: no connection is ever claimed off its home core, so every core serves only
  // its own flows run-to-completion ("ZygOS-no-steal", the shared-nothing IX
  // baseline).
  bool enable_stealing = true;
  // Overload control, the one knob: a request whose queueing delay (dispatch time
  // - arrival) exceeds this budget is answered with the wire-level shed frame
  // instead of running the handler. 0 (the default) runs no overload code.
  Nanos deadline_budget = 0;
};

// Connection-table capacity implied by `options` — the single source of truth for
// flow capacity. Transports that mint flow ids (TcpTransport) must cap them below
// this; derive their options with TcpOptionsFor (src/runtime/tcp_transport.h) instead
// of copying the number by hand, so the two can never drift.
inline size_t ResolvedMaxFlows(const RuntimeOptions& options) {
  size_t floor = static_cast<size_t>(options.num_flows);
  return options.max_flows != 0 ? std::max(floor, options.max_flows)
                                : std::max<size_t>(floor, 4096);
}

// Cache-line aligned: each worker writes its own struct every scheduling pass, and
// adjacent workers' stats sharing a line would turn those writes into coherence
// traffic (the false-sharing hazard kCacheLineSize exists to prevent).
struct alignas(kCacheLineSize) WorkerStats {
  uint64_t rx_segments = 0;
  uint64_t rx_batches = 0;        // PollBatch calls that returned ≥1 segment
  uint64_t app_events = 0;        // requests executed on this core
  uint64_t stolen_events = 0;     // requests this core executed for another home core
  uint64_t remote_syscalls = 0;   // responses executed here on behalf of thieves
  uint64_t doorbells_sent = 0;    // doorbells this core rang (silent bell -> rung)
  // Buffer-pool observability (this worker's thread pool, refreshed every pass):
  // heap allocations per request on this core == pool_misses / app_events; flat
  // pool_misses after warmup is the allocation-free steady state.
  uint64_t pool_hits = 0;         // allocations served from the freelist
  uint64_t pool_misses = 0;       // slab growth + oversized fallbacks (heap allocs)
  uint64_t pool_remote_frees = 0; // buffers this core shipped home to another pool
  // Connection lifecycle (flows homed on this core):
  uint64_t flows_opened = 0;      // slots bound (explicit kFlowOpened or lazy first segment)
  uint64_t flows_closed = 0;      // kFlowClosed control events processed
  uint64_t flows_recycled = 0;    // slots fully torn down and returned to the freelist
  uint64_t events_refused = 0;    // accepted events drained unexecuted at teardown
  // Overload control (zero unless RuntimeOptions::deadline_budget > 0):
  uint64_t sheds_deadline = 0;    // shed at dispatch: queueing delay ate the budget
  // Segments that arrived with arrival == 0 (transport failed to stamp; the runtime
  // backfills with its own clock). The conformance suite gates this to zero for
  // every backend.
  uint64_t rx_unstamped = 0;
};

// One core's doorbell, the live runtime's IPI (§4.5). Cache-line aligned: other
// cores read `in_handler` and write `rung`, the owner spins on `rung` at safe points.
struct alignas(kCacheLineSize) Doorbell {
  // Set by another core (an idle peeker or a thief with shipped responses); cleared by
  // the owner before it drains and polls, at a safe point or a worker loop pass.
  std::atomic<bool> rung{false};
  // The owner is executing a claimed connection's handlers; only such a core is worth
  // ringing for packets, every other one polls its receive queue on its next pass.
  std::atomic<bool> in_handler{false};
};

class Runtime {
 public:
  // Loopback-backed runtime: builds a LoopbackTransport sized from `options` and wires
  // `on_complete` as its completion handler (the historical harness constructor).
  Runtime(RuntimeOptions options, ViewHandler handler, CompletionHandler on_complete);

  // Transport-agnostic form: the runtime drives whatever layer-1 substrate it is
  // given. `transport->num_queues()` must equal options.num_workers. The completion
  // handler is the transport's property — set it there before Start.
  Runtime(RuntimeOptions options, std::unique_ptr<Transport> transport,
          ViewHandler handler);

  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Launches the transport and the worker threads. Must be called once before Inject.
  void Start();

  // Waits until every accepted request has completed, then stops the workers and the
  // transport. Callers must first quiesce traffic sources (loopback: stop injecting;
  // TCP: clients received every response they will wait for).
  void Shutdown();

  // Client-side entry: frames `payload` as one RPC message on `flow_id` and delivers
  // the bytes to the flow's home ring. Returns false on a full ring (dropped) and
  // always false on transports without in-process ingress (TcpTransport). The
  // segment is stamped with the injection time, which the completion handler reports
  // back as the request's arrival.
  bool Inject(uint64_t flow_id, uint64_t request_id, const std::string& payload);

  // Raw-bytes entry for tests: delivers exactly `bytes` (which may contain partial or
  // multiple frames) to the flow's home ring. `expected_messages` is the number of
  // complete messages the bytes will eventually complete (for Shutdown accounting).
  bool InjectBytes(uint64_t flow_id, std::string bytes, uint64_t expected_messages);

  // Statistics (stable after Shutdown; racy-but-safe snapshots while running).
  const WorkerStats& StatsFor(int worker) const { return *stats_[static_cast<size_t>(worker)]; }
  WorkerStats TotalStats() const;
  ShuffleStats TotalShuffleStats() const;
  uint64_t NicDrops() const { return transport_->Drops(); }
  uint64_t Injected() const { return injected_.load(std::memory_order_relaxed); }
  // Messages fully parsed by the netstack (the TCP-side analogue of Injected()).
  uint64_t Accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t Completed() const { return completed_.load(std::memory_order_relaxed); }

  // Connection-table occupancy: slots currently bound to a live flow (gauge) and the
  // high-water mark since Start. Under churn the gauge stays near the concurrent
  // connection count while lifetime connections grow without bound — the "fixed table
  // occupancy" the slot recycling exists to provide.
  uint64_t OpenFlows() const { return open_flows_.load(std::memory_order_relaxed); }
  uint64_t PeakOpenFlows() const {
    return peak_open_flows_.load(std::memory_order_relaxed);
  }
  // Generation tag of a flow's table slot: bumped each time the slot is recycled, so
  // tests can assert a slot was NOT recycled while its connection was stolen/owned
  // (the §4.3 ordering discipline extended to teardown). Racy-but-safe while running;
  // exact at quiescence.
  uint32_t FlowGeneration(uint64_t flow_id) const {
    return connections_[flow_id].generation.load(std::memory_order_acquire);
  }

  // Home core of a flow under the current RSS programming (tests use this to build
  // skewed layouts).
  int HomeCoreOf(uint64_t flow_id) const { return transport_->QueueOf(flow_id); }
  // Aborts unless the runtime is quiescent (not started, or stopped): reprogramming
  // the indirection table races with concurrent delivery otherwise.
  RssTable& mutable_rss();

  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

  const RuntimeOptions& options() const { return options_; }

  // The handler side of the live IPI. Called from inside a handler on a worker thread,
  // it answers the worker's rung doorbell: clears it, drains the core's remote
  // syscalls and polls one RX batch (so packets behind a long handler become
  // stealable), and returns the wall-clock time that took. Returns 0 at once when the
  // bell is silent, on a thread that is not inside a handler, and when nested (a
  // completion callback run by the safe point itself). A handler that burns a service
  // time must add the returned time to its deadline: safe-point work is not service.
  static Nanos SafePoint();

 private:
  // One response shipped from a thief back to the home core (Fig. 4 step (b)).
  struct RemoteSyscall {
    TxSegment tx;
    Pcb* pcb = nullptr;  // non-null on the batch's last response: releases ownership
  };

  struct Connection {
    explicit Connection(uint64_t flow_id, int home_core) : pcb(flow_id, home_core) {}
    Pcb pcb;
    FrameParser parser;  // touched only by the home core (layer-1 isolation)
    // kFlowClosed seen; awaiting scheduler quiescence (TryRetire) to recycle. While
    // set, further segments/closes for the flow are refused/ignored.
    bool closing = false;
  };

  // One entry of the flow-id-indexed connection table. The Connection object is
  // detachable (per-core freelist) so churn recycles it allocation-free; the
  // generation stays with the slot and counts completed teardowns.
  struct Slot {
    std::unique_ptr<Connection> conn;
    std::atomic<uint32_t> generation{0};
  };

  // Per-core teardown state: flows whose close is waiting out an owner, plus the
  // freelist of recycled Connection objects ready to rebind. Touched only by the
  // owning worker — cache-line isolated like WorkerStats.
  struct alignas(kCacheLineSize) CoreLifecycle {
    std::vector<uint64_t> closing;
    std::vector<std::unique_ptr<Connection>> free_conns;
  };

  // RX/TX batch sizes per scheduling pass.
  static constexpr size_t kRxBatch = 64;
  static constexpr size_t kTxBatch = 64;

  void WorkerLoop(int core);
  // Rings `target`'s doorbell from `core`; counts the ring when the bell was silent.
  void Ring(int target, int core);
  // Idle-loop steps (c)/(d): rings every other core that is inside a handler while
  // packets wait on its receive queue.
  void RingBusyHomes(int core);
  // Drains this core's remote-syscall queue in batches; returns the number executed.
  uint64_t DrainRemoteSyscalls(int core);
  // Pulls one transport batch from the core's queue through the parser into PCB event
  // queues; returns segments consumed.
  uint64_t NetstackRx(int core);
  // Executes every pending event of a claimed connection; handles home vs stolen
  // response paths. Returns events executed.
  uint64_t ExecuteConnection(int core, Pcb* pcb, bool stolen);
  // Transmits a batch of responses on the home core and records their completion.
  void TransmitBatch(int core, std::span<TxSegment> batch);
  // Home-core connection lookup, bound on first segment if no kFlowOpened preceded it
  // (the flow's home core is the queue its bytes arrive on, so binding is
  // single-threaded per slot). Returns nullptr for flow ids beyond the table and for
  // flows mid-teardown; the caller severs the flow.
  Connection* ConnectionFor(uint64_t flow_id, int core);
  // Binds `flow_id`'s slot to a Connection (from the core's freelist when possible),
  // marking it open. Returns nullptr for ids beyond the table.
  Connection* BindFlow(uint64_t flow_id, int core);
  // Processes one transport control event on the flow's home core.
  void HandleControlEvent(const ControlEvent& event, int core);
  // Attempts teardown of every flow on this core's closing list: once the scheduler
  // lets go (TryRetire), drains unserved events, resets the parser in place, bumps
  // the slot generation, returns the Connection to the freelist and releases the
  // flow id back to the transport. Returns the number of slots recycled.
  uint64_t ProcessClosing(int core);

  RuntimeOptions options_;
  ViewHandler handler_;
  std::unique_ptr<Transport> transport_;
  ShuffleLayer shuffle_;
  // Flow-id-indexed, fixed size (ResolvedMaxFlows): ids are recycled by transports,
  // never grown past the table. Slot addresses are stable without synchronization.
  std::vector<Slot> connections_;
  std::vector<std::unique_ptr<CoreLifecycle>> lifecycle_;
  std::vector<std::unique_ptr<MpmcQueue<RemoteSyscall>>> remote_queues_;
  std::vector<std::unique_ptr<WorkerStats>> stats_;
  std::vector<std::unique_ptr<Doorbell>> doorbells_;
  std::vector<std::thread> workers_;
  std::vector<Rng> worker_rngs_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> flow_overflow_warned_{false};
  std::atomic<uint64_t> injected_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> open_flows_{0};
  std::atomic<uint64_t> peak_open_flows_{0};
};

}  // namespace zygos

#endif  // ZYGOS_RUNTIME_RUNTIME_H_
