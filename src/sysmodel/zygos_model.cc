// Discrete-event execution of the ZygOS design (§4) over the cost model of §3 (hw/).
//
// The model instantiates the *real* shuffle-layer and PCB code (src/core, src/net) on
// simulated cores, so the scheduling decisions in the simulation are made by the same
// data structures the real-thread runtime uses; only time is virtual. Each core is a
// small state machine:
//
//   Idle   — passively parked; woken by arrivals/enqueues/remote syscalls
//   Kernel — running the dataplane (netstack RX, TX, remote syscalls, shuffle ops);
//            not interruptible (§4.5: kernel runs with interrupts disabled)
//   User   — executing one application event; interruptible by IPIs
//
// The event-driven idle loop is the work-conserving heart: a core with no local work
// scans other cores' shuffle queues (steal), then their raw packet queues (IPI the home
// core if it is stuck in user code). Wake-ups replace the real system's continuous
// polling: every state change that could give an idle core work triggers one.
#include <cassert>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/shuffle_layer.h"
#include "src/hw/packet.h"
#include "src/net/pcb.h"
#include "src/sim/simulator.h"
#include "src/sysmodel/system_model.h"
#include "src/sysmodel/workload.h"

namespace zygos {

namespace {

// A response generated by a remote (stealing) core, shipped back to the home core for
// transmission — the "remote batched syscalls" of Fig. 4 step (b). `pcb` is non-null
// only on the batch's final syscall, whose completion releases socket ownership.
struct RemoteSyscall {
  Pcb* pcb = nullptr;
  uint64_t request_id = 0;
  Nanos arrival = 0;
};

class ZygosSim {
 public:
  ZygosSim(const SystemRunParams& params, const ServiceTimeDistribution& service,
           bool use_ipis)
      : params_(params),
        use_ipis_(use_ipis),
        shuffle_(params.num_cores),
        workload_(sim_, params, service,
                  [this](const Packet& pkt, int home) { OnPacketArrival(pkt, home); }) {
    cores_.resize(static_cast<size_t>(params.num_cores));
    Rng seeder(params.seed ^ 0xc0ffee);
    for (auto& core : cores_) {
      core.rng = seeder.Fork();
    }
    pcbs_.reserve(static_cast<size_t>(params.num_connections));
    for (int i = 0; i < params.num_connections; ++i) {
      auto flow = static_cast<uint64_t>(i);
      pcbs_.push_back(std::make_unique<Pcb>(flow, workload_.HomeCoreOf(flow)));
    }
  }

  SystemRunResult Run() {
    workload_.Start();
    sim_.Run();
    result_.measured_end = last_completion_;
    return std::move(result_);
  }

 private:
  enum class Mode { kIdle, kKernel, kUser };

  struct CoreSim {
    std::deque<Packet> hw_ring;   // NIC descriptor ring (idle-loop priority (d))
    std::deque<Packet> sw_queue;  // pulled but unprocessed packets (priority (c))
    std::deque<RemoteSyscall> remote_queue;  // inbound remote syscalls
    Mode mode = Mode::kIdle;

    // Current user-mode job (valid in Mode::kUser). A job is the batch of events that
    // were pending on the grabbed socket — the paper's "implicit batching" of pipelined
    // same-flow requests (§6.2): exclusive ownership covers them all.
    Pcb* user_pcb = nullptr;
    std::vector<PcbEvent> user_events;
    bool user_stolen = false;
    EventHandle user_completion;
    Nanos user_completion_time = 0;

    bool ipi_inflight = false;  // an IPI to this core has been sent but not handled
    Rng rng;
  };

  CoreSim& Core(int c) { return cores_[static_cast<size_t>(c)]; }

  // ---------------------------------------------------------------------------------
  // Arrival path
  // ---------------------------------------------------------------------------------
  void OnPacketArrival(const Packet& pkt, int home) {
    CoreSim& core = Core(home);
    core.hw_ring.push_back(pkt);
    if (core.mode == Mode::kIdle) {
      ScheduleDecide(home, 0);
    } else if (core.mode == Mode::kUser && use_ipis_) {
      // An idle remote core polling rings (idle-loop step (d)) notices — after it gets
      // around to this ring in its sweep — and interrupts the home core. If nobody is
      // idle the packet waits for home's next kernel entry or for a core to become idle
      // (its idle scan checks rings too).
      if (AnyIdleCore(home)) {
        Nanos discovery = DiscoveryDelay(home);
        sim_.Schedule(discovery, [this, home] {
          CoreSim& target = Core(home);
          // Re-validate: the ring may have been drained or the core left user mode.
          if (target.mode == Mode::kUser && HasRawPackets(target) && AnyIdleCore(home)) {
            SendIpi(home);
          }
        });
      }
    }
  }

  // Time for an idle core's polling sweep to reach a newly published location.
  Nanos DiscoveryDelay(int victim) {
    Nanos sweep = params_.costs.idle_poll_sweep;
    if (sweep == 0) {
      return params_.costs.steal_probe;
    }
    return params_.costs.steal_probe +
           static_cast<Nanos>(Core(victim).rng.NextBounded(static_cast<uint64_t>(sweep)));
  }

  // ---------------------------------------------------------------------------------
  // IPIs (§4.5)
  // ---------------------------------------------------------------------------------
  void SendIpi(int target) {
    CoreSim& core = Core(target);
    if (core.ipi_inflight) {
      return;
    }
    core.ipi_inflight = true;
    result_.ipis++;
    sim_.Schedule(params_.costs.ipi_delivery, [this, target] { OnIpiArrive(target); });
  }

  void OnIpiArrive(int target) {
    CoreSim& core = Core(target);
    core.ipi_inflight = false;
    switch (core.mode) {
      case Mode::kIdle:
        ScheduleDecide(target, 0);
        return;
      case Mode::kKernel:
        return;  // hint only; the kernel loop will pick the work up itself
      case Mode::kUser: {
        // Preempt the user job: run the two handler duties (§4.5), then resume the
        // job with its remaining service time.
        Nanos remaining = core.user_completion_time - sim_.Now();
        assert(remaining >= 0);
        core.user_completion.Cancel();
        Nanos handler = params_.costs.ipi_handler;
        handler += DrainRemoteSyscalls(target, sim_.Now() + handler);
        // Duty (1): replenish the shuffle queue if it is empty.
        while (shuffle_.ApproxEmpty(target) && HasRawPackets(core)) {
          handler += NetProcessBatch(target);
        }
        Nanos resume = sim_.Now() + handler;
        core.user_completion_time = resume + remaining;
        core.user_completion = sim_.ScheduleAt(core.user_completion_time,
                                               [this, target] { OnUserComplete(target); });
        return;
      }
    }
  }

  // ---------------------------------------------------------------------------------
  // Kernel-path building blocks. These return the virtual duration of the work; the
  // caller advances time by scheduling its continuation after the returned span.
  // ---------------------------------------------------------------------------------
  static bool HasRawPackets(const CoreSim& core) {
    return !core.hw_ring.empty() || !core.sw_queue.empty();
  }

  // Executes all queued remote syscalls on their home core `c` (responses to stolen
  // events): charges per-syscall cost + TX, records completions, releases sockets.
  // `start` is the virtual time at which this work begins.
  Nanos DrainRemoteSyscalls(int c, Nanos start) {
    CoreSim& core = Core(c);
    Nanos elapsed = 0;
    while (!core.remote_queue.empty()) {
      RemoteSyscall call = core.remote_queue.front();
      core.remote_queue.pop_front();
      elapsed += params_.costs.remote_syscall + params_.costs.tx_per_packet;
      RecordCompletion(call.arrival, start + elapsed);
      if (call.pcb != nullptr) {
        ReleaseSocket(call.pcb);
      }
    }
    return elapsed;
  }

  // Pulls one bounded batch from the HW ring through the netstack: parses packets into
  // PCB events and enqueues ready connections into this core's shuffle queue. The queue
  // state is mutated immediately (the simulation is sequential), but remote thieves are
  // only *woken* after the per-packet processing offset plus their polling-sweep
  // discovery delay, so a thief cannot act on an enqueue before the home core's own
  // netstack would have published it.
  Nanos NetProcessBatch(int c) {
    CoreSim& core = Core(c);
    Nanos elapsed = params_.costs.rx_batch_fixed;
    // Driver stage: move up to batch_bound descriptors into the software queue.
    int pulled = 0;
    while (!core.hw_ring.empty() && pulled < params_.batch_bound) {
      core.sw_queue.push_back(core.hw_ring.front());
      core.hw_ring.pop_front();
      pulled++;
    }
    // Protocol stage: process the software queue (bounded by the same batch size).
    int processed = 0;
    while (!core.sw_queue.empty() && processed < params_.batch_bound) {
      Packet pkt = core.sw_queue.front();
      core.sw_queue.pop_front();
      processed++;
      elapsed += params_.costs.rx_per_packet;
      Pcb* pcb = pcbs_[static_cast<size_t>(pkt.flow_id)].get();
      pcb->PushEvent(PcbEvent{pkt.request_id, pkt.arrival, pkt.service, {}});
      if (shuffle_.NotifyPending(pcb)) {
        elapsed += params_.costs.shuffle_enqueue;
        WakeOneIdleThief(c, elapsed + DiscoveryDelay(c));
      }
    }
    return elapsed;
  }

  // Socket release after the last syscall of an event completed (busy -> ready|idle).
  void ReleaseSocket(Pcb* pcb) {
    if (shuffle_.CompleteExecution(pcb)) {
      int home = pcb->home_core();
      WakeOneIdleThief(home, DiscoveryDelay(home));
    }
  }

  // ---------------------------------------------------------------------------------
  // Wake-up plumbing: replaces continuous polling. One random idle core (if any) gets a
  // nudge; if it loses the race it simply finds nothing and parks again.
  // ---------------------------------------------------------------------------------
  bool AnyIdleCore(int except) const {
    for (int c = 0; c < params_.num_cores; ++c) {
      if (c != except && cores_[static_cast<size_t>(c)].mode == Mode::kIdle) {
        return true;
      }
    }
    return false;
  }

  void WakeOneIdleThief(int victim, Nanos delay) {
    // Candidates: idle cores other than the victim's home core (which is running its
    // kernel path already and will see its own queue).
    int count = 0;
    for (int c = 0; c < params_.num_cores; ++c) {
      if (c != victim && cores_[static_cast<size_t>(c)].mode == Mode::kIdle) {
        count++;
      }
    }
    if (count == 0) {
      return;
    }
    auto pick = static_cast<int>(Core(victim).rng.NextBounded(static_cast<uint64_t>(count)));
    for (int c = 0; c < params_.num_cores; ++c) {
      if (c != victim && cores_[static_cast<size_t>(c)].mode == Mode::kIdle) {
        if (pick-- == 0) {
          ScheduleDecide(c, delay);
          return;
        }
      }
    }
  }

  void ScheduleDecide(int c, Nanos delay) {
    CoreSim& core = Core(c);
    if (core.mode == Mode::kIdle) {
      core.mode = Mode::kKernel;  // claimed; prevents duplicate wake-ups
      sim_.Schedule(delay, [this, c] { Decide(c); });
    }
  }

  // ---------------------------------------------------------------------------------
  // The per-core main loop (Fig. 4): remote syscalls, netstack, local dequeue, idle
  // scan. Each call handles one unit of work and schedules its own continuation.
  // ---------------------------------------------------------------------------------
  void Decide(int c) {
    CoreSim& core = Core(c);
    core.mode = Mode::kKernel;

    // 1. Remote batched syscalls: timely responses for stolen work (highest priority —
    //    they hold exclusive socket ownership and directly add to RPC latency).
    if (!core.remote_queue.empty()) {
      Nanos span = DrainRemoteSyscalls(c, sim_.Now());
      sim_.Schedule(span, [this, c] { Decide(c); });
      return;
    }

    // 2. Network processing: replenish the shuffle queue from raw packets.
    if (HasRawPackets(core)) {
      Nanos span = NetProcessBatch(c);
      sim_.Schedule(span, [this, c] { Decide(c); });
      return;
    }

    // 3. Local shuffle queue: execute the oldest ready connection.
    if (Pcb* pcb = shuffle_.DequeueLocal(c)) {
      BeginUserExecution(c, pcb, /*stolen=*/false,
                         params_.costs.shuffle_dequeue + params_.costs.app_dispatch);
      return;
    }

    // 4. Idle loop: steal from a remote shuffle queue, else IPI a home core sitting on
    //    raw packets, else park.
    IdleScan(c);
  }

  void IdleScan(int c) {
    CoreSim& core = Core(c);
    // Priority (b): remote shuffle queues, randomized victim order.
    std::vector<int> order;
    order.reserve(static_cast<size_t>(params_.num_cores - 1));
    for (int v = 0; v < params_.num_cores; ++v) {
      if (v != c) {
        order.push_back(v);
      }
    }
    if (params_.randomize_steal_victims) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[core.rng.NextBounded(i)]);
      }
    }
    for (int victim : order) {
      if (!shuffle_.ApproxEmpty(victim)) {
        if (Pcb* pcb = shuffle_.TrySteal(c, victim)) {
          BeginUserExecution(c, pcb, /*stolen=*/true,
                             params_.costs.steal_success + params_.costs.app_dispatch);
          return;
        }
      }
    }
    // Priorities (c) and (d): remote raw packets; serviceable only via IPI.
    if (use_ipis_) {
      for (int victim : order) {
        const CoreSim& vcore = cores_[static_cast<size_t>(victim)];
        if (vcore.mode == Mode::kUser && !vcore.ipi_inflight && HasRawPackets(vcore)) {
          SendIpi(victim);
          break;  // one interrupt per scan; park and wait for the shuffle enqueue
        }
      }
    }
    core.mode = Mode::kIdle;
  }

  void BeginUserExecution(int c, Pcb* pcb, bool stolen, Nanos kernel_prefix) {
    CoreSim& core = Core(c);
    // Grab every event pending on the socket: the event conditions handed to the
    // application cover all parsed requests, and exclusive ownership lasts until all
    // their responses are out (§4.3). For pipelined flows this is the paper's implicit
    // per-flow batching.
    core.user_events.clear();
    while (auto event = pcb->PopEvent()) {
      core.user_events.push_back(*event);
    }
    assert(!core.user_events.empty());
    core.mode = Mode::kUser;
    core.user_pcb = pcb;
    core.user_stolen = stolen;
    Nanos total_service = 0;
    for (const auto& event : core.user_events) {
      total_service += params_.costs.app_dispatch + event.service;
      result_.app_events++;
      if (stolen) {
        result_.steals++;
      }
    }
    // The first event's dispatch cost is part of kernel_prefix already.
    total_service -= params_.costs.app_dispatch;
    core.user_completion_time = sim_.Now() + kernel_prefix + total_service;
    core.user_completion =
        sim_.ScheduleAt(core.user_completion_time, [this, c] { OnUserComplete(c); });
  }

  void OnUserComplete(int c) {
    CoreSim& core = Core(c);
    core.mode = Mode::kKernel;
    Pcb* pcb = core.user_pcb;
    core.user_pcb = nullptr;
    if (!core.user_stolen) {
      // Home-core execution: transmit each response directly, back-to-back.
      Nanos elapsed = 0;
      for (const auto& event : core.user_events) {
        elapsed += params_.costs.tx_per_packet;
        RecordCompletion(event.arrival, sim_.Now() + elapsed);
      }
      ReleaseSocket(pcb);
      sim_.Schedule(elapsed, [this, c] { Decide(c); });
      return;
    }
    // Stolen execution: ship the response syscalls back to the home core (MPSC queue,
    // Fig. 4 step (b)); ownership is released there after the last TX.
    int home = pcb->home_core();
    CoreSim& home_core = Core(home);
    for (size_t i = 0; i < core.user_events.size(); ++i) {
      const auto& event = core.user_events[i];
      bool releases = (i + 1 == core.user_events.size());
      home_core.remote_queue.push_back(
          RemoteSyscall{releases ? pcb : nullptr, event.request_id, event.arrival});
    }
    if (home_core.mode == Mode::kIdle) {
      ScheduleDecide(home, 0);
    } else if (home_core.mode == Mode::kUser && use_ipis_) {
      SendIpi(home);
    }
    sim_.Schedule(0, [this, c] { Decide(c); });
  }

  // ---------------------------------------------------------------------------------
  void RecordCompletion(Nanos arrival, Nanos completion) {
    completions_seen_++;
    if (completions_seen_ <= params_.warmup) {
      result_.measured_start = completion;
      return;
    }
    result_.latency.Record(completion - arrival);
    result_.completed++;
    last_completion_ = std::max(last_completion_, completion);
  }

  SystemRunParams params_;
  bool use_ipis_;
  Simulator sim_;
  ShuffleLayer shuffle_;
  std::vector<std::unique_ptr<Pcb>> pcbs_;
  std::vector<CoreSim> cores_;
  OpenLoopWorkload workload_;
  SystemRunResult result_;
  uint64_t completions_seen_ = 0;
  Nanos last_completion_ = 0;
};

}  // namespace

SystemRunResult RunZygosModel(const SystemRunParams& params,
                              const ServiceTimeDistribution& service, bool use_ipis) {
  ZygosSim sim(params, service, use_ipis);
  return sim.Run();
}

}  // namespace zygos
