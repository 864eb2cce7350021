// perfbench: the served system measured end to end and layer by layer.
//
// One process runs one workload against the real Runtime in ZygOS mode (2 workers,
// real loopback sockets) and drives it from one open-loop generator thread
// (RunTcpLoadgen, 4 connections) and one closed-loop saturation thread
// (perfbench/closed_loop.h). With --trace 0 it prints the end-to-end metrics of an
// untraced run; with --trace 1 it repeats the untraced phases, then serves the same
// data through the tracing harness (perfbench/trace.h) and prints per-layer metrics.
// The last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. If a correctness check failed, the process
// exits with code 1 after printing it.
//
// Usage: perfbench --workload kv-usr|kv-etc-uring|spin-skew|tpcc --seed N
//                  --seconds S --trace 0|1
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/closed_loop.h"
#include "perfbench/host.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "src/common/distribution.h"
#include "src/db/database.h"
#include "src/db/tpcc_loader.h"
#include "src/kvstore/protocol.h"
#include "src/kvstore/service.h"
#include "src/kvstore/workload.h"
#include "src/loadgen/spin_service.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/loadgen/tpcc_gen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/socket_transport.h"
#include "src/runtime/tcp_transport.h"
#include "src/runtime/uring_transport.h"
#include "src/services/tpcc_service.h"

namespace perfbench {
namespace {

using zygos::kMillisecond;
using zygos::kSecond;
using zygos::NowNanos;

enum class Service { kKv, kSpin, kTpcc };
enum class Backend { kEpoll, kUring };

// Rates are fixed request rates, not fractions of a calibrated peak: a calibration
// probe would move the load together with the code under test. perfbench/README.md
// records how each was chosen.
struct WorkloadSpec {
  const char* name;
  Service service;
  Backend backend;
  zygos::KvWorkloadKind kv_kind;
  bool skew;        // every flow group homed on core 0: core 1 works only by stealing
  double low_rps;
  double mid_rps;
  int window;       // closed-loop requests outstanding per connection
  int setup_reps;   // set-ups per run; setup_s is their median
};

constexpr WorkloadSpec kWorkloads[] = {
    {"kv-usr", Service::kKv, Backend::kEpoll, zygos::KvWorkloadKind::kUsr, false,
     10'000, 30'000, 32, 11},
    {"kv-etc-uring", Service::kKv, Backend::kUring, zygos::KvWorkloadKind::kEtc, false,
     10'000, 25'000, 32, 11},
    {"spin-skew", Service::kSpin, Backend::kEpoll, zygos::KvWorkloadKind::kUsr, true,
     5'000, 15'000, 8, 41},
    {"tpcc", Service::kTpcc, Backend::kEpoll, zygos::KvWorkloadKind::kUsr, false,
     1'500, 2'200, 8, 21},
};

constexpr int kWorkers = 2;
constexpr int kConnections = 4;
constexpr zygos::Nanos kSpinMean = 25 * zygos::kMicrosecond;

// ---------------------------------------------------------------------------
// Oracles: request builders and response checks for the closed loop.
// ---------------------------------------------------------------------------

// GETs must hit (every key is populated and nothing deletes) and return a value of
// the workload's shape. A connection SETs only keys it owns (index % connections),
// so a later GET of such a key on the same connection must return exactly the length
// it wrote: per-flow order makes that answer known.
class KvOracle final : public Oracle {
 public:
  KvOracle(const zygos::KvWorkload& workload, int connections)
      : workload_(workload),
        connections_(static_cast<uint64_t>(connections)),
        written_(workload.spec().num_keys, -1) {}

  void Next(int conn, zygos::Rng& rng, std::string& payload,
            Expectation& expect) override {
    const zygos::KvWorkloadSpec& spec = workload_.spec();
    uint64_t index = rng.NextBounded(spec.num_keys);
    auto owner = static_cast<uint64_t>(conn);
    zygos::KvRequest request;
    if (rng.NextBool(spec.get_fraction)) {
      request.op = zygos::KvOp::kGet;
      expect.value = index % connections_ == owner ? written_[index] : -1;
    } else {
      index = index - index % connections_ + owner;
      if (index >= spec.num_keys) {
        index -= connections_;
      }
      request.op = zygos::KvOp::kSet;
      request.value = workload_.SampleValue(rng);
      written_[index] = static_cast<int64_t>(request.value.size());
    }
    request.key = workload_.KeyAt(index);
    expect.op = static_cast<uint8_t>(request.op);
    payload = zygos::EncodeKvRequest(request);
  }

  bool Check(const Expectation& expect, std::string_view response) override {
    auto decoded = zygos::DecodeKvResponse(response);
    if (!decoded.has_value() || decoded->status != zygos::KvStatus::kOk) {
      return false;
    }
    const std::string& value = decoded->value;
    if (expect.op == static_cast<uint8_t>(zygos::KvOp::kSet)) {
      return value.empty();
    }
    if (expect.value >= 0 && value.size() != static_cast<size_t>(expect.value)) {
      return false;
    }
    bool usr = workload_.spec().kind == zygos::KvWorkloadKind::kUsr;
    bool shape = usr ? value.size() == 2 : value.size() >= 2 && value.size() < 1024;
    return shape && std::all_of(value.begin(), value.end(),
                                [](char c) { return c == 'v'; });
  }

 private:
  const zygos::KvWorkload& workload_;
  uint64_t connections_;
  std::vector<int64_t> written_;  // value length last SET by the key's owner
};

// The spin service echoes its request.
class EchoOracle final : public Oracle {
 public:
  void Next(int conn, zygos::Rng& rng, std::string& payload,
            Expectation& expect) override {
    (void)conn;
    expect.key = rng.NextU64();
    payload.assign(reinterpret_cast<const char*>(&expect.key), sizeof expect.key);
  }
  bool Check(const Expectation& expect, std::string_view response) override {
    return response.size() == sizeof expect.key &&
           std::memcmp(response.data(), &expect.key, sizeof expect.key) == 0;
  }
};

// Every TPC-C answer must decode, name the transaction that was asked for, and not be
// kMalformed (the generator never sends garbage). User aborts are legitimate.
class TpccOracle final : public Oracle {
 public:
  explicit TpccOracle(const zygos::LoaderOptions& scale)
      : factory_(zygos::MakeTpccPayloadFactory(scale)) {}

  void Next(int conn, zygos::Rng& rng, std::string& payload,
            Expectation& expect) override {
    (void)conn;
    factory_(rng, payload);
    expect.op = static_cast<uint8_t>(payload.empty() ? 0xff : payload[0]);
  }
  bool Check(const Expectation& expect, std::string_view response) override {
    auto decoded = zygos::DecodeTpccResponse(response);
    return decoded.has_value() && decoded->status != zygos::TpccWireStatus::kMalformed &&
           static_cast<uint8_t>(decoded->type) == expect.op;
  }

 private:
  std::function<void(zygos::Rng&, std::string&)> factory_;
};

// ---------------------------------------------------------------------------
// The served application: its data outlives successive runtimes.
// ---------------------------------------------------------------------------

class App {
 public:
  App(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
    switch (spec.service) {
      case Service::kKv:
        kv_workload_ = std::make_unique<zygos::KvWorkload>(
            spec.kv_kind == zygos::KvWorkloadKind::kUsr ? zygos::KvWorkloadSpec::Usr()
                                                        : zygos::KvWorkloadSpec::Etc(),
            seed);
        kv_ = std::make_unique<zygos::KvService>();
        kv_workload_->Populate(*kv_);
        break;
      case Service::kSpin:
        spin_ = zygos::MakeSpinService(
            std::make_shared<zygos::ExponentialDistribution>(kSpinMean),
            zygos::ServiceMode::kSpin, seed);
        break;
      case Service::kTpcc:
        db_ = std::make_unique<zygos::Database>();
        tpcc_ = std::make_unique<zygos::TpccService>(*db_, zygos::LoadTpcc(*db_, scale_),
                                                     scale_);
        break;
    }
  }

  App(const App&) = delete;
  App& operator=(const App&) = delete;

  // The untraced application handler. KV statuses other than kOk are unexpected on
  // these workloads; they are counted here (a branch not taken in a clean run).
  zygos::ViewHandler Handler() {
    switch (spec_.service) {
      case Service::kKv:
        return [this](uint64_t, std::string_view request,
                      zygos::ResponseBuilder& response) {
          if (kv_->HandleView(request, response) != zygos::KvStatus::kOk) {
            kv_failures_.fetch_add(1, std::memory_order_relaxed);
          }
        };
      case Service::kSpin:
        return spin_;
      case Service::kTpcc:
        return tpcc_->Handler();
    }
    return nullptr;
  }

  // Open-loop request factory (called on the generator thread).
  std::function<void(zygos::Rng&, std::string&)> PayloadFactory() {
    switch (spec_.service) {
      case Service::kKv:
        return [this](zygos::Rng& rng, std::string& out) {
          out = kv_workload_->SampleRequest(rng);
        };
      case Service::kSpin:
        return [](zygos::Rng& rng, std::string& out) {
          uint64_t word = rng.NextU64();
          out.assign(reinterpret_cast<const char*>(&word), sizeof word);
        };
      case Service::kTpcc:
        return zygos::MakeTpccPayloadFactory(scale_);
    }
    return nullptr;
  }

  std::unique_ptr<Oracle> MakeOracle() const {
    switch (spec_.service) {
      case Service::kKv:
        return std::make_unique<KvOracle>(*kv_workload_, kConnections);
      case Service::kSpin:
        return std::make_unique<EchoOracle>();
      case Service::kTpcc:
        return std::make_unique<TpccOracle>(scale_);
    }
    return nullptr;
  }

  // Application-level failures the server saw: KV non-OK answers, TPC-C kMalformed.
  uint64_t Failures() const {
    return kv_failures_.load(std::memory_order_relaxed) +
           (tpcc_ ? tpcc_->malformed() : 0);
  }
  const zygos::TpccService* tpcc() const { return tpcc_.get(); }

 private:
  const WorkloadSpec& spec_;
  // TPC-C at the loader's tiny scale (1 warehouse, 200 items, 30 customers and 30
  // orders per district): its tables fit in cache. At full scale (~300 MB) every
  // TPC-C metric followed the shared host's memory contention, spreading 30 to 45%
  // between runs; see perfbench/README.md.
  zygos::LoaderOptions scale_ = zygos::LoaderOptions::Tiny(1);
  std::unique_ptr<zygos::KvWorkload> kv_workload_;
  std::unique_ptr<zygos::KvService> kv_;
  zygos::ViewHandler spin_;
  std::unique_ptr<zygos::Database> db_;
  std::unique_ptr<zygos::TpccService> tpcc_;
  std::atomic<uint64_t> kv_failures_{0};
};

// A running server over an App: transport, optional tracing harness, runtime.
struct Served {
  std::unique_ptr<SpanRecorder> recorder;  // traced only; outlives the runtime
  std::unique_ptr<zygos::Runtime> runtime;
  zygos::SocketTransportBase* socket = nullptr;
  zygos::UringTransport* uring = nullptr;

  uint16_t port() const { return socket->port(); }
};

std::unique_ptr<Served> Serve(const WorkloadSpec& spec, App& app, bool traced) {
  auto served = std::make_unique<Served>();
  zygos::RuntimeOptions options;
  options.num_workers = kWorkers;
  options.mode = zygos::RuntimeMode::kZygos;
  options.num_flows = kConnections;
  zygos::TcpTransportOptions tcp = zygos::TcpOptionsFor(options);
  std::unique_ptr<zygos::Transport> transport;
  if (spec.backend == Backend::kUring) {
    // Served defaults: multishot and SEND_ZC on, SQPOLL off (its poller claims a core).
    auto uring = std::make_unique<zygos::UringTransport>(zygos::UringTransportOptions(tcp));
    served->uring = uring.get();
    served->socket = uring.get();
    transport = std::move(uring);
  } else {
    auto epoll = std::make_unique<zygos::TcpTransport>(tcp);
    served->socket = epoll.get();
    transport = std::move(epoll);
  }
  zygos::ViewHandler handler = app.Handler();
  if (traced) {
    served->recorder =
        std::make_unique<SpanRecorder>(kWorkers, zygos::ResolvedMaxFlows(options));
    auto tracing =
        std::make_unique<TracingTransport>(std::move(transport), *served->recorder);
    handler = TracedHandler(std::move(handler), *served->recorder, *tracing);
    transport = std::move(tracing);
  }
  served->runtime = std::make_unique<zygos::Runtime>(options, std::move(transport),
                                                     std::move(handler));
  // The benchmark's connections always get flow ids 0..kConnections-1: ids are
  // recycled, and every phase waits for the previous connections' teardown
  // (AwaitQuiescent). Their flow groups are programmed so that each core is home to
  // an equal share, as RSS over many connections would give on average; with
  // `skew`, every group is homed on core 0.
  zygos::RssTable& rss = served->runtime->mutable_rss();
  std::vector<int> table(static_cast<size_t>(options.num_flow_groups));
  for (size_t g = 0; g < table.size(); ++g) {
    table[g] = spec.skew ? 0 : static_cast<int>(g) % kWorkers;
  }
  for (int f = 0; f < kConnections && !spec.skew; ++f) {
    table[static_cast<size_t>(rss.FlowGroupOf(static_cast<uint64_t>(f)))] = f % kWorkers;
  }
  rss.SetIndirection(std::move(table));
  served->runtime->Start();
  return served;
}

// One request answered end to end: the server is accepting and serving.
bool FirstRoundTrip(uint16_t port, Oracle& oracle, uint64_t seed) {
  int fd = ConnectLoopback(port);
  if (fd < 0) {
    return false;
  }
  zygos::Rng rng(seed);
  std::string payload;
  Expectation expect;
  oracle.Next(0, rng, payload, expect);
  std::string frame;
  zygos::EncodeMessage(0, payload, frame);
  bool ok = SendAll(fd, frame);
  zygos::FrameParser parser;
  char buffer[4096];
  while (ok && !parser.HasMessages()) {
    ssize_t r = ::recv(fd, buffer, sizeof buffer, 0);
    ok = r > 0 && parser.Feed(buffer, static_cast<size_t>(r));
  }
  if (ok) {
    std::vector<zygos::Message> messages = parser.TakeMessages();
    ok = messages.size() == 1 && messages[0].request_id == 0 && !messages[0].shed &&
         oracle.Check(expect, messages[0].payload);
  }
  ::close(fd);
  return ok;
}

// ---------------------------------------------------------------------------
// Phases and their counters.
// ---------------------------------------------------------------------------

double Us(zygos::Nanos ns) { return static_cast<double>(ns) / 1e3; }

double Seconds(zygos::Nanos ns) { return static_cast<double>(ns) / 1e9; }

struct Counters {
  zygos::WorkerStats worker;
  zygos::ShuffleStats shuffle;
  uint64_t syscalls = 0;
  uint64_t completed = 0;
  uint64_t app_failures = 0;
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t malformed = 0;
  uint64_t occ_retries = 0;
};

Counters Snapshot(const Served& served, const App& app) {
  Counters c;
  c.worker = served.runtime->TotalStats();
  c.shuffle = served.runtime->TotalShuffleStats();
  c.syscalls = served.runtime->transport().IoSyscalls();
  c.completed = served.runtime->Completed();
  c.app_failures = app.Failures();
  if (const zygos::TpccService* tpcc = app.tpcc()) {
    c.commits = tpcc->commits();
    c.user_aborts = tpcc->user_aborts();
    c.malformed = tpcc->malformed();
    c.occ_retries = tpcc->occ_retries();
  }
  return c;
}

// Waits until the server has answered everything it accepted and torn down every
// connection, so that counters read between phases belong to one phase and the next
// connections reuse the same flow ids. Flow ids choose home cores (RSS), so reusing
// them keeps the split of connections over cores the same in every window and run.
void AwaitQuiescent(const Served& served) {
  zygos::Nanos deadline = NowNanos() + 2 * kSecond;
  while ((served.runtime->Completed() < served.runtime->Accepted() ||
          served.runtime->OpenFlows() > 0) &&
         NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // The runtime counts a flow closed just before it hands the id back.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// Accumulates attempts, failures and correctness across every phase of a run.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void Fail(const std::string& note) {
    correct = false;
    notes.push_back(note);
  }
};

// What every phase needs: the server, its application, the host-noise monitor and
// the run's ledger.
struct Phase {
  const WorkloadSpec& spec;
  const Served& served;
  App& app;
  const StealMonitor& steal;
  Ledger& ledger;
};

// An open-loop phase runs as back-to-back windows of this length, each a fresh
// RunTcpLoadgen call with its own warmup, so that the windows a host stall disturbed
// can be left out of the end-to-end figures. A closed-loop phase counts its
// completions per window of the same length.
constexpr zygos::Nanos kWindow = kSecond / 4;
constexpr zygos::Nanos kOpenLoopWarmup = kSecond / 20;

// The windows of one open-loop rate, possibly gathered over several servers.
struct OpenLoopPhase {
  std::vector<zygos::LatencyHistogram> histograms;
  std::vector<double> disturbance;  // host steal plus generator send lag, per window
  zygos::LatencyHistogram all;      // every window
  zygos::Nanos stolen = 0;
  zygos::Nanos wall = 0;
  zygos::Nanos max_send_lag = 0;
  uint64_t sent = 0;
  Counters before;  // around the first and the last RunOpenLoop call
  Counters after;

  // The windows that lost the least time to the host.
  zygos::LatencyHistogram Quiet() const {
    zygos::LatencyHistogram quiet;
    for (size_t w : QuietestWindows(disturbance)) {
      quiet.Merge(histograms[w]);
    }
    return quiet;
  }
};

// Runs `duration` of open-loop windows at `rate` against ctx.served and appends them
// to `phase`. Window seeds continue the phase's count, so no two windows share one.
void RunOpenLoop(const Phase& ctx, const char* name, double rate, zygos::Nanos duration,
                 uint64_t seed, OpenLoopPhase& phase) {
  AwaitQuiescent(ctx.served);
  Counters before = Snapshot(ctx.served, ctx.app);
  if (phase.histograms.empty()) {
    phase.before = before;
  }
  zygos::TcpLoadgenOptions gen;
  gen.port = ctx.served.port();
  gen.connections = kConnections;
  gen.threads = 1;
  gen.arrivals = zygos::ArrivalKind::kPoisson;
  gen.rate_rps = rate;
  gen.duration = kWindow;
  gen.warmup = kOpenLoopWarmup;
  gen.make_payload = ctx.app.PayloadFactory();
  std::vector<std::pair<zygos::Nanos, zygos::Nanos>> spans;
  std::vector<zygos::Nanos> lags;
  Ledger& ledger = ctx.ledger;
  const size_t windows = static_cast<size_t>(std::max<zygos::Nanos>(1, duration / kWindow));
  for (size_t w = 0; w < windows; ++w) {
    gen.seed = seed * 1000 + phase.histograms.size();
    zygos::TcpLoadgenResult r = zygos::RunTcpLoadgen(gen);
    AwaitQuiescent(ctx.served);
    spans.emplace_back(r.measure_start, r.measure_end);
    lags.push_back(r.max_send_lag);
    phase.histograms.push_back(r.latency);
    phase.all.Merge(r.latency);
    phase.max_send_lag = std::max(phase.max_send_lag, r.max_send_lag);
    phase.sent += r.sent;
    ledger.attempted += r.sent;
    ledger.failed += r.lost + r.shed + r.mismatches;
    uint64_t accounted = r.completed + r.shed + r.lost;
    if (accounted != r.sent) {
      ledger.failed += accounted > r.sent ? accounted - r.sent : r.sent - accounted;
      ledger.Fail(std::string(name) + ": loadgen ledger unbalanced");
    }
    if (r.mismatches > 0) {
      ledger.Fail(std::string(name) + ": responses out of per-flow order");
    }
  }
  phase.after = Snapshot(ctx.served, ctx.app);
  ledger.failed += phase.after.app_failures - before.app_failures;
  if (phase.after.malformed != before.malformed) {
    ledger.Fail(std::string(name) + ": TPC-C requests answered kMalformed");
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // monitor passes the end
  // A window's disturbance: time the host took from the busy threads, plus how late
  // the generator sent (its lateness is charged to every request behind it).
  for (size_t w = 0; w < spans.size(); ++w) {
    auto [from, to] = spans[w];
    zygos::Nanos ns = ctx.steal.StolenBetween(from, to);
    phase.disturbance.push_back(static_cast<double>(ns + lags[w]));
    phase.stolen += ns;
    phase.wall += to - from;
  }
}

void PrintOpenLoop(const char* name, double rate, const OpenLoopPhase& phase) {
  std::printf("# phase %-12s offered %6.0f rps  sent %7llu  p50 %.1f us (quiet %zu/%zu: "
              "%.1f us)  p99 %.1f us  send_lag_max %.1f us  stolen %.0f ms/s\n",
              name, rate, static_cast<unsigned long long>(phase.sent),
              Us(phase.all.P50()), QuietestWindows(phase.disturbance).size(),
              phase.histograms.size(), Us(phase.Quiet().P50()), Us(phase.all.P99()),
              Us(phase.max_send_lag),
              Ratio(static_cast<double>(phase.stolen) / 1e6, Seconds(phase.wall)));
}

struct ClosedLoopPhase {
  ClosedLoopResult result;
  double peak_rps = 0.0;  // median slice rate
  zygos::Nanos stolen = 0;
  Counters before;
  Counters after;
};

ClosedLoopPhase RunPeak(const Phase& ctx, const char* name, zygos::Nanos duration,
                        uint64_t seed) {
  ClosedLoopPhase phase;
  phase.before = Snapshot(ctx.served, ctx.app);
  std::unique_ptr<Oracle> oracle = ctx.app.MakeOracle();
  ClosedLoopOptions options;
  options.port = ctx.served.port();
  options.connections = kConnections;
  options.window = ctx.spec.window;
  options.duration = duration;
  options.warmup = std::min<zygos::Nanos>(duration / 5, kSecond / 2);
  options.slice = kWindow;
  options.seed = seed;
  phase.result = RunClosedLoop(options, *oracle);
  AwaitQuiescent(ctx.served);
  phase.after = Snapshot(ctx.served, ctx.app);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // monitor passes the end

  const ClosedLoopResult& r = phase.result;
  Ledger& ledger = ctx.ledger;
  ledger.attempted += r.sent;
  ledger.failed += r.failed();
  if (r.wrong > 0) {
    ledger.Fail(std::string(name) + ": " + std::to_string(r.wrong) + " wrong answers");
  }
  if (r.mismatches > 0) {
    ledger.Fail(std::string(name) + ": responses out of per-flow order");
  }
  if (ctx.app.tpcc() != nullptr) {
    // The service's own ledger must account for every answer the client checked.
    uint64_t commits = phase.after.commits - phase.before.commits;
    uint64_t aborts = phase.after.user_aborts - phase.before.user_aborts;
    uint64_t malformed = phase.after.malformed - phase.before.malformed;
    // A kMalformed answer is already a wrong answer to the oracle; an imbalance is
    // counted here.
    uint64_t accounted = commits + aborts + malformed;
    if (accounted != r.answered || malformed != 0) {
      ledger.failed += accounted > r.answered ? accounted - r.answered
                                              : r.answered - accounted;
      ledger.Fail(std::string(name) + ": TPC-C ledger commits+aborts+malformed != answered");
    }
  }

  for (size_t i = 0; i < r.slice_rps.size(); ++i) {
    zygos::Nanos from = r.measure_start + static_cast<zygos::Nanos>(i) * options.slice;
    phase.stolen += ctx.steal.StolenBetween(from, from + options.slice);
  }
  // The median slice: a stall drags down a few slices, not the median. Leaving out
  // the slices the host disturbed most, as the open loop does with its windows, made
  // the spread between runs smaller on one workload and larger on another.
  phase.peak_rps = Median(r.slice_rps);
  double wall = Seconds(static_cast<zygos::Nanos>(r.slice_rps.size()) * options.slice);
  std::printf("# phase %-12s closed loop %d x %d  sent %7llu  wrong %llu  lost %llu  "
              "peak %.0f rps (median of %zu slices)  stolen %.0f ms/s\n",
              name, kConnections, ctx.spec.window, static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.wrong),
              static_cast<unsigned long long>(r.lost), phase.peak_rps, r.slice_rps.size(),
              Ratio(static_cast<double>(phase.stolen) / 1e6, wall));
  return phase;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const std::string& note : ledger.notes) {
    std::printf("# check failed: %s\n", note.c_str());
  }
  std::printf("# fail_ratio = %.6g (%llu failed / %llu attempted)\n",
              FailRatio(ledger.failed, ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ledger.correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintHost(const Served& served) {
  utsname uts{};
  ::uname(&uts);
  std::printf("# host nproc %ld  kernel %s\n", ::sysconf(_SC_NPROCESSORS_ONLN),
              uts.release);
  if (zygos::UringTransport::Available()) {
    const zygos::UringProbe& probe = zygos::ProbeUring();
    std::printf("# io_uring probe: multishot %d  send_zc %d  sqpoll %d  buf_ring %d\n",
                probe.multishot, probe.send_zc, probe.sqpoll, probe.buf_ring);
  } else {
    std::printf("# io_uring unavailable: %s\n",
                zygos::UringTransport::UnavailableReason().c_str());
  }
  if (served.uring != nullptr) {
    std::printf("# io_uring granted: multishot %d  send_zc %d  sqpoll %d\n",
                served.uring->MultishotEnabled(), served.uring->SendZcEnabled(),
                served.uring->SqpollEnabled());
  }
}

// ---------------------------------------------------------------------------
// The two runs.
// ---------------------------------------------------------------------------

// One set-up: load the data, start the runtime, answer one request.
struct Server {
  std::unique_ptr<App> app;
  std::unique_ptr<Served> served;  // declared after the app: stops before it goes
  double setup_s = 0.0;
};

Server SetUp(const WorkloadSpec& spec, uint64_t seed, int rep, Ledger& ledger) {
  Server server;
  zygos::Nanos start = NowNanos();
  server.app = std::make_unique<App>(spec, seed);
  server.served = Serve(spec, *server.app, /*traced=*/false);
  std::unique_ptr<Oracle> oracle = server.app->MakeOracle();
  bool ok =
      FirstRoundTrip(server.served->port(), *oracle, seed + static_cast<uint64_t>(rep));
  server.setup_s = Seconds(NowNanos() - start);
  ledger.attempted++;
  if (!ok) {
    ledger.failed++;
    ledger.Fail("set-up: first request not answered correctly");
  }
  return server;
}

// Untraced: set-ups, then rounds. Each round sets up a fresh server and runs, on it,
// a stretch at the low rate, one at the mid rate and a closed-loop burst, a third of
// the round each. TPC-C's tables grow as it runs and its latency rises with them, so
// no stretch may inherit much of what earlier load left behind; and spreading every
// metric over the whole run samples the host over the whole run, so a slow spell
// of the host weighs on all of them alike rather than on whichever phase it hit.
constexpr zygos::Nanos kRound = 3 * kSecond;

int RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, zygos::Nanos budget,
                const StealMonitor& steal) {
  Ledger ledger;
  // The timed set-ups run back to back before any load: a set-up that follows a
  // phase took up to ten times longer on TPC-C, by how much depending on the phase.
  std::vector<double> setups;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    setups.push_back(SetUp(spec, seed, rep, ledger).setup_s);
  }
  const int rounds = static_cast<int>(std::max<zygos::Nanos>(1, budget / kRound));
  const zygos::Nanos each = budget / (3 * rounds);
  OpenLoopPhase low;
  OpenLoopPhase mid;
  std::vector<double> peak_slices;
  for (int round = 0; round < rounds; ++round) {
    Server server = SetUp(spec, seed, round, ledger);
    if (round == 0) {
      PrintHost(*server.served);
    }
    Phase ctx{spec, *server.served, *server.app, steal, ledger};
    RunOpenLoop(ctx, "low", spec.low_rps, each, seed * 3 + 1, low);
    RunOpenLoop(ctx, "mid", spec.mid_rps, each, seed * 3 + 2, mid);
    std::string name = "peak-" + std::to_string(round + 1);
    ClosedLoopPhase peak = RunPeak(ctx, name.c_str(), each,
                                   seed * 3 + 3 + (uint64_t{1} << 32) * round);
    peak_slices.insert(peak_slices.end(), peak.result.slice_rps.begin(),
                       peak.result.slice_rps.end());
  }
  PrintOpenLoop("low", spec.low_rps, low);
  PrintOpenLoop("mid", spec.mid_rps, mid);
  std::printf("# setup_s runs:");
  for (double s : setups) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");

  zygos::LatencyHistogram low_quiet = low.Quiet();
  zygos::LatencyHistogram mid_quiet = mid.Quiet();
  Percentile p99 = PercentileUs(mid_quiet, 0.99);
  std::printf("# p99_us.mid: %llu samples, %llu beyond%s\n",
              static_cast<unsigned long long>(p99.samples),
              static_cast<unsigned long long>(p99.beyond),
              p99.supported() ? "" : " (fewer than 10: not supported)");
  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"p50_us.low", PercentileUs(low_quiet, 0.5).value, "us"},
      {"p50_us.mid", PercentileUs(mid_quiet, 0.5).value, "us"},
      {"peak_rps", Median(peak_slices), "req/s"},
      {"success_ratio", 1.0 - FailRatio(ledger.failed, ledger.attempted), "ratio"},
  };
  PrintResult(ledger, metrics);
  return ledger.correct ? 0 : 1;
}

// Traced: the untraced phases again (loadgen diagnostics and the overhead baseline),
// then the same workload served through the tracing harness at the mid rate and at
// peak. Five phases of S/5 each.
int RunTraced(const WorkloadSpec& spec, uint64_t seed, zygos::Nanos budget,
              const StealMonitor& steal) {
  Ledger ledger;
  auto app = std::make_unique<App>(spec, seed);
  std::unique_ptr<Served> plain = Serve(spec, *app, /*traced=*/false);
  PrintHost(*plain);
  // Mid and peak run in the same order, each pair on freshly loaded data, as their
  // traced twins below, so the two differ only in the tracing.
  Phase untraced{spec, *plain, *app, steal, ledger};
  const zygos::Nanos each = budget / 5;
  OpenLoopPhase mid;
  OpenLoopPhase low;
  RunOpenLoop(untraced, "mid", spec.mid_rps, each, seed * 3 + 2, mid);
  PrintOpenLoop("mid", spec.mid_rps, mid);
  ClosedLoopPhase peak = RunPeak(untraced, "peak", each, seed * 3 + 3);
  RunOpenLoop(untraced, "low", spec.low_rps, each, seed * 3 + 1, low);
  PrintOpenLoop("low", spec.low_rps, low);
  plain.reset();
  app.reset();

  constexpr int kMidPhase = 1;
  constexpr int kPeakPhase = 2;
  app = std::make_unique<App>(spec, seed);
  std::unique_ptr<Served> traced = Serve(spec, *app, /*traced=*/true);
  SpanRecorder& recorder = *traced->recorder;
  Phase tracing{spec, *traced, *app, steal, ledger};
  recorder.set_phase(kMidPhase);
  OpenLoopPhase tmid;
  RunOpenLoop(tracing, "traced-mid", spec.mid_rps, each, seed * 3 + 2, tmid);
  PrintOpenLoop("traced-mid", spec.mid_rps, tmid);
  recorder.set_phase(kPeakPhase);
  ClosedLoopPhase tpeak = RunPeak(tracing, "traced-peak", each, seed * 3 + 3);
  recorder.set_phase(0);
  traced->runtime->Shutdown();  // joins the workers: their span buffers are final

  TraceSummary s = Summarize(recorder, kMidPhase);
  const Counters& a = tmid.before;
  const Counters& b = tmid.after;
  double completed = static_cast<double>(b.completed - a.completed);
  double app_events = static_cast<double>(b.worker.app_events - a.worker.app_events);
  double stolen = static_cast<double>(b.worker.stolen_events - a.worker.stolen_events);
  double steals = static_cast<double>(b.shuffle.steals - a.shuffle.steals);
  double probes =
      static_cast<double>(b.shuffle.failed_steal_probes - a.shuffle.failed_steal_probes);
  double answered =
      static_cast<double>((b.commits - a.commits) + (b.user_aborts - a.user_aborts));
  std::printf("# trace mid: %llu app spans, %llu joined to a response (%llu stolen)\n",
              static_cast<unsigned long long>(s.app_spans),
              static_cast<unsigned long long>(s.joined),
              static_cast<unsigned long long>(s.stolen_wait_us.size()));
  if (s.joined < s.app_spans) {
    std::printf("# warning: %llu app spans found no response to join\n",
                static_cast<unsigned long long>(s.app_spans - s.joined));
  }

  bool kv = spec.service == Service::kKv;
  bool db = spec.service == Service::kTpcc;
  std::vector<double> app_ns = s.app_ns;
  Percentile op_p50 = PercentileOf(app_ns, 0.5);
  Percentile op_p99 = PercentileOf(app_ns, 0.99);
  Percentile p99_low = PercentileUs(low.all, 0.99);
  Percentile p99_mid = PercentileUs(mid.all, 0.99);
  Percentile p999_mid = PercentileUs(mid.all, 0.999);
  zygos::Nanos send_lag =
      std::max({low.max_send_lag, mid.max_send_lag, tmid.max_send_lag});
  double untraced_p50 = PercentileUs(mid.Quiet(), 0.5).value;
  double traced_p50 = PercentileUs(tmid.Quiet(), 0.5).value;
  double kv_misses = static_cast<double>(b.app_failures - a.app_failures);

  std::vector<Metric> metrics = {
      {"loadgen.send_lag_max_us", Us(send_lag), "us"},
      {"loadgen.p99_us.low", p99_low.value, "us"},
      {"loadgen.p99_us.mid", p99_mid.value, "us"},
      {"loadgen.p999_us.mid", p999_mid.value, "us"},
      {"loadgen.samples.mid", static_cast<double>(p99_mid.samples), "count"},
      {"transport.rx_ns_per_req", Ratio(static_cast<double>(s.rx_busy), completed), "ns"},
      {"transport.poll_useful_ratio",
       Ratio(static_cast<double>(s.useful_polls), static_cast<double>(s.polls)), "ratio"},
      {"transport.segments_per_poll",
       Ratio(static_cast<double>(s.rx_segments), static_cast<double>(s.useful_polls)),
       "count"},
      {"transport.tx_ns_per_req",
       Ratio(static_cast<double>(s.tx_busy), static_cast<double>(s.tx_responses)), "ns"},
      {"transport.tx_batch",
       Ratio(static_cast<double>(s.tx_responses), static_cast<double>(s.tx_calls)),
       "count"},
      {"transport.syscalls_per_req",
       Ratio(static_cast<double>(b.syscalls - a.syscalls), completed), "count"},
      {"runtime.residence_us.p50", PercentileOf(s.residence_us, 0.5).value, "us"},
      {"runtime.residence_us.p99", PercentileOf(s.residence_us, 0.99).value, "us"},
      {"runtime.wait_us.p50", PercentileOf(s.wait_us, 0.5).value, "us"},
      {"runtime.wait_us.p99", PercentileOf(s.wait_us, 0.99).value, "us"},
      {"runtime.remote_syscalls_per_req",
       Ratio(static_cast<double>(b.worker.remote_syscalls - a.worker.remote_syscalls),
             completed),
       "count"},
      {"runtime.doorbells_per_req",
       Ratio(static_cast<double>(b.worker.doorbells_sent - a.worker.doorbells_sent),
             completed),
       "count"},
      {"runtime.rx_batch",
       Ratio(static_cast<double>(b.worker.rx_segments - a.worker.rx_segments),
             static_cast<double>(b.worker.rx_batches - a.worker.rx_batches)),
       "count"},
      {"core.stolen_ratio", Ratio(stolen, app_events), "ratio"},
      {"core.steal_success_ratio", Ratio(steals, steals + probes), "ratio"},
      {"core.stolen_wait_us.p50", PercentileOf(s.stolen_wait_us, 0.5).value, "us"},
      {"core.local_wait_us.p50", PercentileOf(s.local_wait_us, 0.5).value, "us"},
      {"common.pool_miss_per_req",
       Ratio(static_cast<double>(b.worker.pool_misses - a.worker.pool_misses), app_events),
       "count"},
      {"common.remote_free_per_req",
       Ratio(static_cast<double>(b.worker.pool_remote_frees - a.worker.pool_remote_frees),
             app_events),
       "count"},
      {"kvstore.op_ns.p50", kv ? op_p50.value : 0.0, "ns"},
      {"kvstore.op_ns.p99", kv ? op_p99.value : 0.0, "ns"},
      {"kvstore.miss_ratio", kv ? Ratio(kv_misses, app_events) : 0.0, "ratio"},
      {"db.txn_us.p50", db ? op_p50.value / 1e3 : 0.0, "us"},
      {"db.txn_us.p99", db ? op_p99.value / 1e3 : 0.0, "us"},
      {"db.occ_retries_per_txn",
       db ? Ratio(static_cast<double>(b.occ_retries - a.occ_retries), answered) : 0.0,
       "count"},
      {"db.user_abort_ratio",
       db ? Ratio(static_cast<double>(b.user_aborts - a.user_aborts), answered) : 0.0,
       "ratio"},
      {"trace.overhead.p50_pct", (Ratio(traced_p50, untraced_p50) - 1.0) * 100.0, "%"},
      {"trace.overhead.peak_pct",
       (1.0 - Ratio(tpeak.peak_rps, peak.peak_rps)) * 100.0, "%"},
      {"host.stolen_ms_per_s",
       Ratio(static_cast<double>(low.stolen + mid.stolen + tmid.stolen) / 1e6,
             Seconds(low.wall + mid.wall + tmid.wall)),
       "ms/s"},
  };
  PrintResult(ledger, metrics);
  return ledger.correct ? 0 : 1;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  long long seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
      continue;
    }
    long long number = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || number < 0) {
      std::fprintf(stderr, "perfbench: %s needs a non-negative integer\n", flag.c_str());
      return 2;
    }
    if (flag == "--seed") {
      seed = number;
    } else if (flag == "--seconds") {
      seconds = number;
    } else if (flag == "--trace" && number <= 1) {
      trace = static_cast<int>(number);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seed < 0 || seconds < 1 || trace < 0 || argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload kv-usr|kv-etc-uring|spin-skew|tpcc "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (spec->backend == Backend::kUring && !zygos::UringTransport::Available()) {
    std::printf("# skipping %s: io_uring unavailable: %s\n", spec->name,
                zygos::UringTransport::UnavailableReason().c_str());
    return 3;
  }
  zygos::Nanos budget = static_cast<zygos::Nanos>(seconds) * kSecond;
  auto s = static_cast<uint64_t>(seed);
  StealMonitor steal;
  return trace == 1 ? RunTraced(*spec, s, budget, steal)
                    : RunEndToEnd(*spec, s, budget, steal);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
