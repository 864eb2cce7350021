// Standalone chaos proxy: a degraded-network-in-a-box between any RPC client and a
// ZygOS runtime server (src/chaos/chaos_proxy.h).
//
// Point a server at a port, point this proxy's upstream at the server, and point
// clients at the proxy; every byte then crosses the configured per-direction delay
// models, the probabilistic connection killer and the stall injector. All randomness
// derives from --seed, so a run is replayable bit-for-bit on the same chunk sequence.
//
// Delay model grammar (shared with bench/fanout_chaos via ParseDelayModel):
//   none                          forward immediately
//   fixed:BASE_US                 constant delay
//   uniform:BASE_US:JITTER_US     BASE + U[0, JITTER]
//   lognormal:MEDIAN_US:SIGMA     lognormal, median MEDIAN_US, shape SIGMA
//   spike:BASE_US:PERIOD_MS:DUR_MS:SPIKE_US
//                                 BASE normally; SPIKE during the first DUR of
//                                 every PERIOD (periodic congestion burst)
//
// Example — 1 ms median lognormal jitter on responses, 0.1% connection kills:
//   kv_server --mode=serve --port=7117 &
//   chaos_proxy --listen-port=7200 --upstream-port=7117 --s2c=lognormal:1000:0.8 --kill-p=0.001 --seed=42 &
//   kv_server --mode=loadgen --port=7200 --rate=20000
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "src/chaos/chaos_proxy.h"
#include "src/common/flags.h"
#include "src/common/time_units.h"

namespace {
volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }
}  // namespace

int main(int argc, char** argv) {
  using namespace zygos;
  Flags flags(argc, argv);
  const std::string usage =
      "usage: chaos_proxy --upstream-port=P [--upstream-host=127.0.0.1]\n"
      "                   [--listen-port=0 (ephemeral, printed)] [--listen-address=A]\n"
      "                   [--c2s=MODEL] [--s2c=MODEL] (none | fixed:US |\n"
      "                    uniform:US:JITTER_US | lognormal:US:SIGMA |\n"
      "                    spike:US:PERIOD_MS:DUR_MS:SPIKE_US)\n"
      "                   [--kill-p=0.0] [--stall-after-bytes=0 (0 = no stall)]\n"
      "                   [--stall-direction=s2c|c2s] [--stall-ms=100] [--seed=1]\n"
      "                   [--stats-interval-s=5 (0 = only at exit)]";

  ChaosProxyOptions options;
  options.listen_address = flags.GetString("listen-address", "127.0.0.1");
  options.listen_port = static_cast<uint16_t>(flags.GetInt("listen-port", 0));
  options.upstream_host = flags.GetString("upstream-host", "127.0.0.1");
  options.upstream_port = static_cast<uint16_t>(flags.GetInt("upstream-port", 0));
  options.kill_probability = flags.GetDouble("kill-p", 0.0);
  options.stall_after_bytes =
      static_cast<uint64_t>(flags.GetInt("stall-after-bytes", 0));
  options.stall_duration = flags.GetInt("stall-ms", 100) * kMillisecond;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string c2s = flags.GetString("c2s", "none");
  const std::string s2c = flags.GetString("s2c", "none");
  const std::string stall_dir = flags.GetString("stall-direction", "s2c");
  const int64_t stats_interval_s = flags.GetInt("stats-interval-s", 5);
  if (!flags.CheckUnknown(usage)) {
    return 2;
  }
  if (options.upstream_port == 0) {
    std::fprintf(stderr, "--upstream-port is required\n%s\n", usage.c_str());
    return 2;
  }
  auto c2s_model = ParseDelayModel(c2s);
  auto s2c_model = ParseDelayModel(s2c);
  if (!c2s_model || !s2c_model) {
    std::fprintf(stderr, "bad delay model spec '%s'\n%s\n",
                 (!c2s_model ? c2s : s2c).c_str(), usage.c_str());
    return 2;
  }
  options.client_to_server = *c2s_model;
  options.server_to_client = *s2c_model;
  if (stall_dir == "c2s") {
    options.stall_direction = ChaosDirection::kClientToServer;
  } else if (stall_dir == "s2c") {
    options.stall_direction = ChaosDirection::kServerToClient;
  } else {
    std::fprintf(stderr, "bad --stall-direction '%s'\n%s\n", stall_dir.c_str(),
                 usage.c_str());
    return 2;
  }

  ChaosProxy proxy(options);
  if (!proxy.Start()) {
    std::fprintf(stderr, "chaos_proxy: failed to listen on %s:%u or reach %s:%u\n",
                 options.listen_address.c_str(), options.listen_port,
                 options.upstream_host.c_str(), options.upstream_port);
    return 1;
  }
  std::printf("chaos_proxy listening on %s:%u -> %s:%u  c2s=%s s2c=%s kill-p=%g%s seed=%llu\n",
              options.listen_address.c_str(), proxy.port(),
              options.upstream_host.c_str(), options.upstream_port,
              DelayModelName(options.client_to_server).c_str(),
              DelayModelName(options.server_to_client).c_str(),
              options.kill_probability,
              options.stall_after_bytes > 0 ? " stall=armed" : "",
              static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  auto print_stats = [&proxy] {
    std::printf("chaos_proxy: conns=%llu kills=%llu stalls=%llu c2s-bytes=%llu s2c-bytes=%llu\n",
                static_cast<unsigned long long>(proxy.Connections()),
                static_cast<unsigned long long>(proxy.Kills()),
                static_cast<unsigned long long>(proxy.StallsInjected()),
                static_cast<unsigned long long>(
                    proxy.BytesForwarded(ChaosDirection::kClientToServer)),
                static_cast<unsigned long long>(
                    proxy.BytesForwarded(ChaosDirection::kServerToClient)));
    std::fflush(stdout);
  };
  int ticks = 0;
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (stats_interval_s > 0 && ++ticks >= stats_interval_s * 5) {
      ticks = 0;
      print_stats();
    }
  }
  proxy.Stop();
  print_stats();
  return 0;
}
