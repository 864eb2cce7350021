#include "src/loadgen/experiment.h"

#include <cmath>
#include <memory>

#include "src/runtime/tcp_transport.h"
#include "src/runtime/uring_transport.h"

namespace zygos {

namespace {

bool Fail(const LiveFlags& live, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n%s\n", live.name, message.c_str(), live.usage);
  return false;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Number(double value, int precision) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

}  // namespace

bool ParseLiveFlags(const Flags& flags, LiveFlags& live) {
  live.workers = static_cast<int>(flags.GetInt("workers", live.workers));
  live.connections = static_cast<int>(flags.GetInt("connections", live.connections));
  live.threads = static_cast<int>(flags.GetInt("threads", live.threads));
  live.duration =
      flags.GetInt("duration-ms", live.duration / kMillisecond) * kMillisecond;
  live.warmup = flags.GetInt("warmup-ms", live.warmup / kMillisecond) * kMillisecond;
  live.seed =
      static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(live.seed)));
  live.json_path = flags.GetString("json", live.json_path);
  if (live.payload) {
    live.payload = static_cast<size_t>(
        flags.GetInt("payload", static_cast<int64_t>(*live.payload)));
  }
  std::string arrivals;
  if (live.arrivals) {
    arrivals = flags.GetString("arrivals", ArrivalKindName(*live.arrivals));
  }
  if (!flags.CheckUnknown(live.usage)) {
    return false;
  }
  if (live.arrivals) {
    live.arrivals = ParseArrivalKind(arrivals);
    if (!live.arrivals) {
      return Fail(live, "unknown --arrivals=" + arrivals);
    }
  }
  if (live.workers < 1 || live.connections < 1 || live.threads < 1) {
    return Fail(live, "need workers/connections/threads >= 1");
  }
  return CheckMeasurementWindow(live.name, live.usage, live.duration, live.warmup);
}

bool CheckMeasurementWindow(const char* name, const char* usage, Nanos duration,
                            Nanos warmup) {
  if (warmup >= 0 && duration > warmup) {
    return true;
  }
  std::fprintf(stderr,
               "%s: need --warmup-ms >= 0 and --duration-ms > --warmup-ms\n%s\n", name,
               usage);
  return false;
}

bool ParseNumbers(const LiveFlags& live, const std::string& flag, const std::string& csv,
                  const std::string& requirement,
                  const std::function<bool(double)>& valid, std::vector<double>& out) {
  out.clear();
  for (const std::string& token : SplitCsv(csv)) {
    out.push_back(ParseFlagNumberOrDie(flag, token, live.usage));
    if (!valid(out.back())) {
      return Fail(live, "--" + flag + " entries must be " + requirement);
    }
  }
  return !out.empty() || Fail(live, "--" + flag + " is empty");
}

TcpLoadgenOptions LiveLoadgenOptions(const LiveFlags& live, uint16_t port,
                                     double rate_rps) {
  TcpLoadgenOptions gen;
  gen.port = port;
  gen.connections = live.connections;
  gen.threads = live.threads;
  gen.arrivals = live.arrivals.value_or(ArrivalKind::kPoisson);
  gen.rate_rps = rate_rps;
  gen.duration = live.duration;
  gen.warmup = live.warmup;
  gen.seed = live.seed;
  gen.make_payload = [size = live.payload.value_or(32)](Rng&, std::string& out) {
    out.assign(size, 'x');
  };
  return gen;
}

std::optional<LiveConfig> ParseLiveConfig(const std::string& name) {
  static const LiveConfig kConfigs[] = {
      {"zygos", true},
      {"no-steal", false},
  };
  for (const LiveConfig& config : kConfigs) {
    if (config.name == name) {
      return config;
    }
  }
  return std::nullopt;
}

std::optional<std::vector<LiveConfig>> ParseLiveConfigs(const std::string& csv) {
  std::vector<LiveConfig> configs;
  for (const std::string& name : SplitCsv(csv)) {
    std::optional<LiveConfig> config = ParseLiveConfig(name);
    if (!config) {
      return std::nullopt;
    }
    configs.push_back(*config);
  }
  return configs.empty() ? std::nullopt : std::make_optional(configs);
}

std::optional<LiveTransport> ParseLiveTransport(const std::string& name) {
  if (name == "tcp") {
    return LiveTransport{name};
  }
  if (name == "uring") {
    return LiveTransport{name, /*uring=*/true};
  }
  return std::nullopt;
}

std::string TransportDenied(const LiveTransport& transport) {
  if (!transport.uring || UringTransport::Available()) {
    return "";
  }
  return "io_uring unavailable: " + UringTransport::UnavailableReason();
}

std::unique_ptr<SocketTransportBase> MakeLiveTransport(const LiveTransport& transport,
                                                       TcpTransportOptions options) {
  if (transport.uring) {
    return std::make_unique<UringTransport>(std::move(options));
  }
  return std::make_unique<TcpTransport>(std::move(options));
}

std::string LiveSweep::TransportNames() const {
  std::string joined;
  for (const LiveTransport& transport : transports) {
    joined += (joined.empty() ? "" : ",") + transport.name;
  }
  return joined;
}

bool ParseLiveSweep(const Flags& flags, LiveSweep& sweep) {
  sweep.transport_csv = flags.GetString("transport", sweep.transport_csv);
  sweep.configs_csv = flags.GetString("configs", sweep.configs_csv);
  const std::string rates_csv = flags.GetString("rates", "");
  sweep.load_fractions_csv =
      flags.GetString("load-fractions", sweep.load_fractions_csv);
  sweep.calibrate_rate = flags.GetDouble("calibrate-rate", sweep.calibrate_rate);
  sweep.cell_repeats =
      static_cast<int>(flags.GetInt("cell-repeats", sweep.cell_repeats));
  sweep.skew = flags.GetBool("skew", sweep.skew);
  if (!ParseLiveFlags(flags, sweep)) {
    return false;
  }
  for (const std::string& name : SplitCsv(sweep.transport_csv)) {
    if (!ParseLiveTransport(name)) {
      return Fail(sweep, "unknown --transport=" + name);
    }
  }
  if (sweep.cell_repeats < 1) {
    return Fail(sweep, "--cell-repeats must be >= 1");
  }
  std::optional<std::vector<LiveConfig>> configs = ParseLiveConfigs(sweep.configs_csv);
  if (!configs) {
    return Fail(sweep, "unknown config in (or empty) --configs=" + sweep.configs_csv);
  }
  sweep.configs = std::move(*configs);
  auto positive = [](double value) { return value > 0; };
  // An empty --rates means "calibrate".
  return (rates_csv.empty() ||
          ParseNumbers(sweep, "rates", rates_csv, "> 0", positive, sweep.rates)) &&
         ParseNumbers(sweep, "load-fractions", sweep.load_fractions_csv, "> 0", positive,
                      sweep.load_fractions);
}

bool SelectTransports(LiveSweep& sweep) {
  sweep.transports.clear();
  for (const std::string& name : SplitCsv(sweep.transport_csv)) {
    LiveTransport transport = ParseLiveTransport(name).value();  // ParseLiveSweep checked
    std::string denied = TransportDenied(transport);
    if (!denied.empty()) {
      std::printf("# skip: transport=%s (%s)\n", name.c_str(), denied.c_str());
    } else if (std::none_of(sweep.transports.begin(), sweep.transports.end(),
                            [&](const LiveTransport& t) { return t.name == name; })) {
      sweep.transports.push_back(transport);
    }
  }
  if (sweep.transports.empty()) {
    std::printf("# skip: no usable transport requested — nothing to sweep\n");
    return false;
  }
  return true;
}

LiveCellResult RunLiveCell(const RuntimeOptions& options, const LiveTransport& transport,
                           ViewHandler handler, bool skew, const LiveDrive& drive) {
  // The transport derives its geometry from the runtime options (the single source of
  // truth for the flow cap — see TcpOptionsFor).
  std::unique_ptr<SocketTransportBase> backend =
      MakeLiveTransport(transport, TcpOptionsFor(options));
  SocketTransportBase& sock = *backend;
  Runtime runtime(options, std::move(backend), std::move(handler));
  if (skew) {
    runtime.mutable_rss().SetIndirection(
        std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  }
  runtime.Start();
  LiveCellResult cell;
  cell.tcp = drive(runtime, sock);
  runtime.Shutdown();

  const TcpLoadgenResult& result = cell.tcp;
  LivePoint& point = cell.point;
  point.transport = transport.name;
  point.achieved_rps = result.achieved_logical_rps();
  point.sent = result.sent;
  point.measured = result.measured;
  point.dropped = result.lost;
  point.send_lag_max_us = ToMicros(result.max_send_lag);
  point.p50_us = ToMicros(result.latency.P50());
  point.p99_us = ToMicros(result.latency.P99());
  point.p999_us = ToMicros(result.latency.P999());
  point.mean_us = result.latency.Mean() / 1e3;
  point.max_us = ToMicros(result.latency.Max());
  point.steals = runtime.TotalShuffleStats().steals;
  point.sheds = runtime.TotalStats().sheds_deadline;
  cell.runtime_completed = runtime.Completed();
  // Data-path syscalls amortized over every completed request of the cell (warmup
  // included — a steady-state ratio). epoll pays recv+send per request; batched uring
  // pays io_uring_enter per poll pass.
  if (cell.runtime_completed > 0) {
    point.syscalls_per_req = static_cast<double>(sock.IoSyscalls()) /
                             static_cast<double>(cell.runtime_completed);
  }
  return cell;
}

LiveCellResult RunSweepCell(const LiveSweep& sweep, const LiveTransport& transport,
                            const LiveConfig& config, double rate, ViewHandler handler) {
  RuntimeOptions options;
  options.num_workers = sweep.workers;
  options.num_flows = sweep.connections;
  options.enable_stealing = config.stealing;
  LiveCellResult cell = RunLiveCell(
      options, transport, std::move(handler), sweep.skew,
      [&](Runtime&, SocketTransportBase& sock) {
        TcpLoadgenOptions gen = LiveLoadgenOptions(sweep, sock.port(), rate);
        if (sweep.make_payload) {
          gen.make_payload = sweep.make_payload;
        }
        return RunTcpLoadgen(gen);
      });
  cell.point.config = config.name;
  cell.point.offered_rps = rate;
  if (!cell.tcp.clean) {
    std::fprintf(stderr,
                 "%s: [%s/%s @ %.0f rps] unclean TCP run (lost=%llu mismatches=%llu)\n",
                 sweep.name, config.name.c_str(), transport.name.c_str(), rate,
                 static_cast<unsigned long long>(cell.tcp.lost),
                 static_cast<unsigned long long>(cell.tcp.mismatches));
  }
  return cell;
}

JsonObject& JsonObject::Add(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  return Add(key, Quote(value));
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Add(key, value ? "true" : "false");
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  return Add(key, std::to_string(value));
}

JsonObject& JsonObject::Num(const std::string& key, double value, int precision) {
  return Add(key, Number(value, precision));
}

JsonObject& JsonObject::Nums(const std::string& key, const std::vector<double>& values,
                             int precision) {
  std::string json = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    json += (i == 0 ? "" : ", ") + Number(values[i], precision);
  }
  return Add(key, json + "]");
}

JsonObject& JsonObject::Strs(const std::string& key,
                             const std::vector<std::string>& values) {
  std::string json = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    json += (i == 0 ? "" : ", ") + Quote(values[i]);
  }
  return Add(key, json + "]");
}

JsonObject& JsonObject::Object(const std::string& key, const JsonObject& value) {
  return Add(key, value.Render());
}

std::string JsonObject::Render() const {
  if (fields_.empty()) {
    return "{}";
  }
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    out += (i == 0 ? "\n  " : ",\n  ") + Quote(fields_[i].first) + ": ";
    for (char c : fields_[i].second) {  // nested objects indent one level deeper
      out += c;
      if (c == '\n') {
        out += "  ";
      }
    }
  }
  return out + "\n}";
}

BenchReport::BenchReport(std::string metric, double value, std::string unit,
                         int precision)
    : metric_(std::move(metric)), value_(value), unit_(std::move(unit)),
      precision_(precision) {}

BenchReport& BenchReport::Gate(const std::string& name, bool ok) {
  params_.Bool(name, ok);
  gates_.emplace_back(name, ok);
  return *this;
}

std::string BenchReport::ToJson() const {
  std::vector<std::string> names;
  for (const auto& gate : gates_) {
    names.push_back(gate.first);
  }
  JsonObject params = params_;
  params.Strs("gates", names);
  JsonObject report;
  report.Str("metric", metric_)
      .Num("value", value_, precision_)
      .Str("unit", unit_)
      .Str("commit", "")
      .Object("params", params);
  return report.Render() + "\n";
}

int BenchReport::Finish(const std::string& path) const {
  int status = 0;
  if (!path.empty()) {
    FILE* out = std::fopen(path.c_str(), "w");
    std::string json = ToJson();
    bool written = out != nullptr && std::fputs(json.c_str(), out) >= 0;
    if (out == nullptr || std::fclose(out) != 0 || !written) {
      std::fprintf(stderr, "%s: cannot write %s\n", metric_.c_str(), path.c_str());
      status = 1;
    }
  }
  for (const auto& [name, ok] : gates_) {
    if (!ok) {
      std::fprintf(stderr, "%s: gate %s is false\n", metric_.c_str(), name.c_str());
      status = 1;
    }
  }
  return status;
}

void AddRunParams(JsonObject& params, const LiveFlags& live) {
  params.Int("workers", live.workers)
      .Int("connections", live.connections)
      .Num("duration_ms", static_cast<double>(live.duration) / 1e6, 0)
      .Num("warmup_ms", static_cast<double>(live.warmup) / 1e6, 0)
      .Int("seed", live.seed);
}

BenchReport LiveSweepReport(const std::string& metric, const LiveSweep& sweep,
                            const std::vector<LivePoint>& points) {
  const LivePoint* headline = HeadlinePoint(points, "zygos");
  BenchReport report(metric, headline != nullptr ? headline->p99_us : NAN, "us");
  report.params()
      .Str("transport", sweep.TransportNames())
      .Str("headline_transport", points.empty() ? "" : points.front().transport)
      .Str("arrivals", ArrivalKindName(sweep.arrivals.value_or(ArrivalKind::kPoisson)))
      .Bool("skew", sweep.skew);
  AddRunParams(report.params(), sweep);
  report.Gate("zygos_p99_monotone_in_load", ZygosP99MonotoneInLoad(points))
      .Gate("steal_leq_no_steal_at_peak", StealLeqNoStealAtPeak(points));
  return report;
}

JsonObject LiveCurves(const std::vector<LivePoint>& points, bool with_syscalls) {
  std::vector<std::pair<std::string, std::string>> ids;  // (config, transport)
  bool multi_transport = false;
  for (const LivePoint& point : points) {
    multi_transport = multi_transport || point.transport != points.front().transport;
    std::pair<std::string, std::string> id{point.config, point.transport};
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  }
  JsonObject curves;
  for (const auto& [config, transport] : ids) {
    std::vector<LivePoint> curve;
    for (const LivePoint& point : points) {
      if (point.config == config && point.transport == transport) {
        curve.push_back(point);
      }
    }
    auto field = [&curve](double LivePoint::*member) {
      return Column(curve, [member](const LivePoint& point) { return point.*member; });
    };
    JsonObject object;
    object.Nums("offered_rps", field(&LivePoint::offered_rps), 2)
        .Nums("achieved_rps", field(&LivePoint::achieved_rps), 2)
        .Nums("p50_us", field(&LivePoint::p50_us), 2)
        .Nums("p99_us", field(&LivePoint::p99_us), 2)
        .Nums("p999_us", field(&LivePoint::p999_us), 2);
    if (with_syscalls) {
      object.Nums("syscalls_per_req", field(&LivePoint::syscalls_per_req), 2);
    }
    std::string key = multi_transport ? config + "-" + transport : config;
    std::replace(key.begin(), key.end(), '-', '_');
    curves.Object(key, object);
  }
  return curves;
}

}  // namespace zygos
