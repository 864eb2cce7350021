// Data-plane microbenchmark: ns/op and heap allocs/op for one echo RPC through the
// framing layer — the pre-refactor string-of-strings path vs the pooled zero-copy
// path (src/common/buffer_pool.h + src/net/message.h).
//
// Each "op" is one request's full framing life: encode the request frame, deliver it
// as a segment, reassemble it in the parser, hand the payload to an echo handler,
// and build the TX response frame. The string path replicates the old data plane
// faithfully (fresh request string, parser append/erase buffer, payload copy,
// response string, TX scratch encode); the pooled path is the current one (pooled
// frame, aliasing view, ResponseBuilder in place).
//
// Heap allocations are counted by overriding the global operator new/delete in this
// binary — pool slab growth is counted too, which is the point: after warmup the
// pooled path must show 0 allocs/op while the string path pays several.
//
// Each path runs three times and the run with the median speedup is reported
// (MedianOfN, src/loadgen/experiment.h): on an oversubscribed host the string path's
// 4 mallocs/op book scheduler stalls into a single run's ns/op — observed single-run
// speedups swing 0.8x-1.5x while the pooled ns/op barely moves. The median run
// discards the one-off in either direction; a real fast-path regression shifts all
// three runs.
//
// Flags: [--requests=200000] [--warmup=20000] [--payload=32] [--seed ignored]
// Output: CSV `path,ns_per_op,allocs_per_op` plus a `# headline:` line
// (the BENCH_*.json contract consumed by scripts/bench_trajectory.sh).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/loadgen/experiment.h"
#include "src/net/message.h"

// --- Global allocation counter ---------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(align),
                                   (size + static_cast<size_t>(align) - 1) /
                                       static_cast<size_t>(align) *
                                       static_cast<size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace zygos {
namespace {

// Faithful replica of the pre-refactor parser (string accumulation buffer, payload
// copied out per message, front-erase per frame) — the baseline being measured.
class LegacyFrameParser {
 public:
  void Feed(const char* data, size_t len) {
    buffer_.append(data, len);
    while (buffer_.size() >= kFrameHeaderSize) {
      uint32_t payload_len;
      std::memcpy(&payload_len, buffer_.data(), 4);
      size_t frame = kFrameHeaderSize + payload_len;
      if (buffer_.size() < frame) {
        break;
      }
      Message msg;
      std::memcpy(&msg.request_id, buffer_.data() + 4, 8);
      msg.payload.assign(buffer_.data() + kFrameHeaderSize, payload_len);
      messages_.push_back(std::move(msg));
      buffer_.erase(0, frame);
    }
  }
  std::vector<Message> TakeMessages() {
    std::vector<Message> out;
    out.swap(messages_);
    return out;
  }

 private:
  std::string buffer_;
  std::vector<Message> messages_;
};

struct PathResult {
  double ns_per_op = 0;
  double allocs_per_op = 0;
  uint64_t checksum = 0;  // defeats dead-code elimination; printed as a comment
};

uint64_t Mix(uint64_t checksum, std::string_view bytes) {
  for (char c : bytes) {
    checksum = checksum * 1099511628211ULL + static_cast<unsigned char>(c);
  }
  return checksum;
}

// One echo RPC through the old data plane: every layer boundary is a string.
PathResult RunStringPath(uint64_t requests, uint64_t warmup,
                         const std::string& payload) {
  LegacyFrameParser parser;
  std::string tx_scratch;
  PathResult result;
  uint64_t t0 = 0;
  uint64_t alloc0 = 0;
  auto clock_start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < warmup + requests; ++i) {
    if (i == warmup) {
      alloc0 = g_allocs.load(std::memory_order_relaxed);
      clock_start = std::chrono::steady_clock::now();
      t0 = 1;
    }
    (void)t0;
    // Client/ingress: fresh frame string, copied into the "segment".
    std::string frame;
    EncodeMessage(i, payload, frame);
    std::string segment = std::move(frame);
    // Netstack: append into the parser buffer, copy the payload out.
    parser.Feed(segment.data(), segment.size());
    for (Message& msg : parser.TakeMessages()) {
      // Handler: materialize the request, return a response string.
      std::string request = std::move(msg.payload);
      std::string response = request;  // echo
      // TX: encode header + payload into the scratch frame.
      tx_scratch.clear();
      EncodeMessage(msg.request_id, response, tx_scratch);
      result.checksum = Mix(result.checksum, tx_scratch);
    }
  }
  auto elapsed = std::chrono::steady_clock::now() - clock_start;
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  result.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(requests);
  result.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(requests);
  return result;
}

// One echo RPC through the pooled data plane: pooled frame in, aliasing view,
// response built in place in the pooled TX frame.
PathResult RunPooledPath(uint64_t requests, uint64_t warmup,
                         const std::string& payload) {
  FrameParser parser;
  std::vector<MessageView> views;
  PathResult result;
  uint64_t alloc0 = 0;
  auto clock_start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < warmup + requests; ++i) {
    if (i == warmup) {
      alloc0 = g_allocs.load(std::memory_order_relaxed);
      clock_start = std::chrono::steady_clock::now();
    }
    // Client/ingress: one pooled frame is the segment.
    IoBuf segment = EncodeFrame(i, payload);
    // Netstack: views alias the segment; no copy.
    parser.Feed(segment, segment.view());
    views.clear();
    parser.TakeViewsInto(views);
    for (MessageView& view : views) {
      // Handler writes the echo straight into the pooled TX frame.
      ResponseBuilder builder(view.payload.size());
      builder.Append(view.payload);
      IoBuf tx = builder.Finish(view.request_id);
      result.checksum = Mix(result.checksum, tx.view());
    }
  }
  auto elapsed = std::chrono::steady_clock::now() - clock_start;
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  result.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(requests);
  result.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(requests);
  return result;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto requests = static_cast<uint64_t>(flags.GetInt("requests", 200'000));
  const auto warmup = static_cast<uint64_t>(flags.GetInt("warmup", 20'000));
  const auto payload_size = static_cast<size_t>(flags.GetInt("payload", 32));
  const std::string payload(payload_size, 'x');

  std::printf("# micro_dataplane: %llu ops (+%llu warmup), %zu-byte echo payload\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(warmup), payload_size);
  // String first, pooled second; order is irrelevant to the pooled path's steady
  // state (its pools warm during its own warmup phase).
  struct Run {
    PathResult str;
    PathResult pooled;
  };
  auto speedup_of = [](const Run& run) {
    return run.pooled.ns_per_op > 0 ? run.str.ns_per_op / run.pooled.ns_per_op : 0.0;
  };
  const Run run = MedianOfN(
      3,
      [&] {
        return Run{RunStringPath(requests, warmup, payload),
                   RunPooledPath(requests, warmup, payload)};
      },
      speedup_of);
  const PathResult& str = run.str;
  const PathResult& pooled = run.pooled;
  if (str.checksum != pooled.checksum) {
    std::fprintf(stderr, "micro_dataplane: paths disagree on the bytes produced "
                 "(%llx vs %llx)\n",
                 static_cast<unsigned long long>(str.checksum),
                 static_cast<unsigned long long>(pooled.checksum));
    return 1;
  }
  std::printf("path,ns_per_op,allocs_per_op\n");
  std::printf("string,%.1f,%.3f\n", str.ns_per_op, str.allocs_per_op);
  std::printf("pooled,%.1f,%.3f\n", pooled.ns_per_op, pooled.allocs_per_op);
  const double speedup = speedup_of(run);
  std::printf("# headline: pooled %.1f ns/op %.3f allocs/op vs string %.1f ns/op "
              "%.3f allocs/op (%.2fx)\n",
              pooled.ns_per_op, pooled.allocs_per_op, str.ns_per_op,
              str.allocs_per_op, speedup);
  return 0;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
