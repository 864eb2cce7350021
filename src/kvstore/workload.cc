#include "src/kvstore/workload.h"

#include <array>
#include <charconv>
#include <chrono>
#include <string_view>

#include "src/kvstore/protocol.h"

namespace zygos {

namespace {

// Values are runs of 'v'; the longest a workload draws is 1023 bytes.
constexpr auto kValueBytes = [] {
  std::array<char, 1024> bytes{};
  bytes.fill('v');
  return bytes;
}();

std::string_view ValueBytes(size_t size) {
  return std::string_view(kValueBytes.data(), kValueBytes.size()).substr(0, size);
}

}  // namespace

KvWorkload::KvWorkload(KvWorkloadSpec spec, uint64_t seed)
    : spec_(spec), seed_(seed), rng_(seed) {}

size_t KvWorkload::BuildKey(uint64_t index, char* out) const {
  // USR keys are short and near-fixed (19-21 B in the trace); ETC keys span 20-45 B.
  // A numeric core plus deterministic padding derived from the index gives stable,
  // unique keys with the right length profile.
  out[0] = 'k';
  char* digits_end = std::to_chars(out + 1, out + kMaxKeySize, index).ptr;
  size_t size = static_cast<size_t>(digits_end - out);
  size_t target;
  if (spec_.kind == KvWorkloadKind::kUsr) {
    target = 19 + index % 3;  // 19-21 bytes
  } else {
    target = 20 + (index * 2654435761u) % 26;  // 20-45 bytes
  }
  for (; size < target; ++size) {
    out[size] = static_cast<char>('a' + (size * 7 + index) % 26);
  }
  return size;
}

std::string KvWorkload::KeyAt(uint64_t index) const {
  char key[kMaxKeySize];
  return std::string(key, BuildKey(index, key));
}

size_t KvWorkload::SampleValueSize(Rng& rng) const {
  if (spec_.kind == KvWorkloadKind::kUsr) {
    return 2;  // USR: 2-byte values
  }
  // ETC value sizes: a discretized approximation of the published distribution —
  // a spike of tiny values, a body of a-few-hundred-byte values, and a tail to ~1 KB.
  double u = rng.NextDouble();
  if (u < 0.4) {
    return 2 + rng.NextBounded(10);  // tiny values are ~40% of the pool
  }
  if (u < 0.9) {
    return 64 + rng.NextBounded(448);  // body: 64-512 B
  }
  return 512 + rng.NextBounded(512);  // tail to 1 KB
}

std::string KvWorkload::SampleValue(Rng& rng) const {
  return std::string(ValueBytes(SampleValueSize(rng)));
}

std::string KvWorkload::SampleRequest(Rng& rng) const {
  KvRequest request;
  uint64_t index = rng.NextBounded(spec_.num_keys);
  request.key = KeyAt(index);
  if (rng.NextBool(spec_.get_fraction)) {
    request.op = KvOp::kGet;
  } else {
    request.op = KvOp::kSet;
    request.value = SampleValue(rng);
  }
  return EncodeKvRequest(request);
}

void KvWorkload::Populate(KvService& service) {
  Rng rng(seed_ ^ 0x5eed);
  char key[kMaxKeySize];
  for (uint64_t i = 0; i < spec_.num_keys; ++i) {
    const std::string_view key_view(key, BuildKey(i, key));
    service.table().Set(key_view, ValueBytes(SampleValueSize(rng)));
  }
}

std::vector<Nanos> KvWorkload::MeasureServiceTimes(KvService& service, int samples) {
  Rng rng(seed_ ^ 0x7157);
  std::vector<Nanos> times;
  times.reserve(static_cast<size_t>(samples));
  // The served path, as a runtime worker runs it: the response is built straight
  // into a pooled TX frame and stamped. The frame is released after the clock stops,
  // as the runtime releases it after transmission.
  auto serve = [&service](std::string_view request) {
    ResponseBuilder builder(request.size());
    service.HandleView(request, builder);
    return builder.Finish(0);
  };
  // Warm the caches with a few hundred untimed ops.
  for (int i = 0; i < 512; ++i) {
    serve(SampleRequest(rng));
  }
  for (int i = 0; i < samples; ++i) {
    std::string request = SampleRequest(rng);
    auto start = std::chrono::steady_clock::now();
    IoBuf frame = serve(request);
    auto end = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  }
  return times;
}

}  // namespace zygos
