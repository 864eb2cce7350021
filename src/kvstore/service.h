// The KV service: request payload in, response payload out.
//
// This is the application-layer callback plugged into both the real-thread runtime and
// the service-time measurement harness that feeds Fig. 9's system-model runs.
//
// HandleView is the allocation-free fast path: the request is decoded in place
// (views into pooled RX memory), GET values are copied once — under the stripe lock,
// straight into the pooled TX frame — and the returned status lets the server count
// hits without re-decoding its own response. Handle keeps the owning-string surface
// for tests.
// Contract: Handle/HandleView are thread-safe (delegate to the striped hash table)
// and safe to call concurrently from every runtime worker.
#ifndef ZYGOS_KVSTORE_SERVICE_H_
#define ZYGOS_KVSTORE_SERVICE_H_

#include <string>
#include <string_view>

#include "src/kvstore/hash_table.h"
#include "src/kvstore/protocol.h"
#include "src/net/message.h"

namespace zygos {

class KvService {
 public:
  explicit KvService(size_t bucket_count = 1 << 16) : table_(bucket_count) {}

  // Executes one request, writing a well-formed response payload directly into the
  // TX frame builder. Returns the response status (kError covers malformed input).
  KvStatus HandleView(std::string_view request_payload, ResponseBuilder& out) {
    auto request = DecodeKvRequestView(request_payload);
    if (!request.has_value()) {
      EncodeKvResponseInto(KvStatus::kError, {}, out);
      return KvStatus::kError;
    }
    switch (request->op) {
      case KvOp::kGet: {
        // Status byte first (optimistically OK), then the value copied once — table
        // memory to TX frame, under the stripe lock (Visit's view does not outlive
        // the callback). A miss patches the status byte in place.
        size_t status_at = out.payload_size();
        out.PushByte(static_cast<char>(KvStatus::kOk));
        bool hit = table_.Visit(request->key,
                                [&out](std::string_view value) { out.Append(value); });
        if (!hit) {
          out.payload_data()[status_at] = static_cast<char>(KvStatus::kMiss);
          return KvStatus::kMiss;
        }
        return KvStatus::kOk;
      }
      case KvOp::kSet:
        table_.Set(request->key, request->value);
        EncodeKvResponseInto(KvStatus::kOk, {}, out);
        return KvStatus::kOk;
      case KvOp::kDelete: {
        KvStatus status = table_.Delete(request->key) ? KvStatus::kOk : KvStatus::kMiss;
        EncodeKvResponseInto(status, {}, out);
        return status;
      }
    }
    EncodeKvResponseInto(KvStatus::kError, {}, out);
    return KvStatus::kError;
  }

  // Owning-string surface (tests): same semantics, plus the two string
  // materializations the fast path exists to avoid.
  std::string Handle(std::string_view request_payload) {
    ResponseBuilder builder;
    HandleView(request_payload, builder);
    IoBuf frame = builder.Finish(0);
    std::string_view wire = frame.view();
    return std::string(wire.substr(kFrameHeaderSize));
  }

  HashTable& table() { return table_; }
  const HashTable& table() const { return table_; }

 private:
  HashTable table_;
};

}  // namespace zygos

#endif  // ZYGOS_KVSTORE_SERVICE_H_
