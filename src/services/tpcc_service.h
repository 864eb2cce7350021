// Silo/TPC-C as a live wire service: the second real workload behind the runtime.
//
// A TpccService wraps the in-memory OCC database (src/db/) in a ViewHandler so the
// ZygOS data plane can serve TPC-C transactions as RPCs — the paper's Fig. 10
// workload ("Each remote procedure call generates one transaction from the TPC-C
// mix"), with long, heavy-tailed service times that stress work stealing far more
// than any fixed-µs spin.
//
// Wire protocol (request payload of the framed RPC messages, src/net/message.h; all
// integers little-endian):
//
//   NewOrder:    [u8 op=0][u32 w][u8 d][u32 c][u8 ol_cnt]
//                  then ol_cnt × [u32 i_id][u32 supply_w][u8 quantity]
//   Payment:     [u8 op=1][u32 w][u8 d][u32 c_w][u8 c_d][u8 by_name][u8 last_len]
//                  [last bytes][u32 c_id][u64 amount_cents]
//   OrderStatus: [u8 op=2][u32 w][u8 d][u8 by_name][u8 last_len][last bytes][u32 c_id]
//   Delivery:    [u8 op=3][u32 w][u8 carrier]
//   StockLevel:  [u8 op=4][u32 w][u8 d][u8 threshold]
//
//   response:    [u8 status][u8 op][u16 occ_retries]
//
// The request carries the complete terminal input (everything Sample* draws —
// src/db/tpcc_txns.h); the server derives nothing random, so a seeded generator's
// transaction stream is a pure function of the seed end to end (the CO guard of
// src/loadgen extends to request *content*). The response's status is the abort/retry
// surface on the wire: kCommitted, kUserAbort (NewOrder's intentional 1% rollback, or
// inputs referencing unloaded rows), or kMalformed (undecodable/out-of-range payload —
// answered without touching the database). occ_retries counts the validation-abort
// retries the commit protocol burned on this request (saturating at 65535).
//
// Decode discipline (the PR 2 poison contract, one layer up): DecodeTpccRequest
// validates structure AND spec ranges, returning nullopt on anything malformed — it
// never reads out of bounds and the service never executes a malformed request.
// Frame-level garbage (oversized length words) never reaches this layer: the
// FrameParser poisons and the runtime severs the flow.
//
// Contract: HandleView/Handler are thread-safe (executors are pooled per call;
// per-connection calls are already serialized by socket ownership). Counters are
// monotonic and racy-but-safe while serving, exact once traffic quiesces.
#ifndef ZYGOS_SERVICES_TPCC_SERVICE_H_
#define ZYGOS_SERVICES_TPCC_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/concurrency/spinlock.h"
#include "src/db/database.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_txns.h"
#include "src/db/txn.h"
#include "src/net/message.h"
#include "src/runtime/runtime.h"

namespace zygos {

enum class TpccWireStatus : uint8_t {
  kCommitted = 0,
  kUserAbort = 1,  // clean rollback: intentional 1% NewOrder, or unloaded-row inputs
  kMalformed = 2,  // undecodable or out-of-range request; nothing executed
};

const char* TpccWireStatusName(TpccWireStatus status);

// One decoded request: `type` selects which params member is meaningful.
struct TpccRequest {
  TpccTxnType type = TpccTxnType::kNewOrder;
  NewOrderParams new_order;
  PaymentParams payment;
  OrderStatusParams order_status;
  DeliveryParams delivery;
  StockLevelParams stock_level;
};

struct TpccResponse {
  TpccWireStatus status = TpccWireStatus::kMalformed;
  TpccTxnType type = TpccTxnType::kNewOrder;
  uint16_t occ_retries = 0;
};

// Longest last-name the wire accepts: 3 syllables × max 5 chars (clause 4.3.2.3).
constexpr size_t kTpccMaxLastName = 15;

// Appends the encoded request to `out` (no clear — callers batch into one buffer).
void EncodeTpccRequest(const TpccRequest& request, std::string& out);

// Structural + range validation: nullopt on short/long payloads, unknown ops,
// ol_cnt/quantity/carrier/threshold/amount outside spec ranges, oversized names, or
// non-positive ids. Never reads out of bounds. Accepted ids may still exceed the
// loaded scale (the server cannot know the client's intended scale from one frame);
// those execute as clean kUserAbort — exactly NewOrder's unused-item rollback path.
std::optional<TpccRequest> DecodeTpccRequest(std::string_view payload);

void EncodeTpccResponseInto(TpccWireStatus status, TpccTxnType type,
                            uint16_t occ_retries, ResponseBuilder& out);
std::optional<TpccResponse> DecodeTpccResponse(std::string_view payload);

class TpccService {
 public:
  // `tables`/`scale` come from LoadTpcc (src/db/tpcc_loader.h); the database outlives
  // the service.
  TpccService(Database& db, TpccTables tables, LoaderOptions scale)
      : db_(db), workload_(db, tables, scale) {}

  // Executes one request, writing the 4-byte response into the TX frame builder.
  // Never throws, never crashes on garbage, never commits a malformed request.
  TpccWireStatus HandleView(std::string_view request_payload, ResponseBuilder& out);

  // The runtime-facing adapter (flow id unused: TPC-C has no per-connection state).
  ViewHandler Handler() {
    return [this](uint64_t flow_id, std::string_view request,
                  ResponseBuilder& response) {
      (void)flow_id;
      HandleView(request, response);
    };
  }

  // Service ledger, the server half of commit+abort+shed+lost == sent:
  // commits + user_aborts + malformed == requests answered.
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t user_aborts() const {
    return user_aborts_.load(std::memory_order_relaxed);
  }
  uint64_t malformed() const { return malformed_.load(std::memory_order_relaxed); }
  // Total OCC validation-abort retries absorbed inside committed/aborted requests.
  uint64_t occ_retries() const {
    return occ_retries_.load(std::memory_order_relaxed);
  }
  // Per-type commit counts (indexed by TpccTxnType).
  uint64_t commits_of(TpccTxnType type) const {
    return per_type_commits_[static_cast<size_t>(type)].load(
        std::memory_order_relaxed);
  }

  TpccWorkload& workload() { return workload_; }
  const LoaderOptions& scale() const { return workload_.scale(); }

 private:
  // Pops a pooled per-call executor (each owns its thread-local-style last-commit
  // TID; Silo only needs per-executor TID monotonicity, so pooling across worker
  // threads is sound). Pool depth ≤ peak concurrent handler calls (≤ workers). The
  // pool lock spins: a handler must not sleep in the kernel (it could neither serve its
  // queue nor steal), and the critical section is a vector push or pop.
  std::unique_ptr<TxnExecutor> AcquireExecutor();
  void ReleaseExecutor(std::unique_ptr<TxnExecutor> executor);

  Database& db_;
  TpccWorkload workload_;
  Spinlock pool_lock_;
  std::vector<std::unique_ptr<TxnExecutor>> executor_pool_;
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> user_aborts_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> occ_retries_{0};
  std::array<std::atomic<uint64_t>, kTpccTxnTypes> per_type_commits_{};
};

}  // namespace zygos

#endif  // ZYGOS_SERVICES_TPCC_SERVICE_H_
