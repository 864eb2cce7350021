#include "src/services/tpcc_service.h"

#include <cstring>

namespace zygos {

namespace {

// --- Little-endian primitives ----------------------------------------------------------

void PutU32(uint32_t v, std::string& out) {
  char b[4];
  std::memcpy(b, &v, 4);  // x86/arm little-endian; matches src/net/message.h framing
  out.append(b, 4);
}

void PutU64(uint64_t v, std::string& out) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

// Bounded cursor: every Take* checks remaining length, so a truncated payload can
// never read out of bounds — it just fails the decode.
struct Cursor {
  const char* data;
  size_t size;
  size_t at = 0;

  bool TakeU8(uint8_t& v) {
    if (at + 1 > size) {
      return false;
    }
    v = static_cast<uint8_t>(data[at]);
    at += 1;
    return true;
  }
  bool TakeU32(uint32_t& v) {
    if (at + 4 > size) {
      return false;
    }
    std::memcpy(&v, data + at, 4);
    at += 4;
    return true;
  }
  bool TakeU64(uint64_t& v) {
    if (at + 8 > size) {
      return false;
    }
    std::memcpy(&v, data + at, 8);
    at += 8;
    return true;
  }
  bool TakeBytes(size_t n, std::string& out) {
    if (at + n > size) {
      return false;
    }
    out.assign(data + at, n);
    at += n;
    return true;
  }
  bool Exhausted() const { return at == size; }
};

bool InRange(int64_t v, int64_t lo, int64_t hi) { return v >= lo && v <= hi; }

// [u8 by_name][u8 last_len][last][u32 c_id] — shared by Payment and OrderStatus.
void PutCustomerSelector(bool by_name, const std::string& last, int32_t c_id,
                         std::string& out) {
  out.push_back(static_cast<char>(by_name ? 1 : 0));
  size_t n = std::min(last.size(), kTpccMaxLastName);
  out.push_back(static_cast<char>(n));
  out.append(last.data(), n);
  PutU32(static_cast<uint32_t>(c_id), out);
}

bool TakeCustomerSelector(Cursor& cur, bool& by_name, std::string& last,
                          int32_t& c_id) {
  uint8_t by = 0, last_len = 0;
  uint32_t c = 0;
  if (!cur.TakeU8(by) || by > 1 || !cur.TakeU8(last_len) ||
      last_len > kTpccMaxLastName || !cur.TakeBytes(last_len, last) ||
      !cur.TakeU32(c) || !InRange(c, 1, INT32_MAX)) {
    return false;
  }
  by_name = by == 1;
  c_id = static_cast<int32_t>(c);
  return true;
}

}  // namespace

const char* TpccWireStatusName(TpccWireStatus status) {
  switch (status) {
    case TpccWireStatus::kCommitted:
      return "committed";
    case TpccWireStatus::kUserAbort:
      return "user-abort";
    case TpccWireStatus::kMalformed:
      return "malformed";
  }
  return "?";
}

void EncodeTpccRequest(const TpccRequest& request, std::string& out) {
  out.push_back(static_cast<char>(request.type));
  switch (request.type) {
    case TpccTxnType::kNewOrder: {
      const NewOrderParams& p = request.new_order;
      PutU32(static_cast<uint32_t>(p.w), out);
      out.push_back(static_cast<char>(p.d));
      PutU32(static_cast<uint32_t>(p.c), out);
      out.push_back(static_cast<char>(p.ol_cnt));
      for (int32_t i = 0; i < p.ol_cnt && i < kTpccMaxOrderLines; ++i) {
        const NewOrderLineInput& line = p.lines[static_cast<size_t>(i)];
        PutU32(static_cast<uint32_t>(line.i_id), out);
        PutU32(static_cast<uint32_t>(line.supply_w), out);
        out.push_back(static_cast<char>(line.quantity));
      }
      return;
    }
    case TpccTxnType::kPayment: {
      const PaymentParams& p = request.payment;
      PutU32(static_cast<uint32_t>(p.w), out);
      out.push_back(static_cast<char>(p.d));
      PutU32(static_cast<uint32_t>(p.c_w), out);
      out.push_back(static_cast<char>(p.c_d));
      PutCustomerSelector(p.by_name, p.last, p.c_id, out);
      PutU64(static_cast<uint64_t>(p.amount_cents), out);
      return;
    }
    case TpccTxnType::kOrderStatus: {
      const OrderStatusParams& p = request.order_status;
      PutU32(static_cast<uint32_t>(p.w), out);
      out.push_back(static_cast<char>(p.d));
      PutCustomerSelector(p.by_name, p.last, p.c_id, out);
      return;
    }
    case TpccTxnType::kDelivery: {
      const DeliveryParams& p = request.delivery;
      PutU32(static_cast<uint32_t>(p.w), out);
      out.push_back(static_cast<char>(p.carrier));
      return;
    }
    case TpccTxnType::kStockLevel: {
      const StockLevelParams& p = request.stock_level;
      PutU32(static_cast<uint32_t>(p.w), out);
      out.push_back(static_cast<char>(p.d));
      out.push_back(static_cast<char>(p.threshold));
      return;
    }
  }
}

std::optional<TpccRequest> DecodeTpccRequest(std::string_view payload) {
  Cursor cur{payload.data(), payload.size()};
  uint8_t op = 0;
  if (!cur.TakeU8(op) || op >= kTpccTxnTypes) {
    return std::nullopt;
  }
  TpccRequest request;
  request.type = static_cast<TpccTxnType>(op);
  switch (request.type) {
    case TpccTxnType::kNewOrder: {
      NewOrderParams& p = request.new_order;
      uint32_t w = 0, c = 0;
      uint8_t d = 0, ol_cnt = 0;
      if (!cur.TakeU32(w) || !InRange(w, 1, INT32_MAX) || !cur.TakeU8(d) ||
          !InRange(d, 1, kTpccDistrictsPerWarehouse) || !cur.TakeU32(c) ||
          !InRange(c, 1, INT32_MAX) || !cur.TakeU8(ol_cnt) ||
          !InRange(ol_cnt, 5, kTpccMaxOrderLines)) {
        return std::nullopt;
      }
      p.w = static_cast<int32_t>(w);
      p.d = d;
      p.c = static_cast<int32_t>(c);
      p.ol_cnt = ol_cnt;
      for (int32_t i = 0; i < p.ol_cnt; ++i) {
        uint32_t i_id = 0, supply_w = 0;
        uint8_t quantity = 0;
        if (!cur.TakeU32(i_id) || !InRange(i_id, 1, INT32_MAX) ||
            !cur.TakeU32(supply_w) || !InRange(supply_w, 1, INT32_MAX) ||
            !cur.TakeU8(quantity) || !InRange(quantity, 1, 10)) {
          return std::nullopt;
        }
        p.lines[static_cast<size_t>(i)] = {static_cast<int32_t>(i_id),
                                           static_cast<int32_t>(supply_w), quantity};
      }
      break;
    }
    case TpccTxnType::kPayment: {
      PaymentParams& p = request.payment;
      uint32_t w = 0, c_w = 0;
      uint8_t d = 0, c_d = 0;
      uint64_t amount = 0;
      if (!cur.TakeU32(w) || !InRange(w, 1, INT32_MAX) || !cur.TakeU8(d) ||
          !InRange(d, 1, kTpccDistrictsPerWarehouse) || !cur.TakeU32(c_w) ||
          !InRange(c_w, 1, INT32_MAX) || !cur.TakeU8(c_d) ||
          !InRange(c_d, 1, kTpccDistrictsPerWarehouse) ||
          !TakeCustomerSelector(cur, p.by_name, p.last, p.c_id) ||
          !cur.TakeU64(amount) || !InRange(static_cast<int64_t>(amount), 100, 500000)) {
        return std::nullopt;
      }
      p.w = static_cast<int32_t>(w);
      p.d = d;
      p.c_w = static_cast<int32_t>(c_w);
      p.c_d = c_d;
      p.amount_cents = static_cast<int64_t>(amount);
      break;
    }
    case TpccTxnType::kOrderStatus: {
      OrderStatusParams& p = request.order_status;
      uint32_t w = 0;
      uint8_t d = 0;
      if (!cur.TakeU32(w) || !InRange(w, 1, INT32_MAX) || !cur.TakeU8(d) ||
          !InRange(d, 1, kTpccDistrictsPerWarehouse) ||
          !TakeCustomerSelector(cur, p.by_name, p.last, p.c_id)) {
        return std::nullopt;
      }
      p.w = static_cast<int32_t>(w);
      p.d = d;
      break;
    }
    case TpccTxnType::kDelivery: {
      DeliveryParams& p = request.delivery;
      uint32_t w = 0;
      uint8_t carrier = 0;
      if (!cur.TakeU32(w) || !InRange(w, 1, INT32_MAX) || !cur.TakeU8(carrier) ||
          !InRange(carrier, 1, 10)) {
        return std::nullopt;
      }
      p.w = static_cast<int32_t>(w);
      p.carrier = carrier;
      break;
    }
    case TpccTxnType::kStockLevel: {
      StockLevelParams& p = request.stock_level;
      uint32_t w = 0;
      uint8_t d = 0, threshold = 0;
      if (!cur.TakeU32(w) || !InRange(w, 1, INT32_MAX) || !cur.TakeU8(d) ||
          !InRange(d, 1, kTpccDistrictsPerWarehouse) || !cur.TakeU8(threshold) ||
          !InRange(threshold, 10, 20)) {
        return std::nullopt;
      }
      p.w = static_cast<int32_t>(w);
      p.d = d;
      p.threshold = threshold;
      break;
    }
  }
  if (!cur.Exhausted()) {
    return std::nullopt;  // trailing bytes: reject, don't guess
  }
  return request;
}

void EncodeTpccResponseInto(TpccWireStatus status, TpccTxnType type,
                            uint16_t occ_retries, ResponseBuilder& out) {
  out.PushByte(static_cast<char>(status));
  out.PushByte(static_cast<char>(type));
  out.PushByte(static_cast<char>(occ_retries & 0xff));
  out.PushByte(static_cast<char>((occ_retries >> 8) & 0xff));
}

std::optional<TpccResponse> DecodeTpccResponse(std::string_view payload) {
  if (payload.size() != 4) {
    return std::nullopt;
  }
  uint8_t status = static_cast<uint8_t>(payload[0]);
  uint8_t op = static_cast<uint8_t>(payload[1]);
  if (status > static_cast<uint8_t>(TpccWireStatus::kMalformed) ||
      op >= kTpccTxnTypes) {
    return std::nullopt;
  }
  TpccResponse response;
  response.status = static_cast<TpccWireStatus>(status);
  response.type = static_cast<TpccTxnType>(op);
  response.occ_retries = static_cast<uint16_t>(
      static_cast<uint8_t>(payload[2]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(payload[3])) << 8));
  return response;
}

std::unique_ptr<TxnExecutor> TpccService::AcquireExecutor() {
  {
    Spinlock::Guard guard(pool_lock_);
    if (!executor_pool_.empty()) {
      auto executor = std::move(executor_pool_.back());
      executor_pool_.pop_back();
      return executor;
    }
  }
  return std::make_unique<TxnExecutor>(db_);
}

void TpccService::ReleaseExecutor(std::unique_ptr<TxnExecutor> executor) {
  Spinlock::Guard guard(pool_lock_);
  executor_pool_.push_back(std::move(executor));
}

TpccWireStatus TpccService::HandleView(std::string_view request_payload,
                                       ResponseBuilder& out) {
  auto request = DecodeTpccRequest(request_payload);
  if (!request.has_value()) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    EncodeTpccResponseInto(TpccWireStatus::kMalformed, TpccTxnType::kNewOrder, 0, out);
    return TpccWireStatus::kMalformed;
  }

  auto executor = AcquireExecutor();
  const uint64_t retries_before = executor->retries();
  TxnStatus status = TxnStatus::kAborted;
  switch (request->type) {
    case TpccTxnType::kNewOrder:
      status = workload_.NewOrder(*executor, request->new_order);
      break;
    case TpccTxnType::kPayment:
      status = workload_.Payment(*executor, request->payment);
      break;
    case TpccTxnType::kOrderStatus:
      status = workload_.OrderStatus(*executor, request->order_status);
      break;
    case TpccTxnType::kDelivery:
      status = workload_.Delivery(*executor, request->delivery);
      break;
    case TpccTxnType::kStockLevel:
      status = workload_.StockLevel(*executor, request->stock_level);
      break;
  }
  const uint64_t retries = executor->retries() - retries_before;
  ReleaseExecutor(std::move(executor));

  occ_retries_.fetch_add(retries, std::memory_order_relaxed);
  TpccWireStatus wire_status;
  if (status == TxnStatus::kCommitted) {
    wire_status = TpccWireStatus::kCommitted;
    commits_.fetch_add(1, std::memory_order_relaxed);
    per_type_commits_[static_cast<size_t>(request->type)].fetch_add(
        1, std::memory_order_relaxed);
  } else {
    // kAborted (intentional rollback / unloaded-row input) and kDuplicate both
    // surface as a clean user abort: the transaction installed nothing.
    wire_status = TpccWireStatus::kUserAbort;
    user_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
  EncodeTpccResponseInto(wire_status, request->type,
                         static_cast<uint16_t>(std::min<uint64_t>(retries, 0xffff)),
                         out);
  return wire_status;
}

}  // namespace zygos
