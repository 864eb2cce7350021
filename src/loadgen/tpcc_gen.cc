#include "src/loadgen/tpcc_gen.h"

#include "src/db/tpcc_txns.h"
#include "src/services/tpcc_service.h"

namespace zygos {

size_t AppendTpccRequest(TpccRandom& random, const LoaderOptions& scale,
                         std::string& out) {
  const size_t before = out.size();
  TpccRequest request;
  request.type = SampleTpccType(random);
  switch (request.type) {
    case TpccTxnType::kNewOrder:
      request.new_order = SampleNewOrder(random, scale);
      break;
    case TpccTxnType::kPayment:
      request.payment = SamplePayment(random, scale);
      break;
    case TpccTxnType::kOrderStatus:
      request.order_status = SampleOrderStatus(random, scale);
      break;
    case TpccTxnType::kDelivery:
      request.delivery = SampleDelivery(random, scale);
      break;
    case TpccTxnType::kStockLevel:
      request.stock_level = SampleStockLevel(random, scale);
      break;
  }
  EncodeTpccRequest(request, out);
  return out.size() - before;
}

std::function<void(Rng&, std::string&)> MakeTpccPayloadFactory(
    const LoaderOptions& scale) {
  return [scale](Rng& rng, std::string& out) {
    // One u64 per request: the TpccRandom is a pure function of the loadgen stream,
    // so changing TPC-C draw counts never shifts the loadgen's connection picks.
    TpccRandom tpcc_random(rng.NextU64());
    AppendTpccRequest(tpcc_random, scale, out);
  };
}

}  // namespace zygos
