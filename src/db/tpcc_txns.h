// The five TPC-C transactions (clauses 2.4–2.8) over the OCC engine, with the standard
// input-generation rules (NURand customer/item selection, 1% NewOrder rollbacks, 60%
// customer-by-last-name, 15% remote Payment customers, 1% remote NewOrder stock).
//
// The standard mix is 45% NewOrder, 43% Payment, 4% each OrderStatus / Delivery /
// StockLevel — the workload of the paper's Fig. 10 ("Each remote procedure call
// generates one transaction from the TPC-C mix").
//
// Input sampling and transaction execution are split: the Sample* free functions draw
// a transaction's parameters from a TpccRandom (a pure function of the RNG state, no
// database access), and TpccWorkload executes a parameter struct against the store.
// The split is what lets a remote client sample inputs and ship them over the wire
// (src/services/tpcc_service.h) while the single-process driver keeps the historical
// sample-then-run behavior — the legacy two-argument methods are exactly that
// composition, with an unchanged RNG draw order.
#ifndef ZYGOS_DB_TPCC_TXNS_H_
#define ZYGOS_DB_TPCC_TXNS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/db/database.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_random.h"
#include "src/db/tpcc_schema.h"
#include "src/db/txn.h"

namespace zygos {

enum class TpccTxnType { kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel };

constexpr int kTpccTxnTypes = 5;
const char* TpccTxnTypeName(TpccTxnType type);

// Most order lines a NewOrder may carry (clause 2.4.1.3: ol_cnt in [5, 15]).
constexpr int kTpccMaxOrderLines = 15;

// --- Transaction input parameters ------------------------------------------------------
//
// Each struct is the complete client-side input of one transaction: everything the
// spec's terminal would enter, nothing the server derives (o_id, h_seq, timestamps stay
// server-side). Fixed-size and trivially encodable so they travel as wire payloads.

struct NewOrderLineInput {
  int32_t i_id = 0;      // items + 1 encodes the intentional-rollback unused item
  int32_t supply_w = 0;  // != w on the 1% remote-stock lines
  int32_t quantity = 0;  // [1, 10]
};

struct NewOrderParams {
  int32_t w = 0;
  int32_t d = 0;
  int32_t c = 0;
  int32_t ol_cnt = 0;  // [5, 15]; entries [0, ol_cnt) of `lines` are valid
  std::array<NewOrderLineInput, kTpccMaxOrderLines> lines{};
};

struct PaymentParams {
  int32_t w = 0;
  int32_t d = 0;
  int32_t c_w = 0;  // customer's home warehouse (15% remote when multi-warehouse)
  int32_t c_d = 0;
  bool by_name = false;
  std::string last;     // selection name when by_name
  int32_t c_id = 0;     // selection id otherwise (and the by-name fallback)
  int64_t amount_cents = 0;  // [100, 500000]
};

struct OrderStatusParams {
  int32_t w = 0;
  int32_t d = 0;
  bool by_name = false;
  std::string last;
  int32_t c_id = 0;
};

struct DeliveryParams {
  int32_t w = 0;
  int32_t carrier = 0;  // [1, 10]
};

struct StockLevelParams {
  int32_t w = 0;
  int32_t d = 0;
  int32_t threshold = 0;  // [10, 20]
};

// --- Input sampling (clause 2.x.1 of each transaction) ---------------------------------
//
// Pure functions of the RNG stream and the scale: no database access, so a load
// generator process can run them without a store. Draw order is part of the contract
// (the determinism tests pin it): changing it changes every seeded schedule.

// Standard mix deck: 45 / 43 / 4 / 4 / 4 (clause 5.2.3 minimums, Silo's configuration).
TpccTxnType SampleTpccType(TpccRandom& random);

NewOrderParams SampleNewOrder(TpccRandom& random, const LoaderOptions& scale);
PaymentParams SamplePayment(TpccRandom& random, const LoaderOptions& scale);
OrderStatusParams SampleOrderStatus(TpccRandom& random, const LoaderOptions& scale);
DeliveryParams SampleDelivery(TpccRandom& random, const LoaderOptions& scale);
StockLevelParams SampleStockLevel(TpccRandom& random, const LoaderOptions& scale);

// Shared, thread-safe workload object (per-thread state lives in TxnExecutor +
// TpccRandom, which callers own).
class TpccWorkload {
 public:
  TpccWorkload(Database& db, TpccTables tables, LoaderOptions scale)
      : db_(db), tables_(tables), scale_(scale) {}

  // Samples a transaction type from the standard mix deck.
  TpccTxnType SampleType(TpccRandom& random) const { return SampleTpccType(random); }

  // Runs one transaction of `type` to completion (internal OCC retries included).
  // Returns kCommitted, or kAborted for NewOrder's intentional 1% rollback.
  TxnStatus Run(TpccTxnType type, TxnExecutor& executor, TpccRandom& random);

  // Parameter-driven execution: one transaction from explicit inputs (the wire-service
  // entry point). Inputs referencing rows outside the loaded scale abort cleanly
  // (kAborted) rather than crash — NewOrder's unused-item rollback is that same path.
  TxnStatus NewOrder(TxnExecutor& executor, const NewOrderParams& params);
  TxnStatus Payment(TxnExecutor& executor, const PaymentParams& params);
  TxnStatus OrderStatus(TxnExecutor& executor, const OrderStatusParams& params);
  TxnStatus Delivery(TxnExecutor& executor, const DeliveryParams& params);
  // StockLevel runs at read committed, which clause 2.8.2.3 allows ("All data read
  // must be committed and no older than the most recently committed data prior to the
  // time this business transaction was initiated"): it copies the latest committed
  // rows through the index with no Transaction, so it takes no executor and never
  // aborts or retries. Stores the number of distinct low-stock items in `*low_stock`
  // when that is non-null.
  TxnStatus StockLevel(const StockLevelParams& params, int32_t* low_stock = nullptr);

  // One execution of NewOrder's body on `txn`, without the commit (false requests a
  // rollback): what NewOrder's retry loop runs, with o_entry_d = `entry_d`. Public so
  // a test can commit another transaction between a body and its commit.
  bool NewOrderBody(Transaction& txn, const NewOrderParams& params, int64_t entry_d);

  // Legacy sample-then-run surface (the in-process driver and tests).
  TxnStatus NewOrder(TxnExecutor& executor, TpccRandom& random) {
    return NewOrder(executor, SampleNewOrder(random, scale_));
  }
  TxnStatus Payment(TxnExecutor& executor, TpccRandom& random) {
    return Payment(executor, SamplePayment(random, scale_));
  }
  TxnStatus OrderStatus(TxnExecutor& executor, TpccRandom& random) {
    return OrderStatus(executor, SampleOrderStatus(random, scale_));
  }
  TxnStatus Delivery(TxnExecutor& executor, TpccRandom& random) {
    return Delivery(executor, SampleDelivery(random, scale_));
  }
  TxnStatus StockLevel(TpccRandom& random) {
    return StockLevel(SampleStockLevel(random, scale_));
  }

  const TpccTables& tables() const { return tables_; }
  const LoaderOptions& scale() const { return scale_; }

 private:
  // Resolves a customer id by last name: the spec's midpoint rule over the name index.
  // Returns 0 if the name matched nothing (possible only at reduced test scales).
  int32_t CustomerByLastName(Transaction& txn, int32_t w, int32_t d,
                             const std::string& last);

  Database& db_;
  TpccTables tables_;
  LoaderOptions scale_;
  std::atomic<uint64_t> history_seq_{1u << 20};  // above any loader-assigned key
};

}  // namespace zygos

#endif  // ZYGOS_DB_TPCC_TXNS_H_
