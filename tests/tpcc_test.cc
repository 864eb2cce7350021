// TPC-C tests: loader population counts and spec invariants, per-transaction effects,
// the consistency conditions of TPC-C clause 3.3 after single- and multi-threaded
// mixed runs, the input-generation helpers (NURand, last names, mix fractions), and
// the live wire-service battery: the same consistency conditions after a seeded
// multi-worker run through the runtime (src/services/tpcc_service.h), TID-regression
// checks across bursts, and the malformed-request poison discipline.
#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/db/database.h"
#include "src/db/record.h"
#include "src/db/tid.h"
#include "src/db/tpcc_driver.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_random.h"
#include "src/db/tpcc_schema.h"
#include "src/db/tpcc_txns.h"
#include "src/db/txn.h"
#include "src/loadgen/tpcc_gen.h"
#include "src/net/message.h"
#include "src/runtime/runtime.h"
#include "src/services/tpcc_service.h"

namespace zygos {
namespace {

// --- Input generation helpers ----------------------------------------------------------

TEST(TpccRandomTest, LastNameSyllables) {
  EXPECT_EQ(TpccRandom::LastName(0), "BARBARBAR");
  EXPECT_EQ(TpccRandom::LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(TpccRandom::LastName(999), "EINGEINGEING");
}

TEST(TpccRandomTest, NuRandStaysInRange) {
  TpccRandom random(1);
  for (int i = 0; i < 10000; ++i) {
    int32_t c = random.NuRand(1023, 1, 3000);
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 3000);
    int32_t item = random.NuRand(8191, 1, 100000);
    EXPECT_GE(item, 1);
    EXPECT_LE(item, 100000);
  }
}

TEST(TpccRandomTest, NuRandIsNonUniform) {
  // NURand concentrates mass; the most popular decile should receive visibly more than
  // 10% of draws.
  TpccRandom random(2);
  std::vector<int> deciles(10, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    int32_t v = random.NuRand(1023, 1, 3000);
    deciles[static_cast<size_t>((v - 1) * 10 / 3000)]++;
  }
  int max_decile = *std::max_element(deciles.begin(), deciles.end());
  EXPECT_GT(max_decile, kDraws / 10 * 12 / 10);
}

TEST(TpccRandomTest, StringHelpers) {
  TpccRandom random(3);
  for (int i = 0; i < 100; ++i) {
    std::string a = random.AString(5, 10);
    EXPECT_GE(a.size(), 5u);
    EXPECT_LE(a.size(), 10u);
    std::string n = random.NString(8);
    EXPECT_EQ(n.size(), 8u);
    for (char c : n) {
      EXPECT_TRUE(c >= '0' && c <= '9');
    }
  }
}

TEST(TpccSchemaTest, RowRoundTrip) {
  CustomerRow customer;
  customer.c_w_id = 3;
  customer.c_id = 77;
  customer.c_balance_cents = -123456;
  std::snprintf(customer.c_last, sizeof(customer.c_last), "%s", "OUGHTABLEPRI");
  auto decoded = DecodeRow<CustomerRow>(RowBytes(customer));
  EXPECT_EQ(decoded.c_w_id, 3);
  EXPECT_EQ(decoded.c_id, 77);
  EXPECT_EQ(decoded.c_balance_cents, -123456);
  EXPECT_STREQ(decoded.c_last, "OUGHTABLEPRI");
}

TEST(TpccSchemaTest, KeysOrderNumerically) {
  // Big-endian encoding: key order must match numeric order across byte boundaries.
  EXPECT_LT(OrderKey(1, 1, 255), OrderKey(1, 1, 256));
  EXPECT_LT(OrderKey(1, 1, 65535), OrderKey(1, 1, 65536));
  EXPECT_LT(OrderKey(1, 9, 100), OrderKey(1, 10, 1));
  EXPECT_LT(CustomerNameKeyLo(1, 1, "SMITH"), CustomerNameKey(1, 1, "SMITH", "A", 1));
  EXPECT_LT(CustomerNameKey(1, 1, "SMITH", "ZZZ", 9999),
            CustomerNameKeyHi(1, 1, "SMITH"));
}

// --- Loader ----------------------------------------------------------------------------

class TpccFixture : public ::testing::Test {
 protected:
  void Load(LoaderOptions options) {
    options_ = options;
    tables_ = LoadTpcc(db_, options_);
    workload_ = std::make_unique<TpccWorkload>(db_, tables_, options_);
  }

  // Committed read of one row (test helper).
  template <typename Row>
  Row ReadRow(TableId table, const std::string& key) {
    Transaction txn(db_);
    auto raw = txn.Read(table, key);
    txn.Abort();
    EXPECT_TRUE(raw.has_value()) << "missing row";
    return DecodeRow<Row>(raw.value_or(std::string(sizeof(Row), '\0')));
  }

  // Counts live keys in [lo, hi].
  uint64_t CountRange(TableId table, const std::string& lo, const std::string& hi) {
    Transaction txn(db_);
    uint64_t count = 0;
    txn.Scan(table, lo, hi, false, 0,
             [&count](const std::string&, const std::string&, Record*) {
               count++;
               return true;
             });
    txn.Abort();
    return count;
  }

  // TPC-C clause 3.3 consistency conditions 1-3, checked across every warehouse:
  // w_ytd = Σ d_ytd (exact, integer cents); d_next_o_id - 1 = max(o_id) in ORDER;
  // NEW-ORDER rows form a contiguous o_id range. The counters are read from their own
  // records (tpcc_schema.h). Shared by the driver-level and the live-service
  // concurrency tests.
  void CheckConsistencyConditions() {
    for (int w = 1; w <= options_.num_warehouses; ++w) {
      auto warehouse = ReadRow<WarehouseYtdRow>(tables_.warehouse_ytd, WarehouseKey(w));
      int64_t district_ytd = 0;
      for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
        district_ytd +=
            ReadRow<DistrictYtdRow>(tables_.district_ytd, DistrictKey(w, d)).d_ytd_cents;
        auto district =
            ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(w, d));

        // Condition 2: d_next_o_id - 1 = max(o_id) in ORDER for the district.
        int32_t max_order = 0;
        Transaction txn(db_);
        txn.Scan(tables_.order, OrderKey(w, d, 0), OrderKey(w, d, INT32_MAX), true, 1,
                 [&max_order](const std::string& key, const std::string&, Record*) {
                   size_t n = key.size();
                   max_order =
                       static_cast<int32_t>((static_cast<uint8_t>(key[n - 4]) << 24) |
                                            (static_cast<uint8_t>(key[n - 3]) << 16) |
                                            (static_cast<uint8_t>(key[n - 2]) << 8) |
                                            static_cast<uint8_t>(key[n - 1]));
                   return false;
                 });
        txn.Abort();
        EXPECT_EQ(max_order, district.d_next_o_id - 1)
            << "warehouse " << w << " district " << d;

        // Condition 3: NEW-ORDER rows are a contiguous o_id range.
        std::vector<int32_t> pending;
        Transaction scan_txn(db_);
        scan_txn.Scan(tables_.new_order, NewOrderKey(w, d, 0),
                      NewOrderKey(w, d, INT32_MAX), false, 0,
                      [&pending](const std::string& key, const std::string&, Record*) {
                        size_t n = key.size();
                        pending.push_back(static_cast<int32_t>(
                            (static_cast<uint8_t>(key[n - 4]) << 24) |
                            (static_cast<uint8_t>(key[n - 3]) << 16) |
                            (static_cast<uint8_t>(key[n - 2]) << 8) |
                            static_cast<uint8_t>(key[n - 1])));
                        return true;
                      });
        scan_txn.Abort();
        if (!pending.empty()) {
          EXPECT_EQ(pending.back() - pending.front() + 1,
                    static_cast<int32_t>(pending.size()))
              << "warehouse " << w << " district " << d;
        }
      }
      // Condition 1: w_ytd = Σ d_ytd (exact, integer cents).
      EXPECT_EQ(warehouse.w_ytd_cents, district_ytd) << "warehouse " << w;
    }
  }

  // Every order in the most recent few per district has exactly o_ol_cnt order lines.
  void CheckOrderLineCounts() {
    for (int w = 1; w <= options_.num_warehouses; ++w) {
      for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
        auto district =
            ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(w, d));
        for (int32_t o = district.d_next_o_id - 1;
             o > std::max(0, district.d_next_o_id - 4); --o) {
          auto order = ReadRow<OrderRow>(tables_.order, OrderKey(w, d, o));
          uint64_t lines = CountRange(tables_.order_line, OrderLineKey(w, d, o, 0),
                                      OrderLineKey(w, d, o, INT32_MAX));
          EXPECT_EQ(lines, static_cast<uint64_t>(order.o_ol_cnt))
              << "warehouse " << w << " district " << d << " order " << o;
        }
      }
    }
  }

  Database db_;
  LoaderOptions options_;
  TpccTables tables_;
  std::unique_ptr<TpccWorkload> workload_;
};

TEST_F(TpccFixture, LoaderPopulationCounts) {
  Load(LoaderOptions::Tiny(2));
  const int w = options_.num_warehouses;
  const int d = kTpccDistrictsPerWarehouse;
  const int c = options_.customers_per_district;
  const int o = options_.initial_orders_per_district;

  EXPECT_EQ(db_.table(tables_.item).KeyCount(), static_cast<size_t>(options_.items));
  EXPECT_EQ(db_.table(tables_.warehouse).KeyCount(), static_cast<size_t>(w));
  EXPECT_EQ(db_.table(tables_.stock).KeyCount(),
            static_cast<size_t>(w * options_.items));
  EXPECT_EQ(db_.table(tables_.district).KeyCount(), static_cast<size_t>(w * d));
  EXPECT_EQ(db_.table(tables_.warehouse_ytd).KeyCount(), static_cast<size_t>(w));
  EXPECT_EQ(db_.table(tables_.district_ytd).KeyCount(), static_cast<size_t>(w * d));
  EXPECT_EQ(db_.table(tables_.district_next_o_id).KeyCount(), static_cast<size_t>(w * d));
  EXPECT_EQ(db_.table(tables_.customer).KeyCount(), static_cast<size_t>(w * d * c));
  EXPECT_EQ(db_.table(tables_.customer_name_idx).KeyCount(),
            static_cast<size_t>(w * d * c));
  EXPECT_EQ(db_.table(tables_.order).KeyCount(), static_cast<size_t>(w * d * o));
  EXPECT_EQ(db_.table(tables_.order_customer_idx).KeyCount(),
            static_cast<size_t>(w * d * o));
  // Order lines: 5..15 per order.
  size_t order_lines = db_.table(tables_.order_line).KeyCount();
  EXPECT_GE(order_lines, static_cast<size_t>(w * d * o * 5));
  EXPECT_LE(order_lines, static_cast<size_t>(w * d * o * 15));
  // Undelivered tail: ~30% of initial orders at reduced scale.
  int first_undelivered = std::min(kTpccFirstUndeliveredOrder, o * 7 / 10);
  EXPECT_EQ(db_.table(tables_.new_order).KeyCount(),
            static_cast<size_t>(w * d * (o - first_undelivered)));
}

TEST_F(TpccFixture, LoaderDistrictAndWarehouseInvariants) {
  Load(LoaderOptions::Tiny(1));
  auto warehouse = ReadRow<WarehouseYtdRow>(tables_.warehouse_ytd, WarehouseKey(1));
  EXPECT_EQ(warehouse.w_ytd_cents, 30000000);
  int64_t district_ytd = 0;
  for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
    auto district =
        ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(1, d));
    EXPECT_EQ(district.d_next_o_id, options_.initial_orders_per_district + 1);
    district_ytd +=
        ReadRow<DistrictYtdRow>(tables_.district_ytd, DistrictKey(1, d)).d_ytd_cents;
  }
  // TPC-C consistency condition 1: w_ytd = Σ d_ytd.
  EXPECT_EQ(warehouse.w_ytd_cents, district_ytd);
}

TEST_F(TpccFixture, CustomerNameIndexFindsLoadedCustomers) {
  Load(LoaderOptions::Tiny(1));
  // Customers 1..min(1000, c) have sequential names; customer 1 is BARBARBAR.
  auto customer = ReadRow<CustomerRow>(tables_.customer, CustomerKey(1, 1, 1));
  uint64_t matches = CountRange(tables_.customer_name_idx,
                                CustomerNameKeyLo(1, 1, customer.c_last),
                                CustomerNameKeyHi(1, 1, customer.c_last));
  EXPECT_GE(matches, 1u);
}

// --- Transaction effects ----------------------------------------------------------------

TEST_F(TpccFixture, NewOrderAdvancesDistrictAndCreatesRows) {
  Load(LoaderOptions::Tiny(1));
  TxnExecutor executor(db_);
  TpccRandom random(7);
  // Run until one commits (1% of tries intentionally roll back).
  TxnStatus status = TxnStatus::kAborted;
  for (int i = 0; i < 50 && status != TxnStatus::kCommitted; ++i) {
    status = workload_->NewOrder(executor, random);
  }
  ASSERT_EQ(status, TxnStatus::kCommitted);

  // Some district's next_o_id advanced and the matching order + lines exist.
  bool found = false;
  for (int d = 1; d <= kTpccDistrictsPerWarehouse && !found; ++d) {
    auto district =
        ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(1, d));
    if (district.d_next_o_id == options_.initial_orders_per_district + 1) {
      continue;
    }
    found = true;
    int32_t o_id = district.d_next_o_id - 1;
    auto order = ReadRow<OrderRow>(tables_.order, OrderKey(1, d, o_id));
    EXPECT_EQ(order.o_id, o_id);
    EXPECT_EQ(order.o_carrier_id, 0);
    EXPECT_GE(order.o_ol_cnt, 5);
    EXPECT_LE(order.o_ol_cnt, 15);
    uint64_t lines = CountRange(tables_.order_line, OrderLineKey(1, d, o_id, 0),
                                OrderLineKey(1, d, o_id, INT32_MAX));
    EXPECT_EQ(lines, static_cast<uint64_t>(order.o_ol_cnt));
    uint64_t pending = CountRange(tables_.new_order, NewOrderKey(1, d, o_id),
                                  NewOrderKey(1, d, o_id));
    EXPECT_EQ(pending, 1u);
  }
  EXPECT_TRUE(found);
}

TEST_F(TpccFixture, NewOrderRollbackLeavesNoTrace) {
  Load(LoaderOptions::Tiny(1));
  // Snapshot district order counters.
  std::vector<int32_t> before;
  for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
    before.push_back(
        ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(1, d))
            .d_next_o_id);
  }
  // Drive NewOrders until we hit >= 1 rollback.
  TxnExecutor executor(db_);
  TpccRandom random(11);
  int rollbacks = 0;
  int commits = 0;
  for (int i = 0; i < 600 && rollbacks == 0; ++i) {
    TxnStatus status = workload_->NewOrder(executor, random);
    if (status == TxnStatus::kCommitted) {
      commits++;
    } else {
      rollbacks++;
    }
  }
  ASSERT_GT(rollbacks, 0) << "expected ~1% rollbacks in 600 tries";
  // Every committed order advanced exactly one district counter; rollbacks none.
  int32_t advanced = 0;
  for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
    advanced +=
        ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(1, d))
            .d_next_o_id -
        before[static_cast<size_t>(d - 1)];
  }
  EXPECT_EQ(advanced, commits);
}

TEST_F(TpccFixture, PaymentUpdatesBalancesAndYtd) {
  Load(LoaderOptions::Tiny(1));
  auto warehouse_before =
      ReadRow<WarehouseYtdRow>(tables_.warehouse_ytd, WarehouseKey(1));
  size_t history_before = db_.table(tables_.history).KeyCount();

  TxnExecutor executor(db_);
  TpccRandom random(13);
  ASSERT_EQ(workload_->Payment(executor, random), TxnStatus::kCommitted);

  auto warehouse_after = ReadRow<WarehouseYtdRow>(tables_.warehouse_ytd, WarehouseKey(1));
  EXPECT_GT(warehouse_after.w_ytd_cents, warehouse_before.w_ytd_cents);
  EXPECT_EQ(db_.table(tables_.history).KeyCount(), history_before + 1);

  // Consistency condition 1 still holds.
  int64_t district_ytd = 0;
  for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
    district_ytd +=
        ReadRow<DistrictYtdRow>(tables_.district_ytd, DistrictKey(1, d)).d_ytd_cents;
  }
  EXPECT_EQ(warehouse_after.w_ytd_cents, district_ytd);
}

TEST_F(TpccFixture, PaymentCommittingInsideANewOrderOnItsDistrictCausesNoRetry) {
  // A Payment writes w_ytd and d_ytd; a NewOrder reads w_tax and d_tax and updates
  // d_next_o_id. With each counter in its own record the two share no record, so a
  // Payment on the same warehouse and district that commits between a NewOrder's body
  // and its commit leaves the NewOrder's reads valid: it commits without a retry.
  Load(LoaderOptions::Tiny(1));
  NewOrderParams new_order;
  new_order.w = 1;
  new_order.d = 3;
  new_order.c = 1;
  new_order.ol_cnt = 5;
  for (int32_t line = 0; line < new_order.ol_cnt; ++line) {
    new_order.lines[static_cast<size_t>(line)] =
        NewOrderLineInput{/*i_id=*/line + 1, /*supply_w=*/1, /*quantity=*/2};
  }
  PaymentParams payment;
  payment.w = 1;
  payment.d = 3;
  payment.c_w = 1;
  payment.c_d = 3;
  payment.c_id = 2;  // not the NewOrder's customer
  payment.amount_cents = 1234;

  TxnExecutor new_order_executor(db_);
  TxnExecutor payment_executor(db_);
  int bodies = 0;
  TxnStatus payment_status = TxnStatus::kAborted;
  TxnStatus status = new_order_executor.Run([&](Transaction& txn) {
    bool ok = workload_->NewOrderBody(txn, new_order, /*entry_d=*/2);
    if (bodies++ == 0) {
      payment_status = workload_->Payment(payment_executor, payment);
    }
    return ok;
  });
  ASSERT_EQ(payment_status, TxnStatus::kCommitted);
  EXPECT_EQ(payment_executor.retries(), 0u);
  ASSERT_EQ(status, TxnStatus::kCommitted);
  EXPECT_EQ(new_order_executor.retries(), 0u);
  EXPECT_EQ(bodies, 1);

  // Both took effect.
  EXPECT_EQ(ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(1, 3))
                .d_next_o_id,
            options_.initial_orders_per_district + 2);
  EXPECT_EQ(ReadRow<WarehouseYtdRow>(tables_.warehouse_ytd, WarehouseKey(1)).w_ytd_cents,
            30000000 + 1234);
  CheckConsistencyConditions();
}

TEST_F(TpccFixture, DeliveryDrainsOldestNewOrders) {
  Load(LoaderOptions::Tiny(1));
  size_t pending_before = db_.table(tables_.new_order).KeyCount();
  ASSERT_GT(pending_before, 0u);

  TxnExecutor executor(db_);
  TpccRandom random(17);
  ASSERT_EQ(workload_->Delivery(executor, random), TxnStatus::kCommitted);

  // One order per district was delivered (all districts had a backlog).
  uint64_t pending_after = 0;
  for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
    pending_after += CountRange(tables_.new_order, NewOrderKey(1, d, 0),
                                NewOrderKey(1, d, INT32_MAX));
  }
  EXPECT_EQ(pending_after, pending_before - kTpccDistrictsPerWarehouse);

  // The delivered order in district 1 is the loader's first undelivered one.
  int first_undelivered =
      std::min(kTpccFirstUndeliveredOrder,
               options_.initial_orders_per_district * 7 / 10) + 1;
  auto order = ReadRow<OrderRow>(tables_.order, OrderKey(1, 1, first_undelivered));
  EXPECT_GT(order.o_carrier_id, 0);
  // Its customer received the order total.
  auto customer =
      ReadRow<CustomerRow>(tables_.customer, CustomerKey(1, 1, order.o_c_id));
  EXPECT_GT(customer.c_delivery_cnt, 0);
}

TEST_F(TpccFixture, ReadOnlyTransactionsCommit) {
  Load(LoaderOptions::Tiny(1));
  TxnExecutor executor(db_);
  TpccRandom random(19);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(workload_->OrderStatus(executor, random), TxnStatus::kCommitted);
    EXPECT_EQ(workload_->StockLevel(random), TxnStatus::kCommitted);
  }
}

TEST_F(TpccFixture, StockLevelCountMatchesABruteForceCountOfCommittedRows) {
  Load(LoaderOptions::Tiny(1));
  TpccDriver driver(db_, *workload_);
  driver.Measure(/*count=*/400, /*warmup=*/0, /*seed=*/41);  // recent orders of every kind
  TxnExecutor executor(db_);
  int32_t total = 0;
  for (int32_t d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
    // The distinct items of the district's last 20 orders, read transactionally.
    const int32_t next =
        ReadRow<DistrictNextOrderRow>(tables_.district_next_o_id, DistrictKey(1, d))
            .d_next_o_id;
    std::set<int32_t> items;
    Transaction txn(db_);
    txn.Scan(tables_.order_line, OrderLineKey(1, d, std::max(1, next - 20), 0),
             OrderLineKey(1, d, next - 1, INT32_MAX), false, 0,
             [&items](const std::string&, const std::string& value, Record*) {
               items.insert(DecodeRow<OrderLineRow>(value).ol_i_id);
               return true;
             });
    txn.Abort();
    ASSERT_FALSE(items.empty()) << "district " << d;
    for (int32_t threshold = 10; threshold <= 20; ++threshold) {
      int32_t expected = 0;
      for (int32_t i_id : items) {
        if (ReadRow<StockRow>(tables_.stock, StockKey(1, i_id)).s_quantity < threshold) {
          expected++;
        }
      }
      int32_t low_stock = -1;
      ASSERT_EQ(workload_->StockLevel(StockLevelParams{1, d, threshold}, &low_stock),
                TxnStatus::kCommitted);
      EXPECT_EQ(low_stock, expected) << "district " << d << " threshold " << threshold;
      total += low_stock;
    }
  }
  EXPECT_GT(total, 0);  // the comparison saw low-stock items, not only zeros
  EXPECT_EQ(executor.retries(), 0u);
}

TEST_F(TpccFixture, StockLevelBesideConcurrentNewOrdersNeverRetries) {
  // StockLevel reads committed rows with no transaction, so a NewOrder committing on
  // another thread in the middle of it can never make it retry.
  Load(LoaderOptions::Tiny(1));
  std::atomic<bool> ordering{true};
  std::thread orderer([&] {
    TxnExecutor executor(db_);
    TpccRandom random(43);
    for (int i = 0; i < 1500; ++i) {
      workload_->NewOrder(executor, random);
    }
    ordering.store(false);
  });
  TxnExecutor executor(db_);
  TpccRandom random(47);
  int runs = 0;
  while (ordering.load() || runs < 100) {
    StockLevelParams params = SampleStockLevel(random, options_);
    int32_t low_stock = -1;
    EXPECT_EQ(workload_->StockLevel(params, &low_stock), TxnStatus::kCommitted);
    // At most 20 orders of at most 15 lines each.
    EXPECT_GE(low_stock, 0);
    EXPECT_LE(low_stock, 20 * kTpccMaxOrderLines);
    runs++;
  }
  orderer.join();
  EXPECT_EQ(executor.retries(), 0u);
  EXPECT_EQ(executor.user_aborts(), 0u);
  CheckConsistencyConditions();
  CheckOrderLineCounts();
}

TEST_F(TpccFixture, MixFractionsMatchTheSpec) {
  Load(LoaderOptions::Tiny(1));
  TpccRandom random(23);
  std::array<int, kTpccTxnTypes> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[static_cast<size_t>(workload_->SampleType(random))]++;
  }
  auto fraction = [&](TpccTxnType type) {
    return static_cast<double>(counts[static_cast<size_t>(type)]) / kDraws;
  };
  EXPECT_NEAR(fraction(TpccTxnType::kNewOrder), 0.45, 0.01);
  EXPECT_NEAR(fraction(TpccTxnType::kPayment), 0.43, 0.01);
  EXPECT_NEAR(fraction(TpccTxnType::kOrderStatus), 0.04, 0.005);
  EXPECT_NEAR(fraction(TpccTxnType::kDelivery), 0.04, 0.005);
  EXPECT_NEAR(fraction(TpccTxnType::kStockLevel), 0.04, 0.005);
}

// --- Consistency under concurrency -----------------------------------------------------

TEST_F(TpccFixture, ConsistencyConditionsAfterConcurrentMix) {
  Load(LoaderOptions::Tiny(1));
  TpccDriver driver(db_, *workload_);
  auto result = driver.RunConcurrent(/*threads=*/3, /*count=*/900, /*seed=*/29);
  EXPECT_GT(result.committed, 0u);
  // Every retry is attributed to the type of the transaction that retried.
  uint64_t per_type_retries = 0;
  for (uint64_t retries : result.occ_retries_per_type) {
    per_type_retries += retries;
  }
  EXPECT_EQ(per_type_retries, result.occ_retries);
  CheckConsistencyConditions();
}

TEST_F(TpccFixture, OrderLinesMatchOlCntAfterConcurrentRun) {
  Load(LoaderOptions::Tiny(1));
  TpccDriver driver(db_, *workload_);
  driver.RunConcurrent(/*threads=*/2, /*count=*/400, /*seed=*/31);
  // Condition: every order has exactly o_ol_cnt order lines (check a sample).
  CheckOrderLineCounts();
}

TEST_F(TpccFixture, DriverMeasureProducesPerTypeSamples) {
  Load(LoaderOptions::Tiny(1));
  TpccDriver driver(db_, *workload_);
  auto result = driver.Measure(/*count=*/300, /*warmup=*/50, /*seed=*/37);
  EXPECT_EQ(result.mix.size(), 300u);
  EXPECT_GT(result.committed, 250u);
  EXPECT_GT(result.throughput_tps, 0.0);
  size_t total = 0;
  for (const auto& samples : result.per_type) {
    total += samples.size();
  }
  EXPECT_EQ(total, 300u);
  // The mix guarantees NewOrder and Payment samples in 300 draws.
  EXPECT_FALSE(result.ForType(TpccTxnType::kNewOrder).empty());
  EXPECT_FALSE(result.ForType(TpccTxnType::kPayment).empty());
  auto distribution = TpccMixDistribution(result);
  EXPECT_GT(distribution.MeanNanos(), 0.0);
}

// --- Live wire service ------------------------------------------------------------------
//
// The same consistency battery, but the transactions arrive as wire requests through
// the runtime's workers instead of through TpccDriver threads: seeded generator →
// EncodeTpccRequest → loopback ingress → DecodeTpccRequest → OCC execution, the full
// Fig. 10 request path minus the TCP socket.

class TpccLiveServiceFixture : public TpccFixture {
 protected:
  // Drives `count` seeded wire requests through a loopback runtime serving `service`
  // and blocks until all of them completed. Ring refusals are retried (the battery
  // asserts an exact ledger, so nothing may be dropped at ingress).
  void RunLiveMix(TpccService& service, int workers, int count, uint64_t seed) {
    RuntimeOptions runtime_options;
    runtime_options.num_workers = workers;
    Runtime runtime(runtime_options, service.Handler(),
                    [](uint64_t, uint64_t, std::string_view, Nanos, bool) {});
    runtime.Start();
    auto factory = MakeTpccPayloadFactory(options_);
    Rng payload_rng(seed);
    Rng flow_rng(seed ^ 0xf70e5ULL);
    std::string payload;
    for (int i = 0; i < count; ++i) {
      payload.clear();
      factory(payload_rng, payload);
      uint64_t flow =
          flow_rng.NextBounded(static_cast<uint64_t>(runtime_options.num_flows));
      while (!runtime.Inject(flow, static_cast<uint64_t>(i), payload)) {
        std::this_thread::yield();  // ring momentarily full: workers are draining it
      }
    }
    while (runtime.Completed() < runtime.Injected()) {
      std::this_thread::yield();
    }
    runtime.Shutdown();
  }

  // Version snapshot of every record in `table` (quiesced traffic: no live writers).
  std::map<std::string, uint64_t> SnapshotTids(TableId table) {
    std::map<std::string, uint64_t> tids;
    db_.table(table).Scan(
        std::string(1, '\0'), std::string(64, '\xff'), false,
        [&tids](const std::string& key, Record* record) {
          tids[key] = TidWord::Version(record->StableRead(nullptr, 0).tid);
          return true;
        });
    return tids;
  }
};

TEST_F(TpccLiveServiceFixture, LiveMixKeepsLedgerExactAndConsistencyConditionsHold) {
  Load(LoaderOptions::Tiny(2));
  TpccService service(db_, tables_, options_);
  constexpr int kRequests = 3000;
  RunLiveMix(service, /*workers=*/4, kRequests, /*seed=*/41);

  // Service-side ledger: every injected request was answered exactly once, none were
  // malformed (the generator only emits spec-range requests), and both terminal
  // outcomes appeared (commits dominate; NewOrder's 1% rollback supplies aborts).
  EXPECT_EQ(service.commits() + service.user_aborts() + service.malformed(),
            static_cast<uint64_t>(kRequests));
  EXPECT_EQ(service.malformed(), 0u);
  EXPECT_GT(service.commits(), static_cast<uint64_t>(kRequests) / 2);
  uint64_t per_type_total = 0;
  for (size_t t = 0; t < kTpccTxnTypes; ++t) {
    uint64_t commits = service.commits_of(static_cast<TpccTxnType>(t));
    EXPECT_GT(commits, 0u) << "txn type " << t << " never committed in " << kRequests
                           << " requests";
    per_type_total += commits;
  }
  EXPECT_EQ(per_type_total, service.commits());

  // Database-side: clause 3.3 conditions 1-3 plus order-line counts survive the
  // multi-worker (and work-stealing) run exactly as they do the driver-thread run.
  CheckConsistencyConditions();
  CheckOrderLineCounts();
}

TEST_F(TpccLiveServiceFixture, TidsNeverRegressWithinARecordAcrossLiveBursts) {
  Load(LoaderOptions::Tiny(1));
  TpccService service(db_, tables_, options_);
  RunLiveMix(service, /*workers=*/3, /*count=*/800, /*seed=*/43);

  // Snapshot the stable tables (rows that are updated in place, never deleted).
  const std::array<TableId, 7> stable_tables = {
      tables_.warehouse,    tables_.warehouse_ytd, tables_.district, tables_.district_ytd,
      tables_.district_next_o_id, tables_.customer, tables_.stock};
  std::array<std::map<std::string, uint64_t>, 7> before;
  for (size_t t = 0; t < stable_tables.size(); ++t) {
    before[t] = SnapshotTids(stable_tables[t]);
    ASSERT_FALSE(before[t].empty());
  }

  RunLiveMix(service, /*workers=*/3, /*count=*/800, /*seed=*/47);

  // Silo TIDs only move forward: a version observed after burst B must be >= the
  // version the same record had after burst A, for every record.
  uint64_t advanced = 0;
  for (size_t t = 0; t < stable_tables.size(); ++t) {
    auto after = SnapshotTids(stable_tables[t]);
    ASSERT_EQ(after.size(), before[t].size()) << "stable table " << t << " lost rows";
    for (const auto& [key, tid_before] : before[t]) {
      auto it = after.find(key);
      ASSERT_NE(it, after.end()) << "stable table " << t << " lost a key";
      EXPECT_GE(it->second, tid_before) << "TID regressed in table " << t;
      advanced += it->second > tid_before ? 1 : 0;
    }
  }
  // The second burst really wrote: the warehouse and district counters must have
  // moved.
  EXPECT_GT(advanced, 0u);
}

TEST_F(TpccLiveServiceFixture, MalformedRequestsAreAnsweredWithoutExecuting) {
  Load(LoaderOptions::Tiny(1));
  TpccService service(db_, tables_, options_);

  const std::vector<std::string> poison = {
      std::string(),                       // empty payload
      std::string(1, '\x09'),              // unknown op
      std::string("\x00\x01", 2),          // truncated NewOrder header
      std::string(3000, '\xff'),           // oversized garbage
      std::string("\x03\x01\x00\x00\x00\x00", 6),  // Delivery with carrier 0
  };
  for (const std::string& bytes : poison) {
    uint64_t commits_before = service.commits();
    uint64_t aborts_before = service.user_aborts();
    ResponseBuilder builder;
    EXPECT_EQ(service.HandleView(bytes, builder), TpccWireStatus::kMalformed);
    // The 4-byte response decodes and carries the malformed status on the wire.
    auto response = DecodeTpccResponse(
        std::string_view(builder.payload_data(), builder.payload_size()));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, TpccWireStatus::kMalformed);
    // Nothing executed: no commit, no user abort, only the malformed counter moved.
    EXPECT_EQ(service.commits(), commits_before);
    EXPECT_EQ(service.user_aborts(), aborts_before);
  }
  EXPECT_EQ(service.malformed(), poison.size());

  // The database is untouched: pristine loader invariants still hold.
  CheckConsistencyConditions();
}

}  // namespace
}  // namespace zygos
