#include "src/db/tpcc_txns.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

namespace zygos {

namespace {

template <size_t N>
void SetField(char (&field)[N], std::string_view text) {
  size_t n = std::min(text.size(), N - 1);
  std::memcpy(field, text.data(), n);
  field[n] = '\0';
}

// The id in a key's last four bytes (big-endian): an o_id in NEW-ORDER and
// order-by-customer keys.
int32_t KeySuffixId(std::string_view key) {
  size_t n = key.size();
  return static_cast<int32_t>((static_cast<uint8_t>(key[n - 4]) << 24) |
                              (static_cast<uint8_t>(key[n - 3]) << 16) |
                              (static_cast<uint8_t>(key[n - 2]) << 8) |
                              static_cast<uint8_t>(key[n - 1]));
}

// Copies the latest committed version of `record` into the `size` bytes at `row`;
// false if the record is absent (an insert not yet committed, or a delete).
bool ReadCommitted(const Record& record, void* row, size_t size) {
  return !TidWord::Absent(record.StableRead(row, size).tid);
}

}  // namespace

const char* TpccTxnTypeName(TpccTxnType type) {
  switch (type) {
    case TpccTxnType::kNewOrder:
      return "NewOrder";
    case TpccTxnType::kPayment:
      return "Payment";
    case TpccTxnType::kOrderStatus:
      return "OrderStatus";
    case TpccTxnType::kDelivery:
      return "Delivery";
    case TpccTxnType::kStockLevel:
      return "StockLevel";
  }
  return "?";
}

TpccTxnType SampleTpccType(TpccRandom& random) {
  // Standard mix: 45 / 43 / 4 / 4 / 4 (clause 5.2.3 minimums, Silo's configuration).
  int32_t roll = random.Uniform(1, 100);
  if (roll <= 45) {
    return TpccTxnType::kNewOrder;
  }
  if (roll <= 88) {
    return TpccTxnType::kPayment;
  }
  if (roll <= 92) {
    return TpccTxnType::kOrderStatus;
  }
  if (roll <= 96) {
    return TpccTxnType::kDelivery;
  }
  return TpccTxnType::kStockLevel;
}

// --- Input sampling --------------------------------------------------------------------
// The draw order inside each sampler is load-bearing: it reproduces the pre-split
// code exactly, so every seeded test schedule and driver run is unchanged.

NewOrderParams SampleNewOrder(TpccRandom& random, const LoaderOptions& scale) {
  NewOrderParams params;
  params.w = random.Uniform(1, scale.num_warehouses);
  params.d = random.Uniform(1, kTpccDistrictsPerWarehouse);
  params.c = random.NuRand(1023, 1, scale.customers_per_district);
  params.ol_cnt = random.Uniform(5, kTpccMaxOrderLines);
  const bool rollback = random.Uniform(1, 100) == 1;  // clause 2.4.1.4: 1% rollbacks

  for (int32_t line = 1; line <= params.ol_cnt; ++line) {
    NewOrderLineInput input;
    input.i_id = random.NuRand(8191, 1, scale.items);
    if (rollback && line == params.ol_cnt) {
      input.i_id = scale.items + 1;  // unused item number forces the rollback
    }
    input.supply_w = params.w;
    if (scale.num_warehouses > 1 && random.Uniform(1, 100) == 1) {
      do {
        input.supply_w = random.Uniform(1, scale.num_warehouses);
      } while (input.supply_w == params.w);
    }
    input.quantity = random.Uniform(1, 10);
    params.lines[static_cast<size_t>(line - 1)] = input;
  }
  return params;
}

PaymentParams SamplePayment(TpccRandom& random, const LoaderOptions& scale) {
  PaymentParams params;
  params.w = random.Uniform(1, scale.num_warehouses);
  params.d = random.Uniform(1, kTpccDistrictsPerWarehouse);
  // Clause 2.5.1.2: 85% home customer, 15% remote (when more than one warehouse).
  params.c_w = params.w;
  params.c_d = params.d;
  if (scale.num_warehouses > 1 && random.Uniform(1, 100) <= 15) {
    do {
      params.c_w = random.Uniform(1, scale.num_warehouses);
    } while (params.c_w == params.w);
    params.c_d = random.Uniform(1, kTpccDistrictsPerWarehouse);
  }
  params.by_name = random.Uniform(1, 100) <= 60;
  params.last = random.RandomLastName();
  params.c_id = random.NuRand(1023, 1, scale.customers_per_district);
  params.amount_cents = random.Uniform(100, 500000);
  return params;
}

OrderStatusParams SampleOrderStatus(TpccRandom& random, const LoaderOptions& scale) {
  OrderStatusParams params;
  params.w = random.Uniform(1, scale.num_warehouses);
  params.d = random.Uniform(1, kTpccDistrictsPerWarehouse);
  params.by_name = random.Uniform(1, 100) <= 60;
  params.last = random.RandomLastName();
  params.c_id = random.NuRand(1023, 1, scale.customers_per_district);
  return params;
}

DeliveryParams SampleDelivery(TpccRandom& random, const LoaderOptions& scale) {
  DeliveryParams params;
  params.w = random.Uniform(1, scale.num_warehouses);
  params.carrier = random.Uniform(1, 10);
  return params;
}

StockLevelParams SampleStockLevel(TpccRandom& random, const LoaderOptions& scale) {
  StockLevelParams params;
  params.w = random.Uniform(1, scale.num_warehouses);
  params.d = random.Uniform(1, kTpccDistrictsPerWarehouse);
  params.threshold = random.Uniform(10, 20);
  return params;
}

TxnStatus TpccWorkload::Run(TpccTxnType type, TxnExecutor& executor, TpccRandom& random) {
  switch (type) {
    case TpccTxnType::kNewOrder:
      return NewOrder(executor, random);
    case TpccTxnType::kPayment:
      return Payment(executor, random);
    case TpccTxnType::kOrderStatus:
      return OrderStatus(executor, random);
    case TpccTxnType::kDelivery:
      return Delivery(executor, random);
    case TpccTxnType::kStockLevel:
      return StockLevel(random);
  }
  return TxnStatus::kAborted;
}

int32_t TpccWorkload::CustomerByLastName(Transaction& txn, int32_t w, int32_t d,
                                         const std::string& last) {
  // Collect matching (first, c_id) pairs — the index key order already sorts by first
  // name — then take the row at position ceil(n/2) (clause 2.5.2.2).
  std::vector<int32_t> ids;
  txn.Scan(tables_.customer_name_idx, CustomerNameKeyLo(w, d, last),
           CustomerNameKeyHi(w, d, last), /*descending=*/false, /*limit=*/0,
           [&ids](const std::string&, const std::string& value, Record*) {
             if (value.size() >= 4) {
               uint32_t c = (static_cast<uint8_t>(value[0]) << 24) |
                            (static_cast<uint8_t>(value[1]) << 16) |
                            (static_cast<uint8_t>(value[2]) << 8) |
                            static_cast<uint8_t>(value[3]);
               ids.push_back(static_cast<int32_t>(c));
             }
             return true;
           });
  if (ids.empty()) {
    return 0;
  }
  return ids[(ids.size() - 1) / 2];
}

TxnStatus TpccWorkload::NewOrder(TxnExecutor& executor, const NewOrderParams& params) {
  return executor.Run([&](Transaction& txn) {
    return NewOrderBody(txn, params, static_cast<int64_t>(executor.commits() + 2));
  });
}

bool TpccWorkload::NewOrderBody(Transaction& txn, const NewOrderParams& params,
                                int64_t entry_d) {
  const int32_t w = params.w;
  const int32_t d = params.d;
  const int32_t c = params.c;
  // Defensive clamp: `lines` is a fixed array and ol_cnt may come off the wire. A
  // clamped count still executes safely (decode validates the spec range upstream).
  const int32_t ol_cnt = std::clamp(params.ol_cnt, 0, kTpccMaxOrderLines);
  bool all_local = true;
  for (int32_t line = 0; line < ol_cnt; ++line) {
    if (params.lines[static_cast<size_t>(line)].supply_w != w) {
      all_local = false;
    }
  }

  WarehouseRow warehouse;
  if (!txn.ReadRow(tables_.warehouse, WarehouseKey(w), &warehouse)) {
    return false;
  }
  DistrictRow district;
  if (!txn.ReadRow(tables_.district, DistrictKey(w, d), &district)) {
    return false;
  }
  DistrictNextOrderRow next;
  Record* next_record = txn.ReadRow(tables_.district_next_o_id, DistrictKey(w, d), &next);
  if (next_record == nullptr) {
    return false;
  }
  const int32_t o_id = next.d_next_o_id;
  next.d_next_o_id++;
  txn.Write(next_record, RowBytes(next));

  CustomerRow customer;
  if (!txn.ReadRow(tables_.customer, CustomerKey(w, d, c), &customer)) {
    return false;
  }

  OrderRow order;
  order.o_w_id = w;
  order.o_d_id = d;
  order.o_id = o_id;
  order.o_c_id = c;
  order.o_carrier_id = 0;
  order.o_ol_cnt = ol_cnt;
  order.o_all_local = all_local ? 1 : 0;
  order.o_entry_d = entry_d;
  txn.Insert(tables_.order, OrderKey(w, d, o_id), RowBytes(order));
  txn.Insert(tables_.order_customer_idx, OrderCustomerKey(w, d, c, o_id), "");
  const NewOrderRow new_order{w, d, o_id};
  txn.Insert(tables_.new_order, NewOrderKey(w, d, o_id), RowBytes(new_order));

  int64_t total_cents = 0;
  for (int32_t index = 0; index < ol_cnt; ++index) {
    const NewOrderLineInput& input = params.lines[static_cast<size_t>(index)];
    ItemRow item;
    if (!txn.ReadRow(tables_.item, ItemKey(input.i_id), &item)) {
      return false;  // the 1% intentional rollback path
    }

    StockRow stock;
    Record* stock_record =
        txn.ReadRow(tables_.stock, StockKey(input.supply_w, input.i_id), &stock);
    if (stock_record == nullptr) {
      return false;
    }
    if (stock.s_quantity >= input.quantity + 10) {
      stock.s_quantity -= input.quantity;
    } else {
      stock.s_quantity += 91 - input.quantity;
    }
    stock.s_ytd += input.quantity;
    stock.s_order_cnt++;
    if (input.supply_w != w) {
      stock.s_remote_cnt++;
    }
    txn.Write(stock_record, RowBytes(stock));

    OrderLineRow ol;
    ol.ol_w_id = w;
    ol.ol_d_id = d;
    ol.ol_o_id = o_id;
    ol.ol_number = index + 1;
    ol.ol_i_id = input.i_id;
    ol.ol_supply_w_id = input.supply_w;
    ol.ol_delivery_d = 0;
    ol.ol_quantity = input.quantity;
    ol.ol_amount_cents = static_cast<int64_t>(input.quantity) * item.i_price_cents;
    SetField(ol.ol_dist_info, stock.s_dist[d - 1]);
    txn.Insert(tables_.order_line, OrderLineKey(w, d, o_id, ol.ol_number), RowBytes(ol));
    total_cents += ol.ol_amount_cents;
  }
  // The computed total (with taxes and discount) is returned to the client; compute
  // it so the code path matches the spec even though we do not ship it anywhere.
  int64_t adjusted = total_cents * (10000 - customer.c_discount_bp) / 10000 *
                     (10000 + warehouse.w_tax_bp + district.d_tax_bp) / 10000;
  (void)adjusted;
  return true;
}

TxnStatus TpccWorkload::Payment(TxnExecutor& executor, const PaymentParams& params) {
  const int32_t w = params.w;
  const int32_t d = params.d;
  const int32_t c_w = params.c_w;
  const int32_t c_d = params.c_d;
  const int64_t amount_cents = params.amount_cents;
  const uint64_t h_seq = history_seq_.fetch_add(1, std::memory_order_relaxed);

  return executor.Run([&](Transaction& txn) {
    WarehouseRow warehouse;
    if (!txn.ReadRow(tables_.warehouse, WarehouseKey(w), &warehouse)) {
      return false;
    }
    WarehouseYtdRow warehouse_ytd;
    Record* warehouse_ytd_record =
        txn.ReadRow(tables_.warehouse_ytd, WarehouseKey(w), &warehouse_ytd);
    if (warehouse_ytd_record == nullptr) {
      return false;
    }
    warehouse_ytd.w_ytd_cents += amount_cents;
    txn.Write(warehouse_ytd_record, RowBytes(warehouse_ytd));

    DistrictRow district;
    if (!txn.ReadRow(tables_.district, DistrictKey(w, d), &district)) {
      return false;
    }
    DistrictYtdRow district_ytd;
    Record* district_ytd_record =
        txn.ReadRow(tables_.district_ytd, DistrictKey(w, d), &district_ytd);
    if (district_ytd_record == nullptr) {
      return false;
    }
    district_ytd.d_ytd_cents += amount_cents;
    txn.Write(district_ytd_record, RowBytes(district_ytd));

    int32_t c_id = params.c_id;
    if (params.by_name) {
      c_id = CustomerByLastName(txn, c_w, c_d, params.last);
      if (c_id == 0) {
        c_id = params.c_id;  // no such name at this (test) scale; fall back to by-id
      }
    }
    CustomerRow customer;
    Record* customer_record =
        txn.ReadRow(tables_.customer, CustomerKey(c_w, c_d, c_id), &customer);
    if (customer_record == nullptr) {
      return false;
    }
    customer.c_balance_cents -= amount_cents;
    customer.c_ytd_payment_cents += amount_cents;
    customer.c_payment_cnt++;
    if (std::strncmp(customer.c_credit, "BC", 2) == 0) {
      // Bad-credit customers get the payment details prepended to c_data (2.5.2.2),
      // truncated to the column.
      char info[64];
      size_t n = std::min<size_t>(
          sizeof(info) - 1,
          static_cast<size_t>(std::snprintf(info, sizeof(info), "%d %d %d %d %d %lld|",
                                            c_id, c_d, c_w, d, w,
                                            static_cast<long long>(amount_cents))));
      std::memmove(customer.c_data + n, customer.c_data, sizeof(customer.c_data) - 1 - n);
      std::memcpy(customer.c_data, info, n);
      customer.c_data[sizeof(customer.c_data) - 1] = '\0';
    }
    txn.Write(customer_record, RowBytes(customer));

    HistoryRow history;
    history.h_c_id = c_id;
    history.h_c_d_id = c_d;
    history.h_c_w_id = c_w;
    history.h_d_id = d;
    history.h_w_id = w;
    history.h_amount_cents = amount_cents;
    std::snprintf(history.h_data, sizeof(history.h_data), "%s    %s", warehouse.w_name,
                  district.d_name);
    txn.Insert(tables_.history, HistoryKey(w, d, c_id, h_seq), RowBytes(history));
    return true;
  });
}

TxnStatus TpccWorkload::OrderStatus(TxnExecutor& executor,
                                    const OrderStatusParams& params) {
  const int32_t w = params.w;
  const int32_t d = params.d;

  return executor.Run([&](Transaction& txn) {
    int32_t c_id = params.c_id;
    if (params.by_name) {
      c_id = CustomerByLastName(txn, w, d, params.last);
      if (c_id == 0) {
        c_id = params.c_id;
      }
    }
    CustomerRow customer;
    if (!txn.ReadRow(tables_.customer, CustomerKey(w, d, c_id), &customer)) {
      return false;
    }

    // Latest order of the customer: descending scan of the secondary index, limit 1.
    int32_t o_id = 0;
    txn.Scan(tables_.order_customer_idx, OrderCustomerKey(w, d, c_id, 0),
             OrderCustomerKey(w, d, c_id, INT32_MAX), /*descending=*/true, /*limit=*/1,
             [&o_id](const std::string& key, const std::string&, Record*) {
               o_id = KeySuffixId(key);
               return false;
             });
    if (o_id == 0) {
      return true;  // customer without orders (possible at tiny scales): empty status
    }
    OrderRow order;
    if (!txn.ReadRow(tables_.order, OrderKey(w, d, o_id), &order)) {
      return false;
    }
    int64_t checksum = 0;
    txn.Scan(tables_.order_line, OrderLineKey(w, d, o_id, 0),
             OrderLineKey(w, d, o_id, INT32_MAX), /*descending=*/false, /*limit=*/0,
             [&checksum](const std::string&, const std::string& value, Record*) {
               auto ol = DecodeRow<OrderLineRow>(value);
               checksum += ol.ol_amount_cents + ol.ol_quantity;
               return true;
             });
    (void)order;
    (void)checksum;
    return true;
  });
}

TxnStatus TpccWorkload::Delivery(TxnExecutor& executor, const DeliveryParams& params) {
  const int32_t w = params.w;
  const int32_t carrier = params.carrier;

  return executor.Run([&](Transaction& txn) {
    for (int32_t d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
      // Oldest undelivered order of this district (ascending scan, limit 1), deleted
      // through the scan's handle. Structural erase: NEW-ORDER o_ids are never
      // revisited, and leaving tombstones would make this min-scan
      // O(delivered-so-far) — Masstree deletes keys, so do we.
      int32_t o_id = 0;
      txn.Scan(tables_.new_order, NewOrderKey(w, d, 0), NewOrderKey(w, d, INT32_MAX),
               /*descending=*/false, /*limit=*/1,
               [&](const std::string& key, const std::string&, Record* record) {
                 o_id = KeySuffixId(key);
                 txn.Delete(record, tables_.new_order, key, /*erase=*/true);
                 return false;
               });
      if (o_id == 0) {
        continue;  // district fully delivered (clause 2.7.4.2 allows skipping)
      }

      OrderRow order;
      Record* order_record = txn.ReadRow(tables_.order, OrderKey(w, d, o_id), &order);
      if (order_record == nullptr) {
        return false;
      }
      order.o_carrier_id = carrier;
      txn.Write(order_record, RowBytes(order));

      // Every line of the order is written back through its scan handle.
      int64_t total_cents = 0;
      txn.Scan(tables_.order_line, OrderLineKey(w, d, o_id, 0),
               OrderLineKey(w, d, o_id, INT32_MAX), /*descending=*/false, /*limit=*/0,
               [&](const std::string&, const std::string& value, Record* record) {
                 auto ol = DecodeRow<OrderLineRow>(value);
                 total_cents += ol.ol_amount_cents;
                 ol.ol_delivery_d = 2;  // "now"
                 txn.Write(record, RowBytes(ol));
                 return true;
               });

      CustomerRow customer;
      Record* customer_record =
          txn.ReadRow(tables_.customer, CustomerKey(w, d, order.o_c_id), &customer);
      if (customer_record == nullptr) {
        return false;
      }
      customer.c_balance_cents += total_cents;
      customer.c_delivery_cnt++;
      txn.Write(customer_record, RowBytes(customer));
    }
    return true;
  });
}

TxnStatus TpccWorkload::StockLevel(const StockLevelParams& params, int32_t* low_stock) {
  // Read committed, which clause 2.8.2.3 allows: every row is the latest committed
  // version, copied with Record::StableRead through the index, and absent records are
  // skipped. No Transaction, so no read set and no validation: nothing can make
  // StockLevel abort or retry.
  const int32_t w = params.w;
  const int32_t d = params.d;
  const int32_t threshold = params.threshold;
  static thread_local std::vector<int32_t> items;  // reused across transactions

  const Record* next_record = db_.table(tables_.district_next_o_id).Get(DistrictKey(w, d));
  DistrictNextOrderRow district;
  if (next_record == nullptr || !ReadCommitted(*next_record, &district, sizeof(district))) {
    return TxnStatus::kAborted;
  }
  const int32_t next = district.d_next_o_id;
  const int32_t lo_order = std::max(1, next - 20);

  // Distinct items in the last 20 orders' lines (clause 2.8.2.2).
  items.clear();
  db_.table(tables_.order_line)
      .Scan(OrderLineKey(w, d, lo_order, 0), OrderLineKey(w, d, next - 1, INT32_MAX),
            /*descending=*/false, [](const std::string&, Record* record) {
              OrderLineRow line;
              if (ReadCommitted(*record, &line, sizeof(line))) {
                items.push_back(line.ol_i_id);
              }
              return true;
            });
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  const OrderedIndex& stock_table = db_.table(tables_.stock);
  int32_t count = 0;
  for (int32_t i_id : items) {
    const Record* stock_record = stock_table.Get(StockKey(w, i_id));
    StockRow stock;
    if (stock_record != nullptr && ReadCommitted(*stock_record, &stock, sizeof(stock)) &&
        stock.s_quantity < threshold) {
      count++;
    }
  }
  if (low_stock != nullptr) {
    *low_stock = count;
  }
  return TxnStatus::kCommitted;
}

}  // namespace zygos
