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
      return StockLevel(executor, random);
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
           [&ids](const std::string& key, const std::string& value) {
             (void)key;
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

  return executor.Run([&](Transaction& txn) {
    WarehouseRow warehouse;
    if (!txn.ReadRow(tables_.warehouse, WarehouseKey(w), &warehouse)) {
      return false;
    }

    DistrictRow district;
    if (!txn.ReadRow(tables_.district, DistrictKey(w, d), &district)) {
      return false;
    }
    const int32_t o_id = district.d_next_o_id;
    district.d_next_o_id++;
    txn.Write(tables_.district, DistrictKey(w, d), EncodeRow(district));

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
    order.o_entry_d = static_cast<int64_t>(executor.commits() + 2);
    txn.Insert(tables_.order, OrderKey(w, d, o_id), EncodeRow(order));
    txn.Insert(tables_.order_customer_idx, OrderCustomerKey(w, d, c, o_id), "");
    txn.Insert(tables_.new_order, NewOrderKey(w, d, o_id),
               EncodeRow(NewOrderRow{w, d, o_id}));

    int64_t total_cents = 0;
    for (int32_t index = 0; index < ol_cnt; ++index) {
      const NewOrderLineInput& input = params.lines[static_cast<size_t>(index)];
      ItemRow item;
      if (!txn.ReadRow(tables_.item, ItemKey(input.i_id), &item)) {
        return false;  // the 1% intentional rollback path
      }

      StockRow stock;
      if (!txn.ReadRow(tables_.stock, StockKey(input.supply_w, input.i_id), &stock)) {
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
      txn.Write(tables_.stock, StockKey(input.supply_w, input.i_id), EncodeRow(stock));

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
      txn.Insert(tables_.order_line, OrderLineKey(w, d, o_id, ol.ol_number),
                 EncodeRow(ol));
      total_cents += ol.ol_amount_cents;
    }
    // The computed total (with taxes and discount) is returned to the client; compute
    // it so the code path matches the spec even though we do not ship it anywhere.
    int64_t adjusted = total_cents * (10000 - customer.c_discount_bp) / 10000 *
                       (10000 + warehouse.w_tax_bp + district.d_tax_bp) / 10000;
    (void)adjusted;
    return true;
  });
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
    warehouse.w_ytd_cents += amount_cents;
    txn.Write(tables_.warehouse, WarehouseKey(w), EncodeRow(warehouse));

    DistrictRow district;
    if (!txn.ReadRow(tables_.district, DistrictKey(w, d), &district)) {
      return false;
    }
    district.d_ytd_cents += amount_cents;
    txn.Write(tables_.district, DistrictKey(w, d), EncodeRow(district));

    int32_t c_id = params.c_id;
    if (params.by_name) {
      c_id = CustomerByLastName(txn, c_w, c_d, params.last);
      if (c_id == 0) {
        c_id = params.c_id;  // no such name at this (test) scale; fall back to by-id
      }
    }
    CustomerRow customer;
    if (!txn.ReadRow(tables_.customer, CustomerKey(c_w, c_d, c_id), &customer)) {
      return false;
    }
    customer.c_balance_cents -= amount_cents;
    customer.c_ytd_payment_cents += amount_cents;
    customer.c_payment_cnt++;
    if (std::strncmp(customer.c_credit, "BC", 2) == 0) {
      // Bad-credit customers get the payment details prepended to c_data (2.5.2.2).
      char info[64];
      std::snprintf(info, sizeof(info), "%d %d %d %d %d %lld|", c_id, c_d, c_w, d, w,
                    static_cast<long long>(amount_cents));
      std::string data = std::string(info) + customer.c_data;
      SetField(customer.c_data, data);
    }
    txn.Write(tables_.customer, CustomerKey(c_w, c_d, c_id), EncodeRow(customer));

    HistoryRow history;
    history.h_c_id = c_id;
    history.h_c_d_id = c_d;
    history.h_c_w_id = c_w;
    history.h_d_id = d;
    history.h_w_id = w;
    history.h_amount_cents = amount_cents;
    SetField(history.h_data, std::string(warehouse.w_name) + "    " + district.d_name);
    txn.Insert(tables_.history, HistoryKey(w, d, c_id, h_seq), EncodeRow(history));
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
             [&o_id](const std::string& key, const std::string& value) {
               (void)value;
               // o_id is the last 4 key bytes (big-endian).
               size_t n = key.size();
               o_id = static_cast<int32_t>((static_cast<uint8_t>(key[n - 4]) << 24) |
                                           (static_cast<uint8_t>(key[n - 3]) << 16) |
                                           (static_cast<uint8_t>(key[n - 2]) << 8) |
                                           static_cast<uint8_t>(key[n - 1]));
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
             [&checksum](const std::string& key, const std::string& value) {
               (void)key;
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
  // One buffer for every district's order lines, kept by the thread across
  // transactions: its entries keep their key strings' capacity.
  struct Line {
    std::string key;
    OrderLineRow row;
  };
  static thread_local std::vector<Line> lines;

  return executor.Run([&](Transaction& txn) {
    for (int32_t d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
      // Oldest undelivered order of this district (ascending scan, limit 1).
      int32_t o_id = 0;
      txn.Scan(tables_.new_order, NewOrderKey(w, d, 0), NewOrderKey(w, d, INT32_MAX),
               /*descending=*/false, /*limit=*/1,
               [&o_id](const std::string& key, const std::string& value) {
                 (void)value;
                 size_t n = key.size();
                 o_id = static_cast<int32_t>((static_cast<uint8_t>(key[n - 4]) << 24) |
                                             (static_cast<uint8_t>(key[n - 3]) << 16) |
                                             (static_cast<uint8_t>(key[n - 2]) << 8) |
                                             static_cast<uint8_t>(key[n - 1]));
                 return false;
               });
      if (o_id == 0) {
        continue;  // district fully delivered (clause 2.7.4.2 allows skipping)
      }
      // Structural erase: NEW-ORDER o_ids are never revisited, and leaving tombstones
      // would make this min-scan O(delivered-so-far) — Masstree deletes keys, so do we.
      txn.Delete(tables_.new_order, NewOrderKey(w, d, o_id), /*erase=*/true);

      OrderRow order;
      if (!txn.ReadRow(tables_.order, OrderKey(w, d, o_id), &order)) {
        return false;
      }
      order.o_carrier_id = carrier;
      txn.Write(tables_.order, OrderKey(w, d, o_id), EncodeRow(order));

      int64_t total_cents = 0;
      size_t line_count = 0;
      txn.Scan(tables_.order_line, OrderLineKey(w, d, o_id, 0),
               OrderLineKey(w, d, o_id, INT32_MAX), /*descending=*/false, /*limit=*/0,
               [&](const std::string& key, const std::string& value) {
                 if (line_count == lines.size()) {
                   lines.emplace_back();
                 }
                 lines[line_count].key.assign(key);
                 lines[line_count].row = DecodeRow<OrderLineRow>(value);
                 line_count++;
                 return true;
               });
      for (size_t i = 0; i < line_count; ++i) {
        OrderLineRow& ol = lines[i].row;
        total_cents += ol.ol_amount_cents;
        ol.ol_delivery_d = 2;  // "now"
        txn.Write(tables_.order_line, lines[i].key, EncodeRow(ol));
      }

      CustomerRow customer;
      if (!txn.ReadRow(tables_.customer, CustomerKey(w, d, order.o_c_id), &customer)) {
        return false;
      }
      customer.c_balance_cents += total_cents;
      customer.c_delivery_cnt++;
      txn.Write(tables_.customer, CustomerKey(w, d, order.o_c_id), EncodeRow(customer));
    }
    return true;
  });
}

TxnStatus TpccWorkload::StockLevel(TxnExecutor& executor,
                                   const StockLevelParams& params) {
  const int32_t w = params.w;
  const int32_t d = params.d;
  const int32_t threshold = params.threshold;
  static thread_local std::vector<int32_t> items;  // reused across transactions

  return executor.Run([&](Transaction& txn) {
    DistrictRow district;
    if (!txn.ReadRow(tables_.district, DistrictKey(w, d), &district)) {
      return false;
    }
    const int32_t next = district.d_next_o_id;
    const int32_t lo_order = std::max(1, next - 20);

    // Distinct items in the last 20 orders' lines (clause 2.8.2.2).
    items.clear();
    txn.Scan(tables_.order_line, OrderLineKey(w, d, lo_order, 0),
             OrderLineKey(w, d, next - 1, INT32_MAX), /*descending=*/false, /*limit=*/0,
             [](const std::string& key, const std::string& value) {
               (void)key;
               items.push_back(DecodeRow<OrderLineRow>(value).ol_i_id);
               return true;
             });
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    int low_stock = 0;
    for (int32_t i_id : items) {
      StockRow stock;
      if (!txn.ReadRow(tables_.stock, StockKey(w, i_id), &stock)) {
        continue;
      }
      if (stock.s_quantity < threshold) {
        low_stock++;
      }
    }
    (void)low_stock;
    return true;
  });
}

}  // namespace zygos
