#include "src/db/tpcc_loader.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/db/tid.h"
#include "src/db/tpcc_random.h"

namespace zygos {

namespace {

// Copies `text` into a fixed-size char field, always NUL-terminated.
template <size_t N>
void SetField(char (&field)[N], const std::string& text) {
  size_t n = std::min(text.size(), N - 1);
  std::memcpy(field, text.data(), n);
  field[n] = '\0';
}

class Loader {
 public:
  Loader(Database& db, const LoaderOptions& options)
      : db_(db), options_(options), random_(options.seed) {}

  TpccTables Load() {
    tables_.warehouse = db_.CreateTable("warehouse");
    tables_.warehouse_ytd = db_.CreateTable("warehouse_ytd");
    tables_.district = db_.CreateTable("district");
    tables_.district_ytd = db_.CreateTable("district_ytd");
    tables_.district_next_o_id = db_.CreateTable("district_next_o_id");
    tables_.customer = db_.CreateTable("customer");
    tables_.customer_name_idx = db_.CreateTable("customer_name_idx");
    tables_.history = db_.CreateTable("history");
    tables_.new_order = db_.CreateTable("new_order");
    tables_.order = db_.CreateTable("order");
    tables_.order_customer_idx = db_.CreateTable("order_customer_idx");
    tables_.order_line = db_.CreateTable("order_line");
    tables_.item = db_.CreateTable("item");
    tables_.stock = db_.CreateTable("stock");

    LoadItems();
    for (int w = 1; w <= options_.num_warehouses; ++w) {
      LoadWarehouse(w);
    }
    return tables_;
  }

 private:
  // Direct committed insert, bypassing the transaction layer (bulk load). The record
  // copies `row` into the one buffer it allocates at this first install.
  void Put(TableId table, const std::string& key, std::string_view row) {
    Record* record = db_.table(table).GetOrInsert(key).first;
    record->Lock();
    record->Install(TidWord::Make(db_.epochs().Current(), 1), row);
  }

  void LoadItems() {
    for (int i = 1; i <= options_.items; ++i) {
      ItemRow item;
      item.i_id = i;
      item.i_im_id = random_.Uniform(1, 10000);
      item.i_price_cents = random_.Uniform(100, 10000);
      SetField(item.i_name, random_.AString(14, 24));
      std::string data = random_.AString(26, 50);
      if (random_.Chance(0.1)) {
        // 10% of items carry "ORIGINAL" somewhere in i_data (clause 4.3.3.1).
        size_t pos = static_cast<size_t>(random_.Uniform(0, static_cast<int32_t>(data.size()) - 8));
        data.replace(pos, 8, "ORIGINAL");
      }
      SetField(item.i_data, data);
      Put(tables_.item, ItemKey(i), RowBytes(item));
    }
  }

  void LoadWarehouse(int w) {
    WarehouseRow warehouse;
    warehouse.w_id = w;
    warehouse.w_tax_bp = random_.Uniform(0, 2000);
    SetField(warehouse.w_name, random_.AString(6, 10));
    SetField(warehouse.w_street_1, random_.AString(10, 20));
    SetField(warehouse.w_street_2, random_.AString(10, 20));
    SetField(warehouse.w_city, random_.AString(10, 20));
    SetField(warehouse.w_state, random_.AString(2, 2));
    SetField(warehouse.w_zip, random_.NString(4) + "11111");
    Put(tables_.warehouse, WarehouseKey(w), RowBytes(warehouse));
    WarehouseYtdRow ytd{30000000};  // $300,000.00
    Put(tables_.warehouse_ytd, WarehouseKey(w), RowBytes(ytd));

    LoadStock(w);
    for (int d = 1; d <= kTpccDistrictsPerWarehouse; ++d) {
      LoadDistrict(w, d);
    }
  }

  void LoadStock(int w) {
    for (int i = 1; i <= options_.items; ++i) {
      StockRow stock;
      stock.s_w_id = w;
      stock.s_i_id = i;
      stock.s_quantity = random_.Uniform(10, 100);
      stock.s_ytd = 0;
      stock.s_order_cnt = 0;
      stock.s_remote_cnt = 0;
      for (auto& dist : stock.s_dist) {
        SetField(dist, random_.AString(24, 24));
      }
      std::string data = random_.AString(26, 50);
      if (random_.Chance(0.1)) {
        size_t pos = static_cast<size_t>(random_.Uniform(0, static_cast<int32_t>(data.size()) - 8));
        data.replace(pos, 8, "ORIGINAL");
      }
      SetField(stock.s_data, data);
      Put(tables_.stock, StockKey(w, i), RowBytes(stock));
    }
  }

  void LoadDistrict(int w, int d) {
    DistrictRow district;
    district.d_w_id = w;
    district.d_id = d;
    district.d_tax_bp = random_.Uniform(0, 2000);
    SetField(district.d_name, random_.AString(6, 10));
    SetField(district.d_street_1, random_.AString(10, 20));
    SetField(district.d_street_2, random_.AString(10, 20));
    SetField(district.d_city, random_.AString(10, 20));
    SetField(district.d_state, random_.AString(2, 2));
    SetField(district.d_zip, random_.NString(4) + "11111");
    Put(tables_.district, DistrictKey(w, d), RowBytes(district));
    DistrictYtdRow ytd{3000000};  // $30,000.00
    Put(tables_.district_ytd, DistrictKey(w, d), RowBytes(ytd));
    DistrictNextOrderRow next{options_.initial_orders_per_district + 1};
    Put(tables_.district_next_o_id, DistrictKey(w, d), RowBytes(next));

    LoadCustomers(w, d);
    LoadOrders(w, d);
  }

  void LoadCustomers(int w, int d) {
    for (int c = 1; c <= options_.customers_per_district; ++c) {
      CustomerRow customer;
      customer.c_w_id = w;
      customer.c_d_id = d;
      customer.c_id = c;
      customer.c_balance_cents = -1000;      // -$10.00
      customer.c_ytd_payment_cents = 1000;   // $10.00
      customer.c_payment_cnt = 1;
      customer.c_delivery_cnt = 0;
      customer.c_credit_lim_cents = 5000000;  // $50,000.00
      customer.c_discount_bp = random_.Uniform(0, 5000);
      // 10% of customers have bad credit (clause 4.3.3.1).
      SetField(customer.c_credit, random_.Chance(0.1) ? std::string("BC") : std::string("GC"));
      // First 1000 customers get sequential last names; the rest NURand(255).
      std::string last = c <= 1000 ? TpccRandom::LastName(c - 1) : random_.RandomLastName();
      SetField(customer.c_last, last);
      std::string first = random_.AString(8, 16);
      SetField(customer.c_first, first);
      SetField(customer.c_middle, std::string("OE"));
      SetField(customer.c_street_1, random_.AString(10, 20));
      SetField(customer.c_city, random_.AString(10, 20));
      SetField(customer.c_state, random_.AString(2, 2));
      SetField(customer.c_zip, random_.NString(4) + "11111");
      SetField(customer.c_phone, random_.NString(16));
      customer.c_since = 0;
      SetField(customer.c_data, random_.AString(200, 300));
      Put(tables_.customer, CustomerKey(w, d, c), RowBytes(customer));

      // Secondary index entry; value carries the primary customer id.
      std::string idx_value;
      AppendU32(idx_value, static_cast<uint32_t>(c));
      Put(tables_.customer_name_idx, CustomerNameKey(w, d, last, first, c), idx_value);

      HistoryRow history;
      history.h_c_id = c;
      history.h_c_d_id = d;
      history.h_c_w_id = w;
      history.h_d_id = d;
      history.h_w_id = w;
      history.h_amount_cents = 1000;
      SetField(history.h_data, random_.AString(12, 24));
      Put(tables_.history, HistoryKey(w, d, c, static_cast<uint64_t>(c)),
          RowBytes(history));
    }
  }

  void LoadOrders(int w, int d) {
    // o_c_id is a permutation of the customer ids (clause 4.3.3.1).
    std::vector<int32_t> customer_ids(static_cast<size_t>(options_.customers_per_district));
    std::iota(customer_ids.begin(), customer_ids.end(), 1);
    for (size_t i = customer_ids.size(); i > 1; --i) {
      std::swap(customer_ids[i - 1],
                customer_ids[static_cast<size_t>(random_.Uniform(0, static_cast<int32_t>(i) - 1))]);
    }
    int first_undelivered = std::min(kTpccFirstUndeliveredOrder,
                                     options_.initial_orders_per_district * 7 / 10);

    for (int o = 1; o <= options_.initial_orders_per_district; ++o) {
      OrderRow order;
      order.o_w_id = w;
      order.o_d_id = d;
      order.o_id = o;
      order.o_c_id = customer_ids[static_cast<size_t>((o - 1) %
                                                      options_.customers_per_district)];
      bool delivered = o <= first_undelivered;
      order.o_carrier_id = delivered ? random_.Uniform(1, 10) : 0;
      order.o_ol_cnt = random_.Uniform(5, 15);
      order.o_all_local = 1;
      order.o_entry_d = 1;
      Put(tables_.order, OrderKey(w, d, o), RowBytes(order));
      Put(tables_.order_customer_idx, OrderCustomerKey(w, d, order.o_c_id, o), "");

      if (!delivered) {
        NewOrderRow new_order{w, d, o};
        Put(tables_.new_order, NewOrderKey(w, d, o), RowBytes(new_order));
      }

      for (int line = 1; line <= order.o_ol_cnt; ++line) {
        OrderLineRow ol;
        ol.ol_w_id = w;
        ol.ol_d_id = d;
        ol.ol_o_id = o;
        ol.ol_number = line;
        ol.ol_i_id = random_.Uniform(1, options_.items);
        ol.ol_supply_w_id = w;
        ol.ol_delivery_d = delivered ? 1 : 0;
        ol.ol_quantity = 5;
        ol.ol_amount_cents = delivered ? 0 : random_.Uniform(1, 999999);
        SetField(ol.ol_dist_info, random_.AString(24, 24));
        Put(tables_.order_line, OrderLineKey(w, d, o, line), RowBytes(ol));
      }
    }
  }

  Database& db_;
  const LoaderOptions& options_;
  TpccRandom random_;
  TpccTables tables_;
};

}  // namespace

TpccTables LoadTpcc(Database& db, const LoaderOptions& options) {
  Loader loader(db, options);
  return loader.Load();
}

}  // namespace zygos
