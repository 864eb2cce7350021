// TPC-C schema: row layouts, key encodings, and scale constants.
//
// Rows are trivially-copyable PODs serialized by memcpy into the record value (the
// same flat-struct approach Silo's TPC-C uses). Monetary amounts are kept in integer
// cents and rates in basis points so the TPC-C consistency conditions (e.g.
// w_ytd = Σ d_ytd) hold exactly under concurrent execution — no floating-point drift.
//
// Index keys are byte strings built from big-endian fixed-width fields, so
// lexicographic order equals schema order; this is what makes district-prefix range
// scans (Delivery, StockLevel) and the customer-name / order-customer secondary
// indexes work on the ordered index.
#ifndef ZYGOS_DB_TPCC_SCHEMA_H_
#define ZYGOS_DB_TPCC_SCHEMA_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace zygos {

// --- Scale constants (TPC-C clause 1.2; Silo's configuration) -------------------------

inline constexpr int kTpccDistrictsPerWarehouse = 10;
inline constexpr int kTpccCustomersPerDistrict = 3000;
inline constexpr int kTpccItems = 100000;
inline constexpr int kTpccInitialOrdersPerDistrict = 3000;
// Orders with o_id > this threshold start undelivered (rows in NEW-ORDER).
inline constexpr int kTpccFirstUndeliveredOrder = 2100;

// --- Row structs ----------------------------------------------------------------------

// WAREHOUSE and DISTRICT hold their static columns only. The counters every Payment
// or NewOrder updates (w_ytd, d_ytd, d_next_o_id) each live in a record of their own,
// keyed like the parent row (a vertical partition, which TPC-C permits): a NewOrder
// that reads w_tax then no longer conflicts with a Payment that wrote w_ytd, nor a
// Payment's d_ytd with a NewOrder's d_next_o_id.
struct WarehouseRow {
  int32_t w_id = 0;
  int32_t w_tax_bp = 0;    // sales tax, basis points (0..2000)
  char w_name[11] = {};
  char w_street_1[21] = {};
  char w_street_2[21] = {};
  char w_city[21] = {};
  char w_state[3] = {};
  char w_zip[10] = {};
};

struct DistrictRow {
  int32_t d_w_id = 0;
  int32_t d_id = 0;
  int32_t d_tax_bp = 0;
  char d_name[11] = {};
  char d_street_1[21] = {};
  char d_street_2[21] = {};
  char d_city[21] = {};
  char d_state[3] = {};
  char d_zip[10] = {};
};

// Keyed by WarehouseKey.
struct WarehouseYtdRow {
  int64_t w_ytd_cents = 0;
};

// Keyed by DistrictKey.
struct DistrictYtdRow {
  int64_t d_ytd_cents = 0;
};

// Keyed by DistrictKey.
struct DistrictNextOrderRow {
  int32_t d_next_o_id = 0;
};

struct CustomerRow {
  int32_t c_w_id = 0;
  int32_t c_d_id = 0;
  int32_t c_id = 0;
  int64_t c_balance_cents = 0;
  int64_t c_ytd_payment_cents = 0;
  int32_t c_payment_cnt = 0;
  int32_t c_delivery_cnt = 0;
  int64_t c_credit_lim_cents = 0;
  int32_t c_discount_bp = 0;
  char c_credit[3] = {};  // "GC" or "BC"
  char c_last[17] = {};
  char c_first[17] = {};
  char c_middle[3] = {};
  char c_street_1[21] = {};
  char c_city[21] = {};
  char c_state[3] = {};
  char c_zip[10] = {};
  char c_phone[17] = {};
  int64_t c_since = 0;
  char c_data[301] = {};  // truncated from the spec's 500 chars (same access pattern)
};

struct HistoryRow {
  int32_t h_c_id = 0;
  int32_t h_c_d_id = 0;
  int32_t h_c_w_id = 0;
  int32_t h_d_id = 0;
  int32_t h_w_id = 0;
  int64_t h_date = 0;
  int64_t h_amount_cents = 0;
  char h_data[25] = {};
};

struct NewOrderRow {
  int32_t no_w_id = 0;
  int32_t no_d_id = 0;
  int32_t no_o_id = 0;
};

struct OrderRow {
  int32_t o_w_id = 0;
  int32_t o_d_id = 0;
  int32_t o_id = 0;
  int32_t o_c_id = 0;
  int32_t o_carrier_id = 0;  // 0 = not delivered yet
  int32_t o_ol_cnt = 0;
  int32_t o_all_local = 1;
  int64_t o_entry_d = 0;
};

struct OrderLineRow {
  int32_t ol_w_id = 0;
  int32_t ol_d_id = 0;
  int32_t ol_o_id = 0;
  int32_t ol_number = 0;
  int32_t ol_i_id = 0;
  int32_t ol_supply_w_id = 0;
  int64_t ol_delivery_d = 0;  // 0 = undelivered
  int32_t ol_quantity = 0;
  int64_t ol_amount_cents = 0;
  char ol_dist_info[25] = {};
};

struct ItemRow {
  int32_t i_id = 0;
  int32_t i_im_id = 0;
  int64_t i_price_cents = 0;
  char i_name[25] = {};
  char i_data[51] = {};
};

struct StockRow {
  int32_t s_w_id = 0;
  int32_t s_i_id = 0;
  int32_t s_quantity = 0;
  int64_t s_ytd = 0;
  int32_t s_order_cnt = 0;
  int32_t s_remote_cnt = 0;
  char s_dist[10][25] = {};
  char s_data[51] = {};
};

// --- Row (de)serialization ------------------------------------------------------------

// The stored bytes of `row`, without a copy; valid while `row` lives.
template <typename Row>
std::string_view RowBytes(const Row& row) {
  static_assert(std::is_trivially_copyable_v<Row>);
  return std::string_view(reinterpret_cast<const char*>(&row), sizeof(Row));
}

template <typename Row>
Row DecodeRow(std::string_view bytes) {
  static_assert(std::is_trivially_copyable_v<Row>);
  Row row;
  // Rows written from RowBytes always have the exact size; tolerate anything longer.
  std::memcpy(&row, bytes.data(), std::min(bytes.size(), sizeof(Row)));
  return row;
}

// --- Key builders ---------------------------------------------------------------------

// Appends a 32-bit value in big-endian order (lexicographic == numeric for the
// non-negative ids TPC-C uses).
inline void AppendU32(std::string& key, uint32_t v) {
  key.push_back(static_cast<char>(v >> 24));
  key.push_back(static_cast<char>(v >> 16));
  key.push_back(static_cast<char>(v >> 8));
  key.push_back(static_cast<char>(v));
}

// Appends a fixed-width, NUL-padded text column.
inline void AppendFixed(std::string& key, std::string_view text, size_t width) {
  size_t n = std::min(text.size(), width);
  key.append(text.data(), n);
  key.append(width - n, '\0');
}

inline std::string WarehouseKey(int32_t w) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  return key;
}

inline std::string DistrictKey(int32_t w, int32_t d) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  return key;
}

inline std::string CustomerKey(int32_t w, int32_t d, int32_t c) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  AppendU32(key, static_cast<uint32_t>(c));
  return key;
}

// Secondary: (w, d, last, first, c_id) -> row carrying c_id.
inline std::string CustomerNameKey(int32_t w, int32_t d, std::string_view last,
                                   std::string_view first, int32_t c) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  AppendFixed(key, last, 16);
  AppendFixed(key, first, 16);
  AppendU32(key, static_cast<uint32_t>(c));
  return key;
}

// Prefix bounds for "all customers with this last name".
inline std::string CustomerNameKeyLo(int32_t w, int32_t d, std::string_view last) {
  return CustomerNameKey(w, d, last, "", 0);
}
inline std::string CustomerNameKeyHi(int32_t w, int32_t d, std::string_view last) {
  return CustomerNameKey(w, d, last, std::string(16, '\xff'),
                         static_cast<int32_t>(0xffffffff));
}

inline std::string HistoryKey(int32_t w, int32_t d, int32_t c, uint64_t seq) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  AppendU32(key, static_cast<uint32_t>(c));
  AppendU32(key, static_cast<uint32_t>(seq >> 32));
  AppendU32(key, static_cast<uint32_t>(seq));
  return key;
}

inline std::string NewOrderKey(int32_t w, int32_t d, int32_t o) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  AppendU32(key, static_cast<uint32_t>(o));
  return key;
}

inline std::string OrderKey(int32_t w, int32_t d, int32_t o) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  AppendU32(key, static_cast<uint32_t>(o));
  return key;
}

// Secondary: (w, d, c, o_id) -> empty value; descending scan finds the latest order.
inline std::string OrderCustomerKey(int32_t w, int32_t d, int32_t c, int32_t o) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  AppendU32(key, static_cast<uint32_t>(c));
  AppendU32(key, static_cast<uint32_t>(o));
  return key;
}

inline std::string OrderLineKey(int32_t w, int32_t d, int32_t o, int32_t line) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(d));
  AppendU32(key, static_cast<uint32_t>(o));
  AppendU32(key, static_cast<uint32_t>(line));
  return key;
}

inline std::string ItemKey(int32_t i) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(i));
  return key;
}

inline std::string StockKey(int32_t w, int32_t i) {
  std::string key;
  AppendU32(key, static_cast<uint32_t>(w));
  AppendU32(key, static_cast<uint32_t>(i));
  return key;
}

// --- Table catalog --------------------------------------------------------------------

// Table ids of a loaded TPC-C database, resolved once at load time.
struct TpccTables {
  uint32_t warehouse = 0;
  uint32_t warehouse_ytd = 0;
  uint32_t district = 0;
  uint32_t district_ytd = 0;
  uint32_t district_next_o_id = 0;
  uint32_t customer = 0;
  uint32_t customer_name_idx = 0;
  uint32_t history = 0;
  uint32_t new_order = 0;
  uint32_t order = 0;
  uint32_t order_customer_idx = 0;
  uint32_t order_line = 0;
  uint32_t item = 0;
  uint32_t stock = 0;
};

}  // namespace zygos

#endif  // ZYGOS_DB_TPCC_SCHEMA_H_
