// TPC-C initial population (clause 4.3.3), scaled by warehouse count.
//
// Loads the nine base tables plus the two secondary indexes Silo's TPC-C maintains
// (customer-by-name, order-by-customer) and the three hot-counter tables split off
// WAREHOUSE and DISTRICT (w_ytd, d_ytd, d_next_o_id; see tpcc_schema.h).
// `LoaderOptions` lets tests shrink the per-district row counts; benchmarks use the
// spec defaults.
#ifndef ZYGOS_DB_TPCC_LOADER_H_
#define ZYGOS_DB_TPCC_LOADER_H_

#include <cstdint>

#include "src/db/database.h"
#include "src/db/tpcc_schema.h"

namespace zygos {

struct LoaderOptions {
  int num_warehouses = 1;
  // Spec-scale knobs, reducible for fast unit tests.
  int items = kTpccItems;
  int customers_per_district = kTpccCustomersPerDistrict;
  int initial_orders_per_district = kTpccInitialOrdersPerDistrict;
  uint64_t seed = 42;

  static LoaderOptions Tiny(int warehouses = 1) {
    LoaderOptions options;
    options.num_warehouses = warehouses;
    options.items = 200;
    options.customers_per_district = 30;
    options.initial_orders_per_district = 30;
    return options;
  }
};

// Creates the TPC-C tables in `db` and populates them. Returns the table catalog.
// Loading bypasses the transaction layer (bulk inserts committed with TID epoch 1),
// exactly as Silo's loader does.
TpccTables LoadTpcc(Database& db, const LoaderOptions& options);

}  // namespace zygos

#endif  // ZYGOS_DB_TPCC_LOADER_H_
