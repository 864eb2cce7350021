// Figure 10a reproduction: complementary CDF of TPC-C transaction service time, per
// transaction type and for the full mix, measured on the real (in-repo) Silo-style
// engine with no network activity and GC disabled — exactly the paper's setup
// ("Silo locally driving the TPC-C benchmark... The Figure reports the service time").
//
// Output: per-type sample counts, mean/median/p99 (the paper quotes mix mean 33 µs,
// median 20 µs, p99 203 µs on their Xeon — absolute values differ on other hosts, the
// multi-modal *shape* and type ordering are the reproduction target), the achieved
// single-thread transaction rate, the rate of two threads sharing the database (with
// their OCC retries, in total and by the type of the transaction that retried, and
// their voluntary context switches: a worker that sleeps in the kernel shows there),
// and a CCDF table (service time at survival probabilities 1e0..1e-4, matching the
// figure's y-axis).
//
// Usage: fig10a_silo_ccdf [--txns=N] [--warmup=N] [--warehouses=W] [--quick]
#include <array>
#include <cstdio>
#include <memory>

#include "src/common/flags.h"
#include "src/common/histogram.h"
#include "src/common/time_units.h"
#include "src/db/tpcc_driver.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_txns.h"

namespace zygos {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool quick = flags.GetBool("quick", false);
  const auto txns = static_cast<uint64_t>(flags.GetInt("txns", quick ? 20'000 : 60'000));
  const auto warmup = static_cast<uint64_t>(flags.GetInt("warmup", txns / 10));
  LoaderOptions options;
  options.num_warehouses = static_cast<int>(flags.GetInt("warehouses", 1));

  std::printf("# Figure 10a: CCDF of TPC-C service time per transaction type (GC off)\n");
  std::printf("# loading %d warehouse(s)...\n", options.num_warehouses);
  Database db;
  TpccTables tables = LoadTpcc(db, options);
  TpccWorkload workload(db, tables, options);
  TpccDriver driver(db, workload);
  TpccMeasurement measurement = driver.Measure(txns, warmup, /*seed=*/101);

  std::printf("# single-thread rate: %.0f TPS (paper: 460 KTPS on 16 HT Xeon)\n",
              measurement.throughput_tps);
  std::printf("# NewOrder rollbacks: %llu, OCC retries: %llu\n",
              static_cast<unsigned long long>(measurement.user_aborts),
              static_cast<unsigned long long>(measurement.occ_retries));
  TpccMeasurement shared = driver.RunConcurrent(/*threads=*/2, txns, /*seed=*/202);
  std::printf("# 2-thread rate: %.0f TPS, OCC retries: %llu (", shared.throughput_tps,
              static_cast<unsigned long long>(shared.occ_retries));
  for (int t = 0; t < kTpccTxnTypes; ++t) {
    std::printf("%s%s %llu", t == 0 ? "" : ", ",
                TpccTxnTypeName(static_cast<TpccTxnType>(t)),
                static_cast<unsigned long long>(
                    shared.occ_retries_per_type[static_cast<size_t>(t)]));
  }
  std::printf("), voluntary context switches: %llu\n",
              static_cast<unsigned long long>(shared.voluntary_switches));

  // Per-type summary plus the mix.
  std::printf("\ntype,count,mean_us,p50_us,p99_us,max_us\n");
  std::array<LatencyHistogram, kTpccTxnTypes + 1> histograms;
  for (int t = 0; t < kTpccTxnTypes; ++t) {
    for (Nanos sample : measurement.per_type[static_cast<size_t>(t)]) {
      histograms[static_cast<size_t>(t)].Record(sample);
    }
  }
  for (Nanos sample : measurement.mix) {
    histograms[kTpccTxnTypes].Record(sample);
  }
  for (int t = 0; t <= kTpccTxnTypes; ++t) {
    const auto& h = histograms[static_cast<size_t>(t)];
    const char* name = t < kTpccTxnTypes
                           ? TpccTxnTypeName(static_cast<TpccTxnType>(t))
                           : "Mix";
    std::printf("%s,%llu,%.1f,%.1f,%.1f,%.1f\n", name,
                static_cast<unsigned long long>(h.Count()), ToMicros(static_cast<Nanos>(h.Mean())),
                ToMicros(h.P50()), ToMicros(h.P99()), ToMicros(h.Max()));
  }

  // CCDF rows: service time at survival probability 10^0 .. 10^-4 (figure y-axis).
  std::printf("\nccdf_survival,OrderStatus_us,Payment_us,NewOrder_us,StockLevel_us,"
              "Delivery_us,Mix_us\n");
  const double survivals[] = {0.5, 0.1, 0.01, 0.001, 0.0001};
  for (double s : survivals) {
    std::printf("%.4f", s);
    for (auto type : {TpccTxnType::kOrderStatus, TpccTxnType::kPayment,
                      TpccTxnType::kNewOrder, TpccTxnType::kStockLevel,
                      TpccTxnType::kDelivery}) {
      std::printf(",%.1f",
                  ToMicros(histograms[static_cast<size_t>(type)].Quantile(1.0 - s)));
    }
    std::printf(",%.1f\n", ToMicros(histograms[kTpccTxnTypes].Quantile(1.0 - s)));
  }
  return 0;
}

}  // namespace
}  // namespace zygos

int main(int argc, char** argv) { return zygos::Main(argc, argv); }
