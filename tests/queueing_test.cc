// Validation of the idealized queueing models against closed-form results and against
// the constants the paper reports (§2.3, §3.1, Figure 2).
#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/common/distribution.h"
#include "src/queueing/analytic.h"
#include "src/queueing/models.h"
#include "src/queueing/slo_search.h"

namespace zygos {
namespace {

constexpr Nanos kMean = 1000;  // S̄ = 1 µs in the normalized Fig. 2 setup

QueueingRunResult RunOnce(Discipline d, Topology t, int n, double load,
                      const ServiceTimeDistribution& service, uint64_t requests = 400000,
                      uint64_t seed = 1) {
  QueueingRunParams params;
  params.num_servers = n;
  params.load = load;
  params.num_requests = requests;
  params.warmup = requests / 20;
  params.seed = seed;
  return RunQueueingModel({d, t}, params, service);
}

TEST(QueueingLabelTest, RendersKendallNotation) {
  EXPECT_EQ((QueueingModelId{Discipline::kFcfs, Topology::kCentralized}.Label(16)),
            "M/G/16/FCFS");
  EXPECT_EQ((QueueingModelId{Discipline::kProcessorSharing, Topology::kPartitioned}.Label(16)),
            "16xM/G/1/PS");
  EXPECT_EQ((QueueingModelId{Discipline::kFcfs, Topology::kPartitioned}.Label(2)),
            "2xM/G/1/FCFS");
}

// --- M/M/1 closed forms -------------------------------------------------------

TEST(QueueingModelTest, Mm1MeanSojournMatchesAnalytic) {
  ExponentialDistribution service(kMean);
  double mu = 1.0 / kMean;
  for (double load : {0.3, 0.6, 0.8}) {
    auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, 1, load, service);
    double expected = Mm1MeanSojourn(load * mu, mu);
    EXPECT_NEAR(result.sojourn.Mean() / expected, 1.0, 0.05) << "load=" << load;
  }
}

TEST(QueueingModelTest, Mm1P99MatchesAnalytic) {
  ExponentialDistribution service(kMean);
  double mu = 1.0 / kMean;
  double load = 0.7;
  auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, 1, load, service, 800000);
  double expected = Mm1SojournQuantile(load * mu, mu, 0.99);
  EXPECT_NEAR(static_cast<double>(result.sojourn.P99()) / expected, 1.0, 0.06);
}

// --- M/M/c against Erlang-C ----------------------------------------------------

TEST(QueueingModelTest, Mm16WaitTailMatchesErlangC) {
  ExponentialDistribution service(kMean);
  double mu = 1.0 / kMean;
  int c = 16;
  double load = 0.85;
  double lambda = load * c * mu;
  auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, c, load, service, 800000);
  double expected_p99_wait = MmcWaitQuantile(c, lambda, mu, 0.99);
  EXPECT_NEAR(static_cast<double>(result.wait.P99()), expected_p99_wait,
              expected_p99_wait * 0.08);
  double expected_mean_wait = MmcMeanWait(c, lambda, mu);
  EXPECT_NEAR(result.wait.Mean(), expected_mean_wait, expected_mean_wait * 0.08);
}

TEST(QueueingModelTest, Mm16LowLoadWaitQuantileHitsZeroAtom) {
  // At low load almost nobody waits: the p99 wait is inside the P[W=0] atom.
  ExponentialDistribution service(kMean);
  auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, 16, 0.3, service);
  EXPECT_EQ(MmcWaitQuantile(16, 0.3 * 16.0 / kMean, 1.0 / kMean, 0.99), 0.0);
  EXPECT_LT(result.wait.Quantile(0.95), kMean / 10);
}

// --- M/G/1 against Pollaczek–Khinchine -----------------------------------------

TEST(QueueingModelTest, Md1MeanWaitMatchesPollaczekKhinchine) {
  DeterministicDistribution service(kMean);
  double load = 0.7;
  double lambda = load / kMean;
  auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, 1, load, service, 600000);
  double second_moment = static_cast<double>(kMean) * kMean;  // deterministic: E[S^2]=S̄²
  double expected = PollaczekKhinchineMeanWait(lambda, kMean, second_moment);
  EXPECT_NEAR(result.wait.Mean() / expected, 1.0, 0.05);
}

TEST(QueueingModelTest, Mg1BimodalMeanWaitMatchesPollaczekKhinchine) {
  auto service = BimodalDistribution::Bimodal1(kMean);
  double load = 0.6;
  double lambda = load / kMean;
  // E[S^2] = 0.9*(S/2)^2 + 0.1*(5.5 S)^2.
  double s = kMean;
  double second_moment = 0.9 * (s / 2) * (s / 2) + 0.1 * (5.5 * s) * (5.5 * s);
  auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, 1, load, service, 800000);
  double expected = PollaczekKhinchineMeanWait(lambda, s, second_moment);
  EXPECT_NEAR(result.wait.Mean() / expected, 1.0, 0.08);
}

// --- the analytic shed curve ----------------------------------------------------

TEST(ShedCurveTest, PredictedShedFractionMatchesOpenLoopIdeal) {
  // Serve capacity, shed the rest: at m x capacity the ideal controller sheds
  // max(0, 1 - 1/m) of the offered load.
  EXPECT_DOUBLE_EQ(PredictedShedFraction(0.5), 0.0);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(1.0), 0.0);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(2.0), 0.5);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(4.0), 0.75);
  EXPECT_DOUBLE_EQ(PredictedShedFraction(10.0), 0.9);
}

// --- Processor sharing ----------------------------------------------------------

TEST(QueueingModelTest, Mm1PsMeanSojournEqualsFcfs) {
  // For M/M/1, PS and FCFS have the same mean sojourn 1/(mu - lambda).
  ExponentialDistribution service(kMean);
  double load = 0.7;
  auto result =
      RunOnce(Discipline::kProcessorSharing, Topology::kCentralized, 1, load, service, 400000);
  double expected = Mm1MeanSojourn(load / kMean, 1.0 / kMean);
  EXPECT_NEAR(result.sojourn.Mean() / expected, 1.0, 0.07);
}

TEST(QueueingModelTest, Mg1PsInsensitivityToDistribution) {
  // M/G/1-PS mean sojourn depends only on the mean: S̄/(1-ρ) for any distribution.
  double load = 0.6;
  double expected = Mg1PsMeanSojourn(load / kMean, kMean);
  DeterministicDistribution det(kMean);
  auto det_result =
      RunOnce(Discipline::kProcessorSharing, Topology::kCentralized, 1, load, det, 400000);
  EXPECT_NEAR(det_result.sojourn.Mean() / expected, 1.0, 0.07) << "deterministic";
  auto bimodal = BimodalDistribution::Bimodal1(kMean);
  auto bi_result =
      RunOnce(Discipline::kProcessorSharing, Topology::kCentralized, 1, load, bimodal, 600000);
  EXPECT_NEAR(bi_result.sojourn.Mean() / expected, 1.0, 0.10) << "bimodal1";
}

TEST(QueueingModelTest, CentralizedPsLowLoadHasNoSlowdown) {
  // With k <= n each job runs at full speed: sojourn ≈ service.
  DeterministicDistribution service(kMean);
  auto result =
      RunOnce(Discipline::kProcessorSharing, Topology::kCentralized, 16, 0.05, service, 50000);
  EXPECT_NEAR(static_cast<double>(result.sojourn.P99()), static_cast<double>(kMean),
              static_cast<double>(kMean) * 0.05);
}

// --- Partitioned == n independent single-server queues --------------------------

TEST(QueueingModelTest, PartitionedFcfsMatchesSingleQueueAtSameLocalLoad) {
  // Each partition sees a thinned Poisson stream with the same per-queue load, so the
  // partitioned model's latency matches an M/M/1 at that load.
  ExponentialDistribution service(kMean);
  double load = 0.6;
  auto partitioned =
      RunOnce(Discipline::kFcfs, Topology::kPartitioned, 16, load, service, 800000);
  double expected = Mm1MeanSojourn(load / kMean, 1.0 / kMean);
  EXPECT_NEAR(partitioned.sojourn.Mean() / expected, 1.0, 0.06);
}

// --- The paper's Observation 1: single-queue beats multi-queue ------------------

class SingleVsMultiQueueSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(SingleVsMultiQueueSweep, CentralizedFcfsTailBeatsPartitioned) {
  auto [name, load] = GetParam();
  auto service = MakeDistribution(name, kMean);
  ASSERT_NE(service, nullptr);
  auto central = RunOnce(Discipline::kFcfs, Topology::kCentralized, 16, load, *service, 300000);
  auto part = RunOnce(Discipline::kFcfs, Topology::kPartitioned, 16, load, *service, 300000);
  EXPECT_LE(central.sojourn.P99(), part.sojourn.P99())
      << name << " load=" << load;
}

INSTANTIATE_TEST_SUITE_P(
    Fig2Distributions, SingleVsMultiQueueSweep,
    ::testing::Combine(::testing::Values("deterministic", "exponential", "bimodal1"),
                       ::testing::Values(0.5, 0.7, 0.9)));

// --- The paper's Observation 2: FCFS beats PS at low dispersion, loses at high ---

TEST(QueueingModelTest, FcfsBeatsPsForLowDispersion) {
  ExponentialDistribution service(kMean);
  double load = 0.8;
  auto fcfs = RunOnce(Discipline::kFcfs, Topology::kCentralized, 16, load, service, 300000);
  auto ps = RunOnce(Discipline::kProcessorSharing, Topology::kCentralized, 16, load, service, 300000);
  EXPECT_LT(fcfs.sojourn.P99(), ps.sojourn.P99());
}

TEST(QueueingModelTest, PsBeatsFcfsForBimodal2) {
  auto service = BimodalDistribution::Bimodal2(kMean);
  double load = 0.7;
  auto fcfs = RunOnce(Discipline::kFcfs, Topology::kCentralized, 16, load, service, 600000);
  auto ps =
      RunOnce(Discipline::kProcessorSharing, Topology::kCentralized, 16, load, service, 600000);
  EXPECT_LT(ps.sojourn.P99(), fcfs.sojourn.P99());
}

// --- Fig. 2 known minimum tail latencies ----------------------------------------

TEST(QueueingModelTest, Fig2MinimumTailLatencies) {
  // At very low load the p99 equals the p99 of the service distribution itself:
  // det: 1.0·S̄, exp: ~4.6·S̄, bimodal-1: 5.5·S̄, bimodal-2: 0.5·S̄.
  struct Case {
    std::string name;
    double expected_multiple;
    double tol;
  };
  for (const Case& c : {Case{"deterministic", 1.0, 0.05},
                        Case{"exponential", 4.6, 0.15},
                        Case{"bimodal1", 5.5, 0.05},
                        Case{"bimodal2", 0.5, 0.05}}) {
    auto service = MakeDistribution(c.name, kMean);
    auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, 16, 0.02, *service, 200000);
    EXPECT_NEAR(static_cast<double>(result.sojourn.P99()) / kMean, c.expected_multiple, c.tol)
        << c.name;
  }
}

// --- Paper constants: max load @ SLO(10×S̄), exponential, n=16 -------------------

TEST(QueueingModelTest, PaperMaxLoadConstantsExponential) {
  // §3.1: "for the exponential distribution a load of 53.7% for the partitioned-FCFS
  // model and of 96.3% for centralized-FCFS".
  ExponentialDistribution service(kMean);
  Nanos slo = 10 * kMean;

  auto p99_partitioned = [&](double load) {
    return RunOnce(Discipline::kFcfs, Topology::kPartitioned, 16, load, service, 400000, 7)
        .sojourn.P99();
  };
  double max_part = FindMaxLoadAtSlo(p99_partitioned, slo);
  EXPECT_NEAR(max_part, 0.537, 0.03);

  auto p99_central = [&](double load) {
    return RunOnce(Discipline::kFcfs, Topology::kCentralized, 16, load, service, 400000, 7)
        .sojourn.P99();
  };
  double max_central = FindMaxLoadAtSlo(p99_central, slo, {.max_load = 0.995});
  EXPECT_NEAR(max_central, 0.963, 0.02);
}

// --- SLO search unit behaviour ---------------------------------------------------

TEST(SloSearchTest, FindsAnalyticBoundary) {
  // Deterministic objective from the M/M/1 p99 formula: boundary at ρ*=1-ln(100)/10.
  double mu = 1.0;
  auto p99 = [&](double load) {
    return static_cast<Nanos>(Mm1SojournQuantile(load * mu, mu, 0.99) * 1000.0);
  };
  double found = FindMaxLoadAtSlo(p99, 10 * 1000, {.iterations = 20});
  EXPECT_NEAR(found, 1.0 - std::log(100.0) / 10.0, 0.002);
}

TEST(SloSearchTest, ReturnsZeroWhenUnattainable) {
  auto p99 = [](double) -> Nanos { return 1000000; };
  EXPECT_EQ(FindMaxLoadAtSlo(p99, 10), 0.0);
}

TEST(SloSearchTest, ReturnsMaxLoadWhenAlwaysMet) {
  auto p99 = [](double) -> Nanos { return 1; };
  EXPECT_NEAR(FindMaxLoadAtSlo(p99, 10, {.max_load = 0.95, .iterations = 12}), 0.95, 0.001);
}

// --- Monotonicity property across the full grid ----------------------------------

class TailMonotonicitySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(TailMonotonicitySweep, P99IncreasesWithLoad) {
  auto service = MakeDistribution(GetParam(), kMean);
  Nanos prev = 0;
  for (double load : {0.2, 0.5, 0.8}) {
    auto result = RunOnce(Discipline::kFcfs, Topology::kCentralized, 16, load, *service, 200000);
    EXPECT_GE(result.sojourn.P99() * 105 / 100 + 2, prev) << "load=" << load;
    prev = result.sojourn.P99();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSynthetic, TailMonotonicitySweep,
                         ::testing::Values("deterministic", "exponential", "bimodal1"));

}  // namespace
}  // namespace zygos
