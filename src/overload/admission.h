// Overload-control policy: the adaptive admission controller and the analytic
// shed-curve prediction the benches compare against.
//
// ZygOS (§3, Fig. 2) shows what happens without overload control: past saturation,
// queues grow without bound, tail latency leaves the SLO envelope, and *goodput*
// (completions inside the SLO) collapses even though raw throughput plateaus. This
// subsystem adds the standard remedy on top of the runtime's layers 1–2, switched on
// by one value, RuntimeOptions::deadline_budget (0 = off):
//
//   deadline shedding   a request whose server-side queueing delay (dispatch time
//                       minus Segment::arrival) already exceeds the budget is
//                       answered with a wire-level shed status instead of being
//                       executed — work that can no longer meet its deadline is
//                       refused early, keeping the server at its operating point.
//   adaptive admission  a per-core controller (this file) tracks recent queueing
//                       delay against a target of budget / 2 and refuses a share of
//                       ingress while the core is persistently behind — the
//                       proactive leg that keeps queues short enough for deadline
//                       shedding to be rare.
//
// Under an open-loop offered load of m × capacity, an ideal controller serves
// capacity and sheds the rest: shed fraction max(0, 1 - 1/m). That analytic curve
// (PredictedShedFraction) is the reference the overload bench plots measured sheds
// against, the same measured-vs-analytic discipline as bench/fig2_qmodel.
//
// Contract: AdmissionController is single-threaded per core: core c's controller
// takes ingress decisions from c's netstack and observations from the events c
// executes, stolen ones included (src/runtime/runtime.cc). All times are Nanos.
#ifndef ZYGOS_OVERLOAD_ADMISSION_H_
#define ZYGOS_OVERLOAD_ADMISSION_H_

#include <cstdint>

#include "src/common/time_units.h"

namespace zygos {

// Ideal open-loop shed fraction at offered load m × capacity: serve capacity, shed
// the rest. The analytic reference curve for BENCH_overload.json.
double PredictedShedFraction(double load_multiplier);

// AIMD admission controller: one per core, single-threaded.
//
// Tracks an EWMA of observed queueing delay (7/8 old + 1/8 new — the TCP RTT
// estimator's gearing). Every kAdjustPeriod observations it adjusts the admit
// fraction: multiplicative decrease (x0.9, floor 0.05) while the EWMA is above
// target, additive increase (+0.02, cap 1.0) while below. Admission itself is a
// deterministic credit accumulator — credits += fraction per request, admit when a
// whole credit is available — so tests see exact refusal counts, no RNG.
class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(Nanos target) : target_(target) {}

  void set_target(Nanos target) { target_ = target; }

  // Ingress decision for one parsed request. False = shed.
  bool AdmitIngress();

  // Feeds one admitted request's measured queueing delay (dispatch - arrival).
  void ObserveQueueing(Nanos delay);

  double admit_fraction() const { return admit_fraction_; }
  Nanos ewma_delay() const { return ewma_delay_; }

 private:
  static constexpr int kAdjustPeriod = 256;
  static constexpr double kDecrease = 0.9;
  static constexpr double kIncrease = 0.02;
  static constexpr double kMinFraction = 0.05;

  Nanos target_ = 0;
  Nanos ewma_delay_ = 0;
  bool seeded_ = false;
  int observations_ = 0;
  double admit_fraction_ = 1.0;
  double credits_ = 0.0;
};

}  // namespace zygos

#endif  // ZYGOS_OVERLOAD_ADMISSION_H_
