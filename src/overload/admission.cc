#include "src/overload/admission.h"

#include <algorithm>

namespace zygos {

double PredictedShedFraction(double load_multiplier) {
  if (load_multiplier <= 1.0) {
    return 0.0;
  }
  return 1.0 - 1.0 / load_multiplier;
}

bool AdmissionController::AdmitIngress() {
  if (admit_fraction_ >= 1.0) {
    return true;
  }
  credits_ += admit_fraction_;
  if (credits_ < 1.0) {
    return false;
  }
  credits_ -= 1.0;
  return true;
}

void AdmissionController::ObserveQueueing(Nanos delay) {
  if (target_ <= 0) {
    return;
  }
  if (!seeded_) {
    ewma_delay_ = delay;
    seeded_ = true;
  } else {
    // 7/8 old + 1/8 new, in integer nanos.
    ewma_delay_ = ewma_delay_ - ewma_delay_ / 8 + delay / 8;
  }
  if (++observations_ < kAdjustPeriod) {
    return;
  }
  observations_ = 0;
  if (ewma_delay_ > target_) {
    admit_fraction_ = std::max(kMinFraction, admit_fraction_ * kDecrease);
  } else {
    admit_fraction_ = std::min(1.0, admit_fraction_ + kIncrease);
  }
}

}  // namespace zygos
