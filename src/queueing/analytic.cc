#include "src/queueing/analytic.h"

#include <cmath>

namespace zygos {

double Mm1SojournQuantile(double lambda, double mu, double q) {
  return -std::log(1.0 - q) / (mu - lambda);
}

double Mm1MeanSojourn(double lambda, double mu) { return 1.0 / (mu - lambda); }

double ErlangC(int c, double a) {
  // Iteratively compute the Erlang-B blocking probability, then convert to Erlang-C.
  // B(0, a) = 1; B(k, a) = a*B(k-1)/ (k + a*B(k-1)).
  double b = 1.0;
  for (int k = 1; k <= c; ++k) {
    b = a * b / (static_cast<double>(k) + a * b);
  }
  double rho = a / static_cast<double>(c);
  return b / (1.0 - rho + rho * b);
}

double MmcWaitQuantile(int c, double lambda, double mu, double q) {
  double a = lambda / mu;
  double pw = ErlangC(c, a);
  if (q <= 1.0 - pw) {
    return 0.0;  // quantile falls in the P[W = 0] atom
  }
  // P(W > t) = pw * exp(-(c*mu - lambda) t); solve pw * exp(-r t) = 1 - q.
  double r = static_cast<double>(c) * mu - lambda;
  return std::log(pw / (1.0 - q)) / r;
}

double MmcMeanWait(int c, double lambda, double mu) {
  double a = lambda / mu;
  return ErlangC(c, a) / (static_cast<double>(c) * mu - lambda);
}

double PredictedShedFraction(double load_multiplier) {
  if (load_multiplier <= 1.0) {
    return 0.0;
  }
  return 1.0 - 1.0 / load_multiplier;
}

double PollaczekKhinchineMeanWait(double lambda, double mean_service,
                                  double second_moment_service) {
  double rho = lambda * mean_service;
  return lambda * second_moment_service / (2.0 * (1.0 - rho));
}

double Mg1PsMeanSojourn(double lambda, double mean_service) {
  double rho = lambda * mean_service;
  return mean_service / (1.0 - rho);
}

}  // namespace zygos
