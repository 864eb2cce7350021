// Closed-form queueing results used to validate the simulators.
//
// These are textbook formulas (M/M/1 sojourn tail, Erlang-C waiting probability and
// conditional wait tail, Pollaczek–Khinchine mean wait, the open-loop shed curve). The
// property-based tests drive the discrete-event models of models.h against these
// across parameter sweeps; the benchmarks also print them as sanity columns.
//
// Contract: pure, reentrant, thread-safe functions. Rates (lambda, mu) are events per
// nanosecond and returned times are nanoseconds, matching Nanos everywhere else;
// stability preconditions (lambda < mu, a < c) are the caller's responsibility.
#ifndef ZYGOS_QUEUEING_ANALYTIC_H_
#define ZYGOS_QUEUEING_ANALYTIC_H_

namespace zygos {

// M/M/1-FCFS: the sojourn time is exponential with rate (mu - lambda); returns the
// q-quantile (q in (0,1)). `mu` and `lambda` are rates in events/ns; requires
// lambda < mu.
double Mm1SojournQuantile(double lambda, double mu, double q);

// M/M/1-FCFS mean sojourn: 1 / (mu - lambda).
double Mm1MeanSojourn(double lambda, double mu);

// Erlang-C: probability an arriving job must wait in an M/M/c queue.
// `a` = lambda/mu is the offered load in Erlangs; requires a < c.
double ErlangC(int c, double a);

// M/M/c-FCFS: q-quantile of the waiting time W (not the sojourn). W has an atom at
// zero of mass (1 - ErlangC); conditional on waiting, W ~ Exp(c*mu - lambda).
// Returns 0 when the q-quantile falls inside the atom.
double MmcWaitQuantile(int c, double lambda, double mu, double q);

// M/M/c-FCFS mean waiting time: ErlangC / (c*mu - lambda).
double MmcMeanWait(int c, double lambda, double mu);

// Ideal open-loop shed fraction at offered load m x capacity: serve capacity, shed
// the rest, max(0, 1 - 1/m). The analytic reference curve the overload bench
// (bench/overload_live_runtime.cc) checks measured sheds against.
double PredictedShedFraction(double load_multiplier);

// M/G/1-FCFS mean waiting time (Pollaczek–Khinchine):
//   E[W] = lambda * E[S^2] / (2 * (1 - rho)),  rho = lambda * mean_service.
double PollaczekKhinchineMeanWait(double lambda, double mean_service,
                                  double second_moment_service);

// M/G/1-PS mean sojourn: insensitive to the service distribution beyond its mean:
//   E[T] = mean_service / (1 - rho).
double Mg1PsMeanSojourn(double lambda, double mean_service);

}  // namespace zygos

#endif  // ZYGOS_QUEUEING_ANALYTIC_H_
