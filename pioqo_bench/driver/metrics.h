#ifndef PIOQO_BENCH_DRIVER_METRICS_H_
#define PIOQO_BENCH_DRIVER_METRICS_H_

#include <chrono>
#include <string>
#include <vector>

namespace pioqo::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// One reported number. Every metric the driver prints or writes carries
/// its unit, so a reader never has to guess which clock a time is on.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile, `p` in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads the driver prints match the ones the comparison tool computes.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Geometric mean of positive values; 0 for an empty sample.
double GeoMean(const std::vector<double>& values);

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_DRIVER_METRICS_H_
