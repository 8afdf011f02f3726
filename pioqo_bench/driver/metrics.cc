#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace pioqo::bench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return QuartilesOf(std::move(values)).median;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  const auto cut = [&](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  q.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return q;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace pioqo::bench
