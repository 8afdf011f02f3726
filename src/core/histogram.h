#ifndef PIOQO_CORE_HISTOGRAM_H_
#define PIOQO_CORE_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace pioqo::core {

/// Equi-width column histogram for range-selectivity estimation — the
/// statistics a real optimizer consults instead of scanning the index (the
/// paper's system "maintains statistics"; the experiment columns are
/// uniform, where equi-width is exact up to bucket granularity).
class EquiWidthHistogram {
 public:
  /// Builds `num_buckets` buckets spanning [min, max] from `values`
  /// (unsorted OK). Requires at least one value and num_buckets >= 1.
  static StatusOr<EquiWidthHistogram> Build(const std::vector<int32_t>& values,
                                            int num_buckets);

  int32_t min_value() const { return min_; }
  int32_t max_value() const { return max_; }
  int num_buckets() const { return static_cast<int>(counts_.size()); }

  /// Estimated fraction of values in [lo, hi] (inclusive), assuming uniform
  /// distribution within each bucket. Returns a value in [0, 1].
  double EstimateRangeSelectivity(int32_t lo, int32_t hi) const;

  std::string ToString() const;

 private:
  EquiWidthHistogram() = default;

  /// Fraction of bucket `b`'s width that [lo, hi] covers, in [0, 1].
  double BucketOverlap(size_t b, double lo, double hi) const;
  double BucketLow(size_t b) const;
  double BucketHigh(size_t b) const;

  int32_t min_ = 0;
  int32_t max_ = 0;
  uint64_t total_ = 0;
  std::vector<uint64_t> counts_;
};

}  // namespace pioqo::core

#endif  // PIOQO_CORE_HISTOGRAM_H_
