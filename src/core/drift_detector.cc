#include "core/drift_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace pioqo::core {

namespace {

/// Index of the grid point nearest `value` in log space, matching the
/// grids' exponential spacing; a tie goes to the smaller point.
template <typename T>
size_t NearestInLogSpace(const std::vector<T>& grid, double value) {
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  const double target = std::log(std::max(1.0, value));
  for (size_t i = 0; i < grid.size(); ++i) {
    const double dist =
        std::abs(std::log(static_cast<double>(grid[i])) - target);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

}  // namespace

DriftDetector::DriftDetector(const QdttModel& model,
                             DriftDetectorOptions options)
    : options_(options), bands_(model.band_grid()), qds_(model.qd_grid()) {
  PIOQO_CHECK(options_.drift_ratio > 1.0);
  cells_.assign(bands_.size() * qds_.size(), Cell{});
}

void DriftDetector::Observe(double band_pages, double queue_depth,
                            double predicted_us, double observed_us) {
  if (predicted_us <= 0.0 || observed_us <= 0.0) return;
  Cell& cell = cells_[Index(NearestInLogSpace(bands_, band_pages),
                            NearestInLogSpace(qds_, queue_depth))];
  const double log_ratio = std::log(observed_us / predicted_us);
  if (cell.warmup_samples < kMinSamples) {
    // Warmup: learn the cell's reference error level. Whatever structural
    // bias the plan costing carries right after calibration is the healthy
    // baseline, not drift.
    cell.warmup_sum += log_ratio;
    ++cell.warmup_samples;
    if (cell.warmup_samples == kMinSamples) {
      cell.reference = cell.warmup_sum / static_cast<double>(kMinSamples);
      cell.log_ratio_ewma = cell.reference;
    }
  } else {
    cell.log_ratio_ewma += kEwmaAlpha * (log_ratio - cell.log_ratio_ewma);
    ++cell.post_samples;
  }
  ++samples_;
}

double DriftDetector::WorstRatio() const {
  double worst = 1.0;
  for (const Cell& cell : cells_) {
    if (!CellTrusted(cell)) continue;
    worst = std::max(worst, CellShift(cell));
  }
  return worst;
}

double DriftDetector::confidence() const {
  const double worst = WorstRatio();
  if (worst <= options_.drift_ratio) return 1.0;
  return options_.drift_ratio / worst;
}

std::vector<size_t> DriftDetector::DriftedBands() const {
  struct BandDrift {
    size_t band_idx;
    double ratio;
  };
  std::vector<BandDrift> drifted;
  for (size_t b = 0; b < bands_.size(); ++b) {
    double worst = 1.0;
    for (size_t q = 0; q < qds_.size(); ++q) {
      const Cell& cell = cells_[Index(b, q)];
      if (!CellTrusted(cell)) continue;
      worst = std::max(worst, CellShift(cell));
    }
    if (worst > options_.drift_ratio) drifted.push_back({b, worst});
  }
  std::sort(drifted.begin(), drifted.end(),
            [](const BandDrift& a, const BandDrift& b) {
              return a.ratio > b.ratio;
            });
  std::vector<size_t> band_idxs;
  band_idxs.reserve(drifted.size());
  for (const BandDrift& d : drifted) band_idxs.push_back(d.band_idx);
  return band_idxs;
}

void DriftDetector::NoteBandRecalibrated(size_t band_idx) {
  PIOQO_CHECK(band_idx < bands_.size());
  for (size_t q = 0; q < qds_.size(); ++q) {
    cells_[Index(band_idx, q)] = Cell{};
  }
}

double DriftDetector::CellRatio(size_t band_idx, size_t qd_idx) const {
  PIOQO_CHECK(band_idx < bands_.size() && qd_idx < qds_.size());
  const Cell& cell = cells_[Index(band_idx, qd_idx)];
  if (cell.post_samples == 0) return 1.0;
  return CellShift(cell);
}

uint64_t DriftDetector::CellSamples(size_t band_idx, size_t qd_idx) const {
  PIOQO_CHECK(band_idx < bands_.size() && qd_idx < qds_.size());
  const Cell& cell = cells_[Index(band_idx, qd_idx)];
  return cell.warmup_samples + cell.post_samples;
}

}  // namespace pioqo::core
