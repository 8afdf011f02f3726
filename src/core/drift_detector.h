#ifndef PIOQO_CORE_DRIFT_DETECTOR_H_
#define PIOQO_CORE_DRIFT_DETECTOR_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/qdtt_model.h"

namespace pioqo::core {

struct DriftDetectorOptions {
  /// Shift of the observed/predicted ratio relative to the cell's learned
  /// reference (in either direction) beyond which the cell counts as
  /// drifted. 1.5 tolerates the noise of concurrent execution while
  /// catching regime shifts (a thermal throttle multiplies service times
  /// well past 1.5x).
  double drift_ratio = 1.5;
};

/// Tracks how well the calibrated QDTT grid predicts observed I/O cost, per
/// (band, queue-depth) grid cell, and condenses the error surface into a
/// model-confidence score the optimizer can act on.
///
/// Each completed I/O-dominated query contributes one sample: the log of
/// observed/predicted cost, attributed to the grid cell nearest the plan's
/// (band size, effective queue depth). A cell's first `kMinSamples` samples
/// establish its *reference* error level — whole-plan cost estimates carry
/// a static structural bias (pipelining, CPU overlap, caching) that is not
/// drift, and predictions right after calibration are the most trustworthy
/// the model will ever be. Subsequent samples feed an EWMA, and the cell's
/// drift ratio is the EWMA's displacement from the reference: drift is a
/// sustained *shift* of the error level, not absolute error.
///
/// Confidence is 1.0 while every trusted cell's shift stays within
/// `drift_ratio` and decays toward 0 proportionally as the worst cell's
/// shift grows past it — a single badly drifted operating point is enough
/// to distrust the grid, which is the conservative direction. After a
/// recalibration the affected cells restart from scratch and re-learn their
/// reference against the refreshed model.
///
/// Pure bookkeeping: observing samples schedules no simulator events and
/// draws no randomness.
class DriftDetector {
 public:
  /// EWMA smoothing weight for each new log-error sample.
  static constexpr double kEwmaAlpha = 0.3;
  /// Samples a cell spends learning its reference error level (warmup), and
  /// again the number of post-warmup samples it needs before its drift
  /// signal is trusted.
  static constexpr uint64_t kMinSamples = 3;

  explicit DriftDetector(const QdttModel& model,
                         DriftDetectorOptions options = {});

  /// Feeds one query's predicted vs. observed cost (any consistent unit —
  /// only the ratio matters), attributed to the grid cell nearest
  /// (band_pages, queue_depth). Non-positive costs are ignored (nothing
  /// was observed).
  void Observe(double band_pages, double queue_depth, double predicted_us,
               double observed_us);

  /// Model confidence in (0, 1]: 1.0 = trust the grid, values below the
  /// optimizer's thresholds trigger conservative planning. Defined as
  /// min(1, drift_ratio / worst_cell_ratio) over trusted cells.
  double confidence() const;

  /// True when some trusted cell's error ratio exceeds drift_ratio.
  bool drifted() const { return confidence() < 1.0; }

  /// Grid indices of the bands that have at least one drifted trusted
  /// cell, most severely drifted first — the priority order for a partial
  /// grid refresh.
  std::vector<size_t> DriftedBands() const;

  /// A recalibration replaced grid row `band_idx`: forget its error history
  /// and reference (the cells re-learn their reference against the
  /// refreshed model, so confidence recovers as its predictions hold up).
  void NoteBandRecalibrated(size_t band_idx);

  /// Worst trusted drift shift (>= 1, symmetric in direction); 1.0 before
  /// any cell is trusted.
  double WorstRatio() const;

  uint64_t samples() const { return samples_; }
  /// Drift shift of one cell (exp |log-EWMA - reference|), for tests; 1.0
  /// while the cell is still in warmup.
  double CellRatio(size_t band_idx, size_t qd_idx) const;
  uint64_t CellSamples(size_t band_idx, size_t qd_idx) const;

  const std::vector<uint64_t>& band_grid() const { return bands_; }
  const std::vector<int>& qd_grid() const { return qds_; }
  const DriftDetectorOptions& options() const { return options_; }

 private:
  struct Cell {
    /// Sum of warmup log-ratios; becomes the reference mean once
    /// `warmup_samples == kMinSamples`.
    double warmup_sum = 0.0;
    double reference = 0.0;
    double log_ratio_ewma = 0.0;
    uint64_t warmup_samples = 0;
    uint64_t post_samples = 0;
  };

  bool CellTrusted(const Cell& cell) const {
    return cell.post_samples >= kMinSamples;
  }
  static double CellShift(const Cell& cell) {
    return std::exp(std::abs(cell.log_ratio_ewma - cell.reference));
  }

  size_t Index(size_t band_idx, size_t qd_idx) const {
    return band_idx * qds_.size() + qd_idx;
  }

  DriftDetectorOptions options_;
  std::vector<uint64_t> bands_;
  std::vector<int> qds_;
  std::vector<Cell> cells_;
  uint64_t samples_ = 0;
};

}  // namespace pioqo::core

#endif  // PIOQO_CORE_DRIFT_DETECTOR_H_
