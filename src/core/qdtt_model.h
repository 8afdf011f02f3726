#ifndef PIOQO_CORE_QDTT_MODEL_H_
#define PIOQO_CORE_QDTT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace pioqo::core {

/// The queue-depth-aware disk transfer time model (paper Sec. 4.2).
///
/// QDTT is a function `(band_size, queue_depth) -> amortized cost in
/// microseconds of one random page read issued within `band_size` pages
/// while the device queue depth is `queue_depth`'. It is defined by a grid
/// of calibrated points — band sizes on one axis, queue depths
/// {1, 2, 4, 8, 16, 32} on the other — and *bilinear interpolation* between
/// them (Sec. 4.5: "we will first interpolate linearly on the band size and
/// then on the queue depth").
///
/// The classic DTT model is exactly the queue-depth-1 row of this grid (the
/// QDTT model "can be considered as a generalization of the DTT model").
class QdttModel {
 public:
  /// Creates an empty (uncalibrated) grid. `band_grid` (pages, ascending,
  /// first element 1 == sequential) x `qd_grid` (ascending, first element 1).
  QdttModel(std::vector<uint64_t> band_grid, std::vector<int> qd_grid);

  /// Queue depths the paper calibrates: exponential up to 32.
  static std::vector<int> DefaultQdGrid() { return {1, 2, 4, 8, 16, 32}; }

  /// Exponentially spaced band sizes from 1 (sequential) up to
  /// `device_pages`, one point per factor of 8 with the end point included.
  static std::vector<uint64_t> DefaultBandGrid(uint64_t device_pages);

  size_t num_bands() const { return bands_.size(); }
  size_t num_qds() const { return qds_.size(); }
  const std::vector<uint64_t>& band_grid() const { return bands_; }
  const std::vector<int>& qd_grid() const { return qds_; }

  /// Sets the calibrated cost for grid point (band index, qd index) and
  /// bumps `generation()`.
  void SetPoint(size_t band_idx, size_t qd_idx, double cost_us);

  /// Monotone counter of grid mutations: incremented by every SetPoint, so
  /// consumers that memoize model-derived results (opt::PlanCache) can tell
  /// whether the grid they planned against is still the grid that is live —
  /// e.g. after db::DriftDefense's recalibration refreshes grid points.
  uint64_t generation() const { return generation_; }
  /// Calibrated value at a grid point; negative if not set.
  double PointAt(size_t band_idx, size_t qd_idx) const;
  bool IsSet(size_t band_idx, size_t qd_idx) const;
  /// True once every grid point has a value.
  bool complete() const;

  /// Amortized cost (us) of one page read within `band_pages` at
  /// `queue_depth`, bilinearly interpolated; queries outside the grid clamp
  /// to the boundary. Requires complete().
  double Lookup(double band_pages, double queue_depth) const;

  /// The DTT view of this model: Lookup at queue depth 1 regardless of the
  /// plan's parallelism — what the pre-QDTT optimizer used.
  double LookupDtt(double band_pages) const { return Lookup(band_pages, 1.0); }

  /// Human-readable table (bands as rows, queue depths as columns).
  std::string ToString() const;

  /// Round-trips through a simple text format (one "band qd cost" triple
  /// per line), so a calibration can be persisted like SQL Anywhere does.
  std::string Serialize() const;
  static StatusOr<QdttModel> Deserialize(const std::string& text);

 private:
  size_t Index(size_t band_idx, size_t qd_idx) const {
    return band_idx * qds_.size() + qd_idx;
  }
  /// Interpolates along the band axis within qd row `qd_idx`.
  double LookupBand(double band_pages, size_t qd_idx) const;

  std::vector<uint64_t> bands_;
  std::vector<int> qds_;
  std::vector<double> costs_;  // -1 == unset
  uint64_t generation_ = 0;
};

}  // namespace pioqo::core

#endif  // PIOQO_CORE_QDTT_MODEL_H_
