#ifndef PIOQO_TESTS_CALIBRATION_TEST_UTIL_H_
#define PIOQO_TESTS_CALIBRATION_TEST_UTIL_H_

#include <cstddef>
#include <set>
#include <utility>

#include "core/calibrator.h"
#include "core/qdtt_model.h"

namespace pioqo::core::testing {

/// (band index, qd index) grid points.
using PointSet = std::set<std::pair<size_t, size_t>>;

/// The points an early-stopping full-grid schedule visits when every
/// measurement returns `model`'s own value. For a model a calibration with
/// early stop produced, these are exactly the points it measured, and
/// `*replay` (an empty grid of the same shape) ends equal to `model`.
inline PointSet MeasuredPoints(const QdttModel& model, QdttModel* replay) {
  auto schedule = CalibrationSchedule::FullGrid(
      model.num_bands(), model.num_qds(), /*early_stop=*/true);
  PointSet points;
  while (const auto point = schedule.Next()) {
    points.emplace(point->band_idx, point->qd_idx);
    schedule.Record(*replay, model.PointAt(point->band_idx, point->qd_idx));
  }
  return points;
}

}  // namespace pioqo::core::testing

#endif  // PIOQO_TESTS_CALIBRATION_TEST_UTIL_H_
