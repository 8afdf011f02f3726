#ifndef PIOQO_CORE_IDLE_CALIBRATOR_H_
#define PIOQO_CORE_IDLE_CALIBRATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/calibrator.h"
#include "core/probe_gate.h"
#include "core/qdtt_model.h"
#include "io/device.h"
#include "sim/simulator.h"

namespace pioqo::core {

struct IdleCalibratorOptions {
  /// `repetitions` must stay 1 (checked at construction): the loop measures
  /// each point once, so a larger value would not reproduce the offline
  /// calibrator's averaged model. The loop calibrates its model's grid, so
  /// a non-empty `band_grid` or `qd_grid` must equal the model's (also
  /// checked).
  CalibratorOptions calibration;
  /// How often the background task re-checks for device idleness.
  double poll_interval_us = 20'000.0;
  /// The device must have been quiet (no completions, nothing outstanding)
  /// for this long before a calibration point is measured.
  double idle_threshold_us = 50'000.0;

  /// --- Busy-probe escalation (the never-idle starvation fix) ------------
  /// Under sustained load the device never satisfies the idle threshold, so
  /// a drift-triggered refresh waiting for idleness would starve forever.
  /// With a probe gate installed (a constructor argument), the loop
  /// escalates after `busy_escalation_us` of continuous busyness: it asks
  /// the gate for permission to measure the next point *under load*, pacing
  /// successive busy probes with `busy_probe_interval_us`.
  double busy_escalation_us = 200'000.0;
  double busy_probe_interval_us = 50'000.0;
};

/// Background calibration during idle I/O cycles — the future work of paper
/// Sec. 4.6 ("investigating the possibility of automatic frequent
/// calibrations during the idle I/O cycles of the system").
///
/// The calibrator measures into a model it does not own, on that model's
/// grid. Start() launches a simulated background task that watches the
/// device. Whenever the device has been idle for `idle_threshold_us`, it
/// measures the next point of the offline calibrator's CalibrationSchedule
/// (same order, stop rule, anchors and seeds) and then yields again, so
/// foreground query I/O always interleaves between points. When the grid is
/// complete, so is the model.
///
/// StartPartial() is the drift-defense entry point: re-measure only the
/// drifted bands (all queue depths, depths ascending, bands in the given
/// priority order) straight into the live model, reporting the run's end
/// through `on_complete` so the caller can restore planner confidence.
class IdleCalibrator {
 public:
  /// `model` and `probe_gate` must outlive the calibrator. A null
  /// `probe_gate` keeps the loop idle-only.
  IdleCalibrator(sim::Simulator& sim, io::Device& device, QdttModel& model,
                 IdleCalibratorOptions options,
                 ProbeGate* probe_gate = nullptr);
  IdleCalibrator(const IdleCalibrator&) = delete;
  IdleCalibrator& operator=(const IdleCalibrator&) = delete;

  /// Launches the full-grid background task. Call at most once, on a model
  /// with no points set: after an early stop the schedule fills only unset
  /// points.
  void Start();

  /// Queues a partial refresh of the grid rows `band_idxs` and launches the
  /// background task for it. Returns `kInvalidArgument` for an empty list
  /// or an index off the grid and `kFailedPrecondition` while a previous
  /// run is still in flight — callers poll `loop_running()` and re-trigger
  /// later. Each completed run may be followed by another StartPartial.
  [[nodiscard]] Status StartPartial(const std::vector<size_t>& band_idxs);

  /// Requests a stop; takes effect before the next point is measured.
  void Stop() { stop_requested_ = true; }

  bool started() const { return started_; }
  /// True while the background task is between launch and retirement.
  bool loop_running() const { return loop_running_; }
  int points_measured() const { return points_measured_; }
  int points_defaulted() const { return points_defaulted_; }
  /// Points measured under load through the probe gate (vs. idle cycles).
  int points_measured_busy() const { return points_measured_busy_; }

  /// Called once when a run's schedule is done (or the run was stopped).
  void set_on_complete(std::function<void()> on_complete) {
    on_complete_ = std::move(on_complete);
  }

 private:
  sim::Task Loop();
  /// True when the device has been quiet for the idle threshold.
  bool DeviceIdle() const;

  sim::Simulator& sim_;
  io::Device& device_;
  QdttModel& model_;
  IdleCalibratorOptions options_;
  ProbeGate* probe_gate_;
  Calibrator calibrator_;
  /// The full grid until the first StartPartial, then that run's rows.
  CalibrationSchedule schedule_;
  int points_measured_ = 0;
  int points_defaulted_ = 0;
  int points_measured_busy_ = 0;
  bool started_ = false;
  bool loop_running_ = false;
  bool stop_requested_ = false;
  uint64_t seed_;
  std::function<void()> on_complete_;
  // Idle detection state: last observed completion count and when it was
  // first seen unchanged.
  mutable uint64_t last_reads_seen_ = 0;
  mutable double quiet_since_ = 0.0;
};

}  // namespace pioqo::core

#endif  // PIOQO_CORE_IDLE_CALIBRATOR_H_
