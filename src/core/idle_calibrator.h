#ifndef PIOQO_CORE_IDLE_CALIBRATOR_H_
#define PIOQO_CORE_IDLE_CALIBRATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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
  /// calibrator's averaged model.
  CalibratorOptions calibration;
  /// How often the background task re-checks for device idleness.
  double poll_interval_us = 20'000.0;
  /// The device must have been quiet (no completions, nothing outstanding)
  /// for this long before a calibration point is measured.
  double idle_threshold_us = 50'000.0;

  /// --- Busy-probe escalation (the never-idle starvation fix) ------------
  /// Under sustained load the device never satisfies the idle threshold, so
  /// a drift-triggered refresh waiting for idleness would starve forever.
  /// With a probe gate installed, the loop escalates after
  /// `busy_escalation_us` of continuous busyness: it asks the gate for
  /// permission to measure the next point *under load* (charged like a
  /// background job by the admission layer), pacing successive busy probes
  /// with `busy_probe_interval_us`. Null keeps the legacy idle-only
  /// behaviour.
  ProbeGate* probe_gate = nullptr;
  double busy_escalation_us = 200'000.0;
  double busy_probe_interval_us = 50'000.0;
};

/// Background calibration during idle I/O cycles — the future work of paper
/// Sec. 4.6 ("investigating the possibility of automatic frequent
/// calibrations during the idle I/O cycles of the system").
///
/// Start() launches a simulated background task that watches the device.
/// Whenever the device has been idle for `idle_threshold_us`, it measures
/// the next point of the offline calibrator's CalibrationSchedule (same
/// order, stop rule, anchors and seeds) and then yields again, so foreground
/// query I/O always interleaves between points. When the grid is complete
/// the finished model is available.
///
/// StartPartial() is the drift-defense entry point: re-measure only the
/// drifted bands (all queue depths, depths ascending, bands in the given
/// priority order), reporting each refreshed point through `on_point` and
/// the run's end through `on_complete` so the caller can merge values into
/// the live model and restore planner confidence.
class IdleCalibrator {
 public:
  IdleCalibrator(sim::Simulator& sim, io::Device& device,
                 IdleCalibratorOptions options);
  IdleCalibrator(const IdleCalibrator&) = delete;
  IdleCalibrator& operator=(const IdleCalibrator&) = delete;

  /// Launches the full-grid background task. Call at most once.
  void Start();

  /// Queues a partial refresh of `band_pages` (each must be a grid band)
  /// and launches the background task for it. Returns
  /// `kInvalidArgument` for an empty list or an off-grid band and
  /// `kFailedPrecondition` while a previous run is still in flight —
  /// callers poll `loop_running()` and re-trigger later. Each completed
  /// run may be followed by another StartPartial.
  [[nodiscard]] Status StartPartial(const std::vector<uint64_t>& band_pages);

  /// Requests a stop; takes effect before the next point is measured.
  void Stop() { stop_requested_ = true; }

  bool started() const { return started_; }
  /// True while the background task is between launch and retirement.
  bool loop_running() const { return loop_running_; }
  /// True once every grid point is measured or defaulted.
  bool complete() const;
  int points_measured() const { return points_measured_; }
  int points_defaulted() const { return points_defaulted_; }
  /// Points measured under load through the probe gate (vs. idle cycles).
  int points_measured_busy() const { return points_measured_busy_; }

  /// Called after each measured point (band size in pages, queue depth,
  /// amortized us/page). May be reassigned between runs.
  void set_on_point(
      std::function<void(uint64_t, int, double)> on_point) {
    on_point_ = std::move(on_point);
  }
  /// Called once when a run's schedule is done (or the run was stopped).
  void set_on_complete(std::function<void()> on_complete) {
    on_complete_ = std::move(on_complete);
  }

  /// The (possibly partial) model. Lookups require complete().
  const QdttModel& model() const { return model_; }

  /// The finished model, if calibration completed.
  std::optional<QdttModel> FinishedModel() const;

 private:
  sim::Task Loop();
  /// True when the device has been quiet for the idle threshold.
  bool DeviceIdle() const;

  sim::Simulator& sim_;
  io::Device& device_;
  IdleCalibratorOptions options_;
  Calibrator calibrator_;
  QdttModel model_;
  /// The full grid until the first StartPartial, then that run's rows.
  CalibrationSchedule schedule_;
  int points_measured_ = 0;
  int points_defaulted_ = 0;
  int points_measured_busy_ = 0;
  bool started_ = false;
  bool loop_running_ = false;
  bool stop_requested_ = false;
  uint64_t seed_;
  std::function<void(uint64_t, int, double)> on_point_;
  std::function<void()> on_complete_;
  // Idle detection state: last observed completion count and when it was
  // first seen unchanged.
  mutable uint64_t last_reads_seen_ = 0;
  mutable double quiet_since_ = 0.0;
};

}  // namespace pioqo::core

#endif  // PIOQO_CORE_IDLE_CALIBRATOR_H_
