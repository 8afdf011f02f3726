#ifndef PIOQO_DB_DRIFT_DEFENSE_H_
#define PIOQO_DB_DRIFT_DEFENSE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/calibrator.h"
#include "core/cost_model.h"
#include "core/drift_detector.h"
#include "core/qdtt_model.h"
#include "db/admission.h"
#include "io/device.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace pioqo::db {

/// How the guarded recalibration measures and paces its refresh.
struct RecalibrationOptions {
  /// The refresh measures the live model's grid, each point once: a
  /// non-empty `band_grid` or `qd_grid` must equal the model's, and
  /// `repetitions` must stay 1 (both checked at construction).
  core::CalibratorOptions calibration;
  /// How often the refresh re-checks for device idleness. Must be positive
  /// and the three waits below non-negative, all finite (checked at
  /// construction).
  double poll_interval_us = 20'000.0;
  /// The device must have been quiet (no completions, nothing outstanding)
  /// for this long before a point is measured.
  double idle_threshold_us = 50'000.0;

  /// --- Busy-probe escalation (the never-idle starvation fix) ------------
  /// Under sustained load the device never satisfies the idle threshold, so
  /// a refresh waiting for idleness would starve forever. With admission
  /// control, the refresh escalates after `busy_escalation_us` of
  /// continuous busyness: it measures the next point *under load*, pacing
  /// successive busy probes with `busy_probe_interval_us`.
  double busy_escalation_us = 200'000.0;
  double busy_probe_interval_us = 50'000.0;
};

struct DriftDefenseOptions {
  core::DriftDetectorOptions detector;
  RecalibrationOptions calibrator;
};

/// The cost-model drift defense: closes the loop from mis-estimation
/// detection to guarded online recalibration.
///
///   observe (predicted vs. actual runtime, per completed query)
///     -> DriftDetector degrades model confidence
///       -> the optimizer, planning with that confidence, clamps DOP /
///          falls back to DTT costing (see opt::OptimizerOptions)
///       -> on any drifted cell, one background refresh re-measures the
///          drifted bands' rows in idle I/O cycles, escalating on a
///          never-idle device to busy probes (paper Sec. 4.6's future work)
///         -> each refreshed point is measured straight into the live
///            model; completion clears the refreshed bands' error history,
///            so confidence recovers as the new predictions hold up.
///
/// A busy probe is charged to the admission controller's background ledger,
/// which is separate from the foreground DOP budget: it never shrinks or
/// waits for foreground capacity. The refresh is the ledger's only user and
/// releases each charge before the next probe, so the charge never fails
/// inside the engine.
///
/// Everything is driven by query completions and the refresh's own
/// simulated task — no timers of its own, no randomness beyond its seeded
/// probes — so a workload that never drifts leaves the trace hash untouched.
class DriftDefense {
 public:
  struct Stats {
    uint64_t observations = 0;        // samples fed to the detector
    uint64_t recalibrations_triggered = 0;
    uint64_t recalibrations_completed = 0;
    uint64_t points_merged = 0;       // grid points refreshed in the model
    uint64_t bands_refreshed = 0;
  };

  /// `live_model` is the model the optimizer plans from; the refresh
  /// measures its points into it in place. `admission` may be null (no
  /// busy-probe escalation: recalibration then only runs in idle cycles).
  DriftDefense(sim::Simulator& sim, io::Device& device,
               core::QdttModel& live_model, AdmissionController* admission,
               DriftDefenseOptions options);

  /// Feeds one finished query: `executed` is the plan as it ran, costed by
  /// the live model at its granted degree, and `runtime_us` its observed
  /// runtime (admission wait excluded). Plans whose estimated I/O time is
  /// below their CPU time are ignored: only an I/O-dominated plan's runtime
  /// measures the grid. Every other plan is charged to the QDTT cell it was
  /// priced at (`band_pages`, `queue_depth`), comparing `total_us` against
  /// the runtime at whole-query granularity (robust to prefetching shifting
  /// pages between pool hits and misses). When some cell has drifted and
  /// no refresh is in flight, starts one for the drifted bands.
  void ObserveQuery(const core::PlanCandidate& executed, double runtime_us);

  double confidence() const { return detector_.confidence(); }
  const core::DriftDetector& detector() const { return detector_; }
  /// The refresh counters (`recalibrations_completed`, `points_merged`,
  /// `bands_refreshed`) advance when a run completes.
  const Stats& stats() const { return stats_; }

 private:
  /// Re-measures every queue depth, ascending, of each band in `band_idxs`
  /// (most drifted first), one point per idle cycle or busy probe.
  sim::Task Refresh(std::vector<size_t> band_idxs);
  /// True when the device has been quiet for the idle threshold.
  bool DeviceIdle();

  sim::Simulator& sim_;
  io::Device& device_;
  core::QdttModel& model_;
  AdmissionController* admission_;  // null: idle cycles only
  RecalibrationOptions options_;
  core::Calibrator calibrator_;
  core::DriftDetector detector_;
  Stats stats_;
  bool refreshing_ = false;
  /// Seeds continue across runs: no two refreshed points share one.
  uint64_t seed_;
  // Idle detection state, kept across runs: the last observed read+write
  // count and when it was first seen unchanged.
  uint64_t last_count_seen_ = 0;
  double quiet_since_ = 0.0;
};

}  // namespace pioqo::db

#endif  // PIOQO_DB_DRIFT_DEFENSE_H_
