#ifndef PIOQO_DB_DRIFT_DEFENSE_H_
#define PIOQO_DB_DRIFT_DEFENSE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/cost_model.h"
#include "core/drift_detector.h"
#include "core/idle_calibrator.h"
#include "core/probe_gate.h"
#include "core/qdtt_model.h"
#include "db/admission.h"
#include "io/device.h"
#include "sim/simulator.h"

namespace pioqo::db {

/// core::ProbeGate implementation over the admission controller's
/// one-at-a-time background ledger: a drift-triggered calibration probe asks
/// here before touching a busy device, so the db layer keeps authority over
/// how much background load runs (and the core layer never depends on db).
class AdmissionProbeGate : public core::ProbeGate {
 public:
  explicit AdmissionProbeGate(AdmissionController& ctrl) : ctrl_(ctrl) {}

  bool TryAcquire(int queue_depth) override {
    return ctrl_.TryChargeBackground(queue_depth);
  }
  void Release(int queue_depth) override {
    ctrl_.ReleaseBackground(queue_depth);
  }

 private:
  AdmissionController& ctrl_;
};

struct DriftDefenseOptions {
  core::DriftDetectorOptions detector;
  /// Options for the guarded recalibrator, which measures the live model's
  /// grid: a non-empty `calibration.band_grid` or `qd_grid` must equal it.
  core::IdleCalibratorOptions calibrator;
};

/// The cost-model drift defense: closes the loop from mis-estimation
/// detection to guarded online recalibration.
///
///   observe (predicted vs. actual runtime, per completed query)
///     -> DriftDetector degrades model confidence
///       -> the optimizer, planning with that confidence, clamps DOP /
///          falls back to DTT costing (see opt::OptimizerOptions)
///       -> on any drifted cell, the drifted bands are handed to
///          the IdleCalibrator as a bounded-rate background job (idle-cycle
///          measurement, escalating on a never-idle device to busy probes)
///         -> each refreshed point is measured straight into the live
///            model; completion clears the refreshed bands' error history,
///            so confidence recovers as the new predictions hold up.
///
/// A busy probe is charged to the admission controller's background ledger
/// (AdmissionProbeGate), which is separate from the foreground DOP budget:
/// it never shrinks or waits for foreground capacity. A database has one
/// recalibrator, and its loop releases each charge before the next probe,
/// so the charge never fails inside the engine.
///
/// Everything is driven by query completions and the calibrator's own
/// simulated task — no timers of its own, no randomness beyond the
/// calibrator's seeded probes — so a workload that never drifts leaves the
/// trace hash untouched.
class DriftDefense {
 public:
  struct Stats {
    uint64_t observations = 0;        // samples fed to the detector
    uint64_t recalibrations_triggered = 0;
    uint64_t recalibrations_completed = 0;
    uint64_t points_merged = 0;       // grid points refreshed in the model
    uint64_t bands_refreshed = 0;
  };

  /// `live_model` is the model the optimizer plans from; the recalibrator
  /// measures refreshed points into it in place. `admission` may be null
  /// (no busy-probe escalation: recalibration then only runs in idle
  /// cycles).
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
  /// no recalibration is in flight, triggers the partial refresh.
  void ObserveQuery(const core::PlanCandidate& executed, double runtime_us);

  double confidence() const { return detector_.confidence(); }
  const core::DriftDetector& detector() const { return detector_; }
  /// The refresh counters (`recalibrations_completed`, `points_merged`,
  /// `bands_refreshed`) advance when a run completes.
  const Stats& stats() const { return stats_; }

 private:
  void MaybeTriggerRecalibration();
  void OnRecalibrationComplete();

  std::optional<AdmissionProbeGate> gate_;  // absent when admission == null
  core::DriftDetector detector_;
  core::IdleCalibrator calibrator_;
  std::vector<size_t> inflight_bands_;
  Stats stats_;
};

}  // namespace pioqo::db

#endif  // PIOQO_DB_DRIFT_DEFENSE_H_
