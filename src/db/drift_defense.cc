#include "db/drift_defense.h"

#include <algorithm>

#include "common/logging.h"

namespace pioqo::db {

namespace {

/// The calibrator must target the same grid the live model is defined on,
/// or refreshed points could not be merged back.
core::IdleCalibratorOptions WireOptions(core::IdleCalibratorOptions options,
                                        const core::QdttModel& model,
                                        core::ProbeGate* gate) {
  if (options.calibration.band_grid.empty()) {
    options.calibration.band_grid = model.band_grid();
  }
  if (options.calibration.qd_grid.empty()) {
    options.calibration.qd_grid = model.qd_grid();
  }
  PIOQO_CHECK(options.calibration.band_grid == model.band_grid() &&
              options.calibration.qd_grid == model.qd_grid())
      << "DriftDefense calibrator grid must match the live model's grid";
  if (options.probe_gate == nullptr) options.probe_gate = gate;
  return options;
}

}  // namespace

DriftDefense::DriftDefense(sim::Simulator& sim, io::Device& device,
                           core::QdttModel& live_model,
                           AdmissionController* admission,
                           DriftDefenseOptions options)
    : live_model_(live_model),
      gate_(admission != nullptr
                ? std::optional<AdmissionProbeGate>(std::in_place, *admission)
                : std::nullopt),
      detector_(live_model, options.detector),
      calibrator_(sim, device,
                  WireOptions(options.calibrator, live_model,
                              gate_.has_value() ? &*gate_ : nullptr)) {
  calibrator_.set_on_point([this](uint64_t band, int qd, double cost_us) {
    OnPointRefreshed(band, qd, cost_us);
  });
  calibrator_.set_on_complete([this] { OnRecalibrationComplete(); });
}

void DriftDefense::ObserveQuery(const core::PlanCandidate& executed,
                                double runtime_us) {
  if (executed.io_us < executed.cpu_us || runtime_us <= 0.0) return;
  detector_.Observe(executed.band_pages, executed.queue_depth,
                    executed.total_us, runtime_us);
  ++stats_.observations;
  MaybeTriggerRecalibration();
}

void DriftDefense::MaybeTriggerRecalibration() {
  if (calibrator_.loop_running()) return;  // bounded rate: one run at a time
  if (!detector_.drifted()) return;
  std::vector<uint64_t> bands = detector_.DriftedBands();
  if (bands.empty()) return;
  Status started = calibrator_.StartPartial(bands);
  if (!started.ok()) return;  // raced a just-started run; retry on next sample
  inflight_bands_ = std::move(bands);
  ++stats_.recalibrations_triggered;
}

void DriftDefense::OnPointRefreshed(uint64_t band_pages, int qd,
                                    double cost_us) {
  const auto& bands = live_model_.band_grid();
  const auto& qds = live_model_.qd_grid();
  const auto band_it = std::find(bands.begin(), bands.end(), band_pages);
  const auto qd_it = std::find(qds.begin(), qds.end(), qd);
  PIOQO_CHECK(band_it != bands.end() && qd_it != qds.end())
      << "refreshed point off the live model's grid";
  live_model_.SetPoint(static_cast<size_t>(band_it - bands.begin()),
                       static_cast<size_t>(qd_it - qds.begin()), cost_us);
  ++stats_.points_merged;
}

void DriftDefense::OnRecalibrationComplete() {
  for (uint64_t band : inflight_bands_) {
    detector_.NoteBandRecalibrated(band);
    ++stats_.bands_refreshed;
  }
  inflight_bands_.clear();
  ++stats_.recalibrations_completed;
}

}  // namespace pioqo::db
