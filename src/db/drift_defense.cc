#include "db/drift_defense.h"

#include <utility>

namespace pioqo::db {

DriftDefense::DriftDefense(sim::Simulator& sim, io::Device& device,
                           core::QdttModel& live_model,
                           AdmissionController* admission,
                           DriftDefenseOptions options)
    : gate_(admission != nullptr
                ? std::optional<AdmissionProbeGate>(std::in_place, *admission)
                : std::nullopt),
      detector_(live_model, options.detector),
      calibrator_(sim, device, live_model, options.calibrator,
                  gate_.has_value() ? &*gate_ : nullptr) {
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
  std::vector<size_t> band_idxs = detector_.DriftedBands();
  if (band_idxs.empty()) return;
  Status started = calibrator_.StartPartial(band_idxs);
  if (!started.ok()) return;  // raced a just-started run; retry on next sample
  inflight_bands_ = std::move(band_idxs);
  ++stats_.recalibrations_triggered;
}

void DriftDefense::OnRecalibrationComplete() {
  for (size_t band_idx : inflight_bands_) {
    detector_.NoteBandRecalibrated(band_idx);
    ++stats_.bands_refreshed;
  }
  inflight_bands_.clear();
  stats_.points_merged = static_cast<uint64_t>(calibrator_.points_measured());
  ++stats_.recalibrations_completed;
}

}  // namespace pioqo::db
