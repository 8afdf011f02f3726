#include "db/drift_defense.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "sim/sync.h"

namespace pioqo::db {

namespace {

/// The refresh measures points of `model`'s grid; a grid the options name
/// must be that grid, and each point is measured once (averaging
/// repetitions is the offline calibrator's job). Its pacing must let the
/// clock move: a zero poll interval re-queues a waiting refresh at the same
/// instant forever, and a negative or NaN wait aborts the simulator
/// mid-run.
const core::CalibratorOptions& CheckedOptions(
    const RecalibrationOptions& options, const core::QdttModel& model) {
  const core::CalibratorOptions& calibration = options.calibration;
  PIOQO_CHECK(calibration.repetitions == 1)
      << "drift recalibration measures each point once; repetitions must "
         "be 1";
  PIOQO_CHECK((calibration.band_grid.empty() ||
               calibration.band_grid == model.band_grid()) &&
              (calibration.qd_grid.empty() ||
               calibration.qd_grid == model.qd_grid()))
      << "drift recalibration grid must match the live model's grid";
  PIOQO_CHECK(std::isfinite(options.poll_interval_us) &&
              options.poll_interval_us > 0.0)
      << "drift recalibration poll_interval_us must be positive and finite, "
         "got "
      << options.poll_interval_us;
  const std::pair<const char*, double> waits[] = {
      {"idle_threshold_us", options.idle_threshold_us},
      {"busy_escalation_us", options.busy_escalation_us},
      {"busy_probe_interval_us", options.busy_probe_interval_us}};
  for (const auto& [name, us] : waits) {
    PIOQO_CHECK(std::isfinite(us) && us >= 0.0)
        << "drift recalibration " << name
        << " must be non-negative and finite, got " << us;
  }
  return calibration;
}

}  // namespace

DriftDefense::DriftDefense(sim::Simulator& sim, io::Device& device,
                           core::QdttModel& live_model,
                           AdmissionController* admission,
                           DriftDefenseOptions options)
    : sim_(sim),
      device_(device),
      model_(live_model),
      admission_(admission),
      options_(std::move(options.calibrator)),
      calibrator_(sim, device, CheckedOptions(options_, live_model)),
      detector_(live_model, options.detector),
      seed_(options_.calibration.seed) {}

void DriftDefense::ObserveQuery(const core::PlanCandidate& executed,
                                double runtime_us) {
  if (executed.io_us < executed.cpu_us || runtime_us <= 0.0) return;
  detector_.Observe(executed.band_pages, executed.queue_depth,
                    executed.total_us, runtime_us);
  ++stats_.observations;
  // Bounded rate: one refresh at a time, of the drifted bands only.
  if (refreshing_ || !detector_.drifted()) return;
  std::vector<size_t> band_idxs = detector_.DriftedBands();
  if (band_idxs.empty()) return;
  refreshing_ = true;
  ++stats_.recalibrations_triggered;
  Refresh(std::move(band_idxs)).Detach();
}

bool DriftDefense::DeviceIdle() {
  const auto& stats = device_.stats();
  const uint64_t count = stats.reads() + stats.writes();
  if (stats.outstanding() > 0 || count != last_count_seen_) {
    last_count_seen_ = count;
    quiet_since_ = sim_.Now();
    return false;
  }
  return sim_.Now() - quiet_since_ >= options_.idle_threshold_us;
}

sim::Task DriftDefense::Refresh(std::vector<size_t> band_idxs) {
  const std::vector<uint64_t>& bands = model_.band_grid();
  const std::vector<int>& qds = model_.qd_grid();
  // The device has been continuously busy since `busy_since`; past the
  // escalation threshold, admission lets the refresh measure under load
  // instead of starving.
  double busy_since = sim_.Now();
  for (size_t band_idx : band_idxs) {
    for (size_t qd_idx = 0; qd_idx < qds.size(); ++qd_idx) {
      const int qd = qds[qd_idx];
      bool busy_probe = false;
      while (!DeviceIdle()) {
        if (admission_ != nullptr &&
            sim_.Now() - busy_since >= options_.busy_escalation_us &&
            admission_->TryChargeBackground(qd)) {
          busy_probe = true;
          break;
        }
        co_await sim::Delay(sim_, options_.poll_interval_us);
      }
      if (!busy_probe) busy_since = sim_.Now();
      double cost = 0.0;
      sim::Latch done(sim_, 1);
      calibrator_.MeasurePointAsync(bands[band_idx], qd,
                                    options_.calibration.method, seed_, &cost,
                                    done).Detach();
      seed_ += 104729;
      co_await done.Wait();
      // A busy probe shares the device with foreground traffic, so its
      // sample is noisy-high; it still beats planning on a drifted grid.
      if (busy_probe) admission_->ReleaseBackground(qd);
      model_.SetPoint(band_idx, qd_idx, cost);
      // Yield after every point, the last included, so foreground I/O can
      // resume promptly. Busy probes pace themselves with the (longer) busy
      // interval.
      co_await sim::Delay(sim_, busy_probe ? options_.busy_probe_interval_us
                                           : options_.poll_interval_us);
    }
  }
  for (size_t band_idx : band_idxs) detector_.NoteBandRecalibrated(band_idx);
  stats_.bands_refreshed += band_idxs.size();
  stats_.points_merged += band_idxs.size() * qds.size();
  ++stats_.recalibrations_completed;
  refreshing_ = false;
}

}  // namespace pioqo::db
