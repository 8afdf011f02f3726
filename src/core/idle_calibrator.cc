#include "core/idle_calibrator.h"

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace pioqo::core {

namespace {

/// The loop measures points of `model`'s grid; a grid the options name must
/// be that grid, and each point is measured once.
const CalibratorOptions& CheckedOptions(const CalibratorOptions& options,
                                        const QdttModel& model) {
  PIOQO_CHECK(options.repetitions == 1)
      << "IdleCalibrator measures each point once; repetitions must be 1";
  PIOQO_CHECK((options.band_grid.empty() ||
               options.band_grid == model.band_grid()) &&
              (options.qd_grid.empty() || options.qd_grid == model.qd_grid()))
      << "IdleCalibrator calibration grid must match the model's grid";
  return options;
}

}  // namespace

IdleCalibrator::IdleCalibrator(sim::Simulator& sim, io::Device& device,
                               QdttModel& model, IdleCalibratorOptions options,
                               ProbeGate* probe_gate)
    : sim_(sim),
      device_(device),
      model_(model),
      options_(options),
      probe_gate_(probe_gate),
      calibrator_(sim, device, CheckedOptions(options.calibration, model)),
      schedule_(CalibrationSchedule::FullGrid(
          model.num_bands(), model.num_qds(),
          calibrator_.options().early_stop)),
      seed_(calibrator_.options().seed) {}

void IdleCalibrator::Start() {
  PIOQO_CHECK(!started_) << "IdleCalibrator started twice";
  started_ = true;
  loop_running_ = true;
  Loop().Detach();
}

Status IdleCalibrator::StartPartial(const std::vector<size_t>& band_idxs) {
  if (band_idxs.empty()) {
    return Status::InvalidArgument("StartPartial: no bands given");
  }
  if (loop_running_) {
    return Status::FailedPrecondition(
        "StartPartial: a calibration run is already in flight");
  }
  for (size_t band_idx : band_idxs) {
    if (band_idx >= model_.num_bands()) {
      return Status::InvalidArgument("StartPartial: band index off the grid");
    }
  }
  // Bands in the caller's priority order: the most drifted band's full row
  // refreshes first.
  schedule_ = CalibrationSchedule::Rows(band_idxs, model_.num_qds());
  stop_requested_ = false;
  started_ = true;
  loop_running_ = true;
  Loop().Detach();
  return Status::OK();
}

bool IdleCalibrator::DeviceIdle() const {
  const auto& stats = device_.stats();
  if (stats.outstanding() > 0) {
    quiet_since_ = sim_.Now();
    last_reads_seen_ = stats.reads() + stats.writes();
    return false;
  }
  const uint64_t now_count = stats.reads() + stats.writes();
  if (now_count != last_reads_seen_) {
    last_reads_seen_ = now_count;
    quiet_since_ = sim_.Now();
    return false;
  }
  return sim_.Now() - quiet_since_ >= options_.idle_threshold_us;
}

sim::Task IdleCalibrator::Loop() {
  const std::vector<uint64_t>& bands = model_.band_grid();
  const std::vector<int>& qds = model_.qd_grid();
  // When the device has been continuously busy since `busy_since`, a probe
  // gate lets the loop measure under load instead of starving.
  double busy_since = sim_.Now();
  while (!stop_requested_) {
    const std::optional<CalibrationSchedule::Point> point = schedule_.Next();
    if (!point) break;
    const int point_qd = qds[point->qd_idx];
    bool busy_probe = false;
    if (!DeviceIdle()) {
      if (probe_gate_ != nullptr &&
          sim_.Now() - busy_since >= options_.busy_escalation_us &&
          probe_gate_->TryAcquire(point_qd)) {
        busy_probe = true;
      } else {
        co_await sim::Delay(sim_, options_.poll_interval_us);
        continue;
      }
    } else {
      busy_since = sim_.Now();
    }
    double cost = 0.0;
    sim::Latch done(sim_, 1);
    calibrator_.MeasurePointAsync(bands[point->band_idx], point_qd,
                                  calibrator_.options().method, seed_, &cost,
                                  done).Detach();
    seed_ += 104729;
    co_await done.Wait();
    if (busy_probe) {
      probe_gate_->Release(point_qd);
      ++points_measured_busy_;
      // A busy probe shares the device with foreground traffic, so its
      // sample is noisy-high; it still beats planning on a drifted grid.
    }
    schedule_.Record(model_, cost);
    ++points_measured_;

    // The stop rule ends the run at once.
    if (schedule_.stopped()) break;
    // Yield between points so foreground I/O can resume promptly. Busy
    // probes pace themselves with the (longer) busy interval.
    co_await sim::Delay(sim_, busy_probe ? options_.busy_probe_interval_us
                                         : options_.poll_interval_us);
  }
  points_defaulted_ += schedule_.points_filled();
  loop_running_ = false;
  if (on_complete_) on_complete_();
}

}  // namespace pioqo::core
