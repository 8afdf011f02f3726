#include "core/idle_calibrator.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace pioqo::core {

IdleCalibrator::IdleCalibrator(sim::Simulator& sim, io::Device& device,
                               IdleCalibratorOptions options)
    : sim_(sim),
      device_(device),
      options_(options),
      calibrator_(sim, device, options.calibration),
      model_(calibrator_.options().band_grid, calibrator_.options().qd_grid),
      schedule_(CalibrationSchedule::FullGrid(
          model_.num_bands(), model_.num_qds(),
          calibrator_.options().early_stop)),
      seed_(calibrator_.options().seed) {
  PIOQO_CHECK(options.calibration.repetitions == 1)
      << "IdleCalibrator measures each point once; repetitions must be 1";
}

bool IdleCalibrator::complete() const { return model_.complete(); }

std::optional<QdttModel> IdleCalibrator::FinishedModel() const {
  if (!complete()) return std::nullopt;
  return model_;
}

void IdleCalibrator::Start() {
  PIOQO_CHECK(!started_) << "IdleCalibrator started twice";
  started_ = true;
  loop_running_ = true;
  Loop().Detach();
}

Status IdleCalibrator::StartPartial(const std::vector<uint64_t>& band_pages) {
  if (band_pages.empty()) {
    return Status::InvalidArgument("StartPartial: no bands given");
  }
  if (loop_running_) {
    return Status::FailedPrecondition(
        "StartPartial: a calibration run is already in flight");
  }
  const auto& grid = calibrator_.options().band_grid;
  std::vector<size_t> band_idxs;
  band_idxs.reserve(band_pages.size());
  for (uint64_t band : band_pages) {
    const auto it = std::find(grid.begin(), grid.end(), band);
    if (it == grid.end()) {
      return Status::InvalidArgument("StartPartial: band is not a grid band");
    }
    band_idxs.push_back(static_cast<size_t>(it - grid.begin()));
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
  const auto& opts = calibrator_.options();
  // When the device has been continuously busy since `busy_since`, a probe
  // gate lets the loop measure under load instead of starving.
  double busy_since = sim_.Now();
  while (!stop_requested_) {
    const std::optional<CalibrationSchedule::Point> point = schedule_.Next();
    if (!point) break;
    const int point_qd = opts.qd_grid[point->qd_idx];
    bool busy_probe = false;
    if (!DeviceIdle()) {
      if (options_.probe_gate != nullptr &&
          sim_.Now() - busy_since >= options_.busy_escalation_us &&
          options_.probe_gate->TryAcquire(point_qd)) {
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
    calibrator_.MeasurePointAsync(opts.band_grid[point->band_idx], point_qd,
                                  opts.method, seed_, &cost, done).Detach();
    seed_ += 104729;
    co_await done.Wait();
    if (busy_probe) {
      options_.probe_gate->Release(point_qd);
      ++points_measured_busy_;
      // A busy probe shares the device with foreground traffic, so its
      // sample is noisy-high; it still beats planning on a drifted grid.
    }
    schedule_.Record(model_, cost);
    ++points_measured_;
    if (on_point_) on_point_(opts.band_grid[point->band_idx], point_qd, cost);

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
