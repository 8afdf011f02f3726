// Background (idle-time) calibration: the paper's future-work idea from
// Sec. 4.6 — "automatic frequent calibrations during the idle I/O cycles of
// the system" — implemented as core::IdleCalibrator.
//
// A foreground workload issues query-like read bursts; the background
// calibrator only measures grid points in the gaps. When the workload goes
// quiet, calibration completes and the optimizer gets a fresh model.
//
//   ./build/examples/background_calibration

#include <cstdio>

#include "common/logging.h"
#include "common/rng.h"
#include "core/idle_calibrator.h"
#include "core/qdtt_model.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/page.h"

namespace {

/// Query-like load: bursts of random reads separated by think time.
pioqo::sim::Task Workload(pioqo::sim::Simulator& sim,
                          pioqo::io::Device& device, int bursts,
                          double think_us) {
  pioqo::Pcg32 rng(3);
  const uint64_t pages = device.capacity_bytes() / pioqo::storage::kPageSize;
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < 50; ++i) {
      PIOQO_CHECK_OK(co_await device.Read(
          rng.UniformBelow(pages) * pioqo::storage::kPageSize,
          pioqo::storage::kPageSize));
    }
    co_await pioqo::sim::Delay(sim, think_us);
  }
}

}  // namespace

int main() {
  using namespace pioqo;
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);

  // The model the calibrator fills: the device's default grid.
  core::QdttModel model(
      core::QdttModel::DefaultBandGrid(ssd->capacity_bytes() /
                                       storage::kPageSize),
      core::QdttModel::DefaultQdGrid());
  core::IdleCalibratorOptions options;
  options.calibration.max_pages_per_point = 800;
  options.idle_threshold_us = 40'000.0;   // 40 ms of quiet before measuring
  options.poll_interval_us = 10'000.0;
  core::IdleCalibrator calibrator(sim, *ssd, model, options);
  calibrator.Start();

  // Busy phase: bursts every ~15 ms keep the device from ever looking idle.
  Workload(sim, *ssd, /*bursts=*/50, /*think_us=*/15'000.0).Detach();

  // Periodic progress reports.
  for (int t = 1; t <= 12; ++t) {
    sim.ScheduleAt(t * 500'000.0, [&calibrator, &model, t] {
      std::printf("t=%4.1fs: %2d points measured, %d defaulted%s\n",
                  t * 0.5, calibrator.points_measured(),
                  calibrator.points_defaulted(),
                  model.complete() ? "  -- model complete" : "");
    });
  }
  sim.Run();

  PIOQO_CHECK(model.complete());
  std::printf("\nfinal model (calibrated entirely in idle gaps):\n%s",
              model.ToString().c_str());
  std::printf(
      "\nThe busy phase (first ~0.8s) shows no progress; every point was\n"
      "measured after the workload's last burst, without ever stealing\n"
      "bandwidth from foreground I/O.\n");
  return 0;
}
