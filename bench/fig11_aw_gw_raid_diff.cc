// Reproduces paper Fig. 11: the difference between costs computed by the GW
// and AW methods on an 8-spindle (15000 RPM) RAID array.
//
// Paper shape: unlike on SSD, GW measures *significantly higher* costs than
// AW on the array — group waiting drains the queue while waiting for the
// group's stragglers, so it cannot sustain the target queue depth on a
// device where deeper queues keep helping. Hence "in a general calibration
// method ... the AW method must be the method of choice."

#include <cstdio>
#include <memory>

#include "core/calibrator.h"
#include "experiment_lib.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "storage/page.h"

int main() {
  using namespace pioqo;
  const int reps = bench::RepsFromEnv(6);
  std::printf(
      "Fig. 11: GW - AW calibration difference on RAID (8x15000rpm, %d "
      "reps)\n\n",
      reps);

  sim::Simulator sim;
  auto raid = io::MakeDevice(sim, io::DeviceKind::kRaid8);
  core::CalibratorOptions options;
  options.max_pages_per_point = 480;
  core::Calibrator cal(sim, *raid, options);
  const auto bands = core::QdttModel::DefaultBandGrid(
      raid->capacity_bytes() / storage::kPageSize);

  std::printf("%12s %6s %12s %12s %14s %10s\n", "band", "qd", "GW us", "AW us",
              "GW-AW us", "GW/AW");
  for (uint64_t band : bands) {
    if (band < 64) continue;  // seek-free micro-bands are uninformative here
    for (int qd : {4, 8, 16, 32}) {
      auto gw = cal.MeasurePointStats(
          band, qd, core::CalibrationMethod::kGroupWaiting, reps,
          band * 577 + static_cast<uint64_t>(qd));
      auto aw = cal.MeasurePointStats(
          band, qd, core::CalibrationMethod::kActiveWaiting, reps,
          band * 577 + static_cast<uint64_t>(qd));
      std::printf("%12llu %6d %12.1f %12.1f %14.1f %9.2fx\n",
                  static_cast<unsigned long long>(band), qd, gw.mean(),
                  aw.mean(), gw.mean() - aw.mean(), gw.mean() / aw.mean());
    }
  }
  return 0;
}
