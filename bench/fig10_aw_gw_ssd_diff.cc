// Reproduces paper Fig. 10: the per-point difference between costs computed
// by the AW and GW calibration methods on SSD, compared against the
// per-method standard deviation.
//
// Paper: the maximum observed difference is ~7 us — negligible next to
// per-point standard deviations of up to 40 us, so either method works on
// SSD.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/calibrator.h"
#include "experiment_lib.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "storage/page.h"

int main() {
  using namespace pioqo;
  const int reps = bench::RepsFromEnv(10);
  std::printf("Fig. 10: |AW - GW| calibration difference on SSD (%d reps)\n\n",
              reps);

  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  core::CalibratorOptions options;
  options.max_pages_per_point = 800;
  core::Calibrator cal(sim, *ssd, options);
  const auto bands = core::QdttModel::DefaultBandGrid(
      ssd->capacity_bytes() / storage::kPageSize);

  std::printf("%12s %6s %10s %10s %12s %12s\n", "band", "qd", "GW us", "AW us",
              "|diff| us", "max stddev");
  double max_diff = 0.0;
  for (uint64_t band : bands) {
    for (int qd : options.qd_grid) {
      auto gw = cal.MeasurePointStats(
          band, qd, core::CalibrationMethod::kGroupWaiting, reps,
          band * 733 + static_cast<uint64_t>(qd));
      auto aw = cal.MeasurePointStats(
          band, qd, core::CalibrationMethod::kActiveWaiting, reps,
          band * 733 + static_cast<uint64_t>(qd));
      const double diff = std::abs(gw.mean() - aw.mean());
      max_diff = std::max(max_diff, diff);
      std::printf("%12llu %6d %10.1f %10.1f %12.2f %12.2f\n",
                  static_cast<unsigned long long>(band), qd, gw.mean(),
                  aw.mean(), diff, std::max(gw.stddev(), aw.stddev()));
    }
  }
  std::printf("\nmax |AW-GW| difference: %.2f us (paper: ~7 us)\n", max_diff);
  return 0;
}
