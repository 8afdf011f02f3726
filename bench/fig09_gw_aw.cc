// Reproduces paper Fig. 9: the QDTT model calibrated on SSD with the group
// waiting (GW) and active waiting (AW) methods; each point averages repeated
// calibrations (the paper uses 50 repetitions; set PIOQO_REPS to change the
// default 10).
//
// Paper shape: the two surfaces are nearly identical on SSD.

#include <cstdio>
#include <memory>

#include "core/calibrator.h"
#include "experiment_lib.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "storage/page.h"

int main() {
  using namespace pioqo;
  const int reps = bench::RepsFromEnv(10);
  std::printf("Fig. 9: QDTT on SSD calibrated with GW vs AW (%d reps)\n",
              reps);

  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  core::CalibratorOptions options;
  options.max_pages_per_point = 800;
  core::Calibrator cal(sim, *ssd, options);
  const auto bands = core::QdttModel::DefaultBandGrid(
      ssd->capacity_bytes() / storage::kPageSize);

  for (auto method : {core::CalibrationMethod::kGroupWaiting,
                      core::CalibrationMethod::kActiveWaiting}) {
    std::printf("\n(%s) us per page read\n%12s",
                std::string(core::CalibrationMethodName(method)).c_str(),
                "band\\qd");
    for (int qd : options.qd_grid) std::printf("%10d", qd);
    std::printf("\n");
    for (uint64_t band : bands) {
      std::printf("%12llu", static_cast<unsigned long long>(band));
      for (int qd : options.qd_grid) {
        auto stat = cal.MeasurePointStats(band, qd, method, reps,
                                          band * 131 + static_cast<uint64_t>(qd));
        std::printf("%10.1f", stat.mean());
      }
      std::printf("\n");
    }
  }
  return 0;
}
