// Reproduces paper Fig. 6: a calibrated DTT model (amortized cost of one
// random page read vs band size, queue depth 1) for HDD and SSD.
//
// Paper shape: on HDD the cost climbs steeply with band size (seek
// distance); on SSD it rises only mildly (FTL map locality); band size 1
// (sequential) is cheapest on both.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/calibrator.h"
#include "io/device_factory.h"
#include "sim/simulator.h"

int main() {
  using namespace pioqo;
  std::printf("Fig. 6: calibrated DTT (queue depth 1), us per page read\n\n");

  core::CalibratorOptions options;
  options.qd_grid = {1};
  options.early_stop = false;
  options.repetitions = 3;
  options.max_pages_per_point = 1600;

  std::printf("%12s %14s %14s\n", "band (pages)", "HDD us/page",
              "SSD us/page");
  std::vector<core::QdttModel> models;
  for (io::DeviceKind kind :
       {io::DeviceKind::kHdd7200, io::DeviceKind::kSsdConsumer}) {
    sim::Simulator sim;
    auto device = io::MakeDevice(sim, kind);
    models.push_back(core::Calibrator(sim, *device, options).Calibrate().model);
  }
  const core::QdttModel& hdd_model = models[0];
  const core::QdttModel& ssd_model = models[1];

  for (uint64_t band : hdd_model.band_grid()) {
    std::printf("%12llu %14.1f %14.1f\n",
                static_cast<unsigned long long>(band),
                hdd_model.Lookup(static_cast<double>(band), 1),
                ssd_model.Lookup(static_cast<double>(band), 1));
  }
  return 0;
}
