// Reproduces paper Fig. 7: a calibrated QDTT model (amortized cost of one
// random page read vs band size, one curve per queue depth) for HDD and SSD.
//
// Paper shape: on SSD, deeper queues slash the amortized cost and shrink
// the band-size effect; on a single-spindle HDD the queue-depth benefit is
// small (and the early-stop rule would normally skip calibrating it — it is
// disabled here to show the full surface).

#include <cstdio>
#include <memory>

#include "core/calibrator.h"
#include "io/device_factory.h"
#include "sim/simulator.h"

namespace {

void PrintModel(const char* name, const pioqo::core::QdttModel& model) {
  std::printf("\n%s — us per page read\n%12s", name, "band\\qd");
  for (int qd : model.qd_grid()) std::printf("%10d", qd);
  std::printf("\n");
  for (size_t b = 0; b < model.num_bands(); ++b) {
    std::printf("%12llu",
                static_cast<unsigned long long>(model.band_grid()[b]));
    for (size_t q = 0; q < model.num_qds(); ++q) {
      std::printf("%10.1f", model.PointAt(b, q));
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace pioqo;
  std::printf("Fig. 7: calibrated QDTT models\n");

  core::CalibratorOptions options;
  options.early_stop = false;
  options.repetitions = 2;
  options.max_pages_per_point = 1600;

  const struct {
    io::DeviceKind kind;
    const char* name;
  } devices[] = {{io::DeviceKind::kHdd7200, "HDD (7200rpm single spindle)"},
                 {io::DeviceKind::kSsdConsumer, "SSD (consumer PCIe)"}};
  for (const auto& [kind, name] : devices) {
    sim::Simulator sim;
    auto device = io::MakeDevice(sim, kind);
    PrintModel(name, core::Calibrator(sim, *device, options).Calibrate().model);
  }
  return 0;
}
