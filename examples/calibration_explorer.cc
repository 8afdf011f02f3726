// Calibration explorer: runs the QDTT calibration (paper Secs. 4.4-4.6)
// against each device model, shows how the early-stop rule adapts the work
// to the device's parallel I/O capability, and demonstrates persisting a
// model to disk and loading it back — what an embedded database does so it
// does not recalibrate on every start.
//
//   ./build/examples/calibration_explorer [hdd|ssd|raid]

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/calibrator.h"
#include "io/device_factory.h"
#include "sim/simulator.h"

namespace {

void Explore(pioqo::io::DeviceKind kind) {
  using namespace pioqo;
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, kind);
  std::printf("=== %s (capacity %llu GiB) ===\n",
              std::string(io::DeviceKindName(kind)).c_str(),
              (unsigned long long)(device->capacity_bytes() >> 30));

  core::CalibratorOptions options;
  options.max_pages_per_point = 1600;
  options.repetitions = 2;
  core::Calibrator calibrator(sim, *device, options);
  auto result = calibrator.Calibrate();

  std::printf("%d points measured, %d defaulted, %.1fs device time, %llu "
              "pages read\n",
              result.points_measured, result.points_defaulted,
              result.calibration_time_us / 1e6,
              (unsigned long long)result.pages_read);
  std::printf("%s\n", result.model.ToString().c_str());

  // Persist and reload (the paper's DTT models are calibrated once on the
  // customer's hardware and reused).
  const std::string path =
      "/tmp/pioqo_qdtt_" + std::string(io::DeviceKindName(kind)) + ".txt";
  {
    std::ofstream out(path);
    out << result.model.Serialize();
  }
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  auto reloaded = core::QdttModel::Deserialize(buffer.str());
  PIOQO_CHECK(reloaded.ok());
  PIOQO_CHECK(reloaded->Lookup(4096, 8) == result.model.Lookup(4096, 8));
  std::printf("model persisted to %s and reloaded OK\n\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pioqo;
  std::vector<io::DeviceKind> kinds = {io::DeviceKind::kHdd7200,
                                       io::DeviceKind::kSsdConsumer,
                                       io::DeviceKind::kRaid8};
  if (argc > 1) {
    auto parsed = io::ParseDeviceKind(argv[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "usage: %s [hdd|ssd|raid]\n", argv[0]);
      return 1;
    }
    kinds = {*parsed};
  }
  for (auto kind : kinds) Explore(kind);
  return 0;
}
