// Ablation of paper Sec. 4.6: the early-stop control mechanism (threshold
// T = 20%, with the far anchor of core::CalibrationSchedule) vs full-grid
// calibration, on each device class.
//
// Expected: on the single-spindle HDD the T test fires at queue depth 2,
// but the qd-32 anchor clears it (NCQ reorders deeper queues), so the qd-32
// column is measured and the depths between are interpolated: about a third
// of the points, under half the calibration time. On SSD and RAID every
// point clears the threshold, so the runs are identical.

#include <cstdio>
#include <memory>

#include "core/calibrator.h"
#include "io/device_factory.h"
#include "sim/simulator.h"

int main() {
  using namespace pioqo;
  std::printf("Ablation: calibration early-stop (Sec. 4.6, T = 20%%)\n\n");
  std::printf("%-8s %12s %12s %14s %14s %10s\n", "device", "pts (stop)",
              "pts (full)", "time (stop)", "time (full)", "saving");

  for (auto kind : {io::DeviceKind::kHdd7200, io::DeviceKind::kSsdConsumer,
                    io::DeviceKind::kRaid8}) {
    double time_with = 0.0, time_without = 0.0;
    int measured_with = 0, measured_without = 0;
    for (bool early_stop : {true, false}) {
      sim::Simulator sim;
      auto device = io::MakeDevice(sim, kind);
      core::CalibratorOptions options;
      options.max_pages_per_point = 800;
      options.early_stop = early_stop;
      core::Calibrator cal(sim, *device, options);
      auto result = cal.Calibrate();
      if (early_stop) {
        time_with = result.calibration_time_us;
        measured_with = result.points_measured;
      } else {
        time_without = result.calibration_time_us;
        measured_without = result.points_measured;
      }
    }
    std::printf("%-8s %12d %12d %13.1fs %13.1fs %9.1f%%\n",
                std::string(io::DeviceKindName(kind)).c_str(), measured_with,
                measured_without, time_with / 1e6, time_without / 1e6,
                100.0 * (1.0 - time_with / time_without));
  }
  return 0;
}
