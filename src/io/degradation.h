#ifndef PIOQO_IO_DEGRADATION_H_
#define PIOQO_IO_DEGRADATION_H_

#include <vector>

namespace pioqo::io {

/// Long-horizon device state changes ("degradation regimes"), as opposed to
/// the FaultInjectingDevice's per-request transient faults: a regime shifts
/// the device's *service model* for an extended stretch of simulated time,
/// which is exactly the drift a one-shot QDTT calibration cannot capture.
///
/// The one regime is an SSD wear / thermal throttle schedule. It is inert
/// by default: an empty schedule schedules no simulator events and draws no
/// randomness, so a run without one is bit-identical (same trace_hash) to a
/// build before regimes existed.

/// One SSD wear / thermal-throttle window [start_us, end_us).
///
/// While active, flash service time is scaled by `latency_multiplier`
/// (thermal throttling lowers the NAND interface clock) and the effective
/// channel parallelism drops to num_units / `unit_divisor` (wear-leveling /
/// refresh traffic takes dies out of rotation). Commands admitted inside a
/// window are counted in DeviceStats::throttled_commands.
struct SsdThrottlePhase {
  double start_us = 0.0;
  double end_us = 0.0;  // exclusive
  double latency_multiplier = 1.0;
  int unit_divisor = 1;

  bool active_at(double now_us) const {
    return now_us >= start_us && now_us < end_us;
  }
};

using SsdThrottleSchedule = std::vector<SsdThrottlePhase>;

}  // namespace pioqo::io

#endif  // PIOQO_IO_DEGRADATION_H_
