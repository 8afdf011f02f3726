#ifndef PIOQO_IO_DEGRADATION_H_
#define PIOQO_IO_DEGRADATION_H_

#include <cstdint>
#include <vector>

namespace pioqo::io {

/// Long-horizon device state changes ("degradation regimes"), as opposed to
/// the FaultInjectingDevice's per-request transient faults: a regime shifts
/// the device's *service model* for an extended stretch of simulated time,
/// which is exactly the drift a one-shot QDTT calibration cannot capture.
///
/// Both schedules are inert by default: an unconfigured regime schedules no
/// simulator events and draws no randomness, so a run without one is
/// bit-identical (same trace_hash) to a build before regimes existed.

/// A scripted spindle loss on a RAID array.
///
/// At `fail_at_us` one member drops out of the array. Reads that map to the
/// failed member are served by *reconstruction*: the same-size range is read
/// from every surviving member (the parity-rebuild access pattern), so a
/// degraded read costs roughly one read on each survivor instead of one read
/// on one member — and the survivors' queues absorb the amplified load.
/// Writes mapped to the failed member fan out to the survivors the same way
/// (parity updates).
///
/// When `rebuild` is set, a background rebuild starts at the failure
/// instant: chunk by chunk (the array's chunk size) it reads the
/// reconstruction set from the survivors and rewrites the replacement
/// spindle, pacing itself with `rebuild_interval_us` between chunks so
/// foreground traffic interleaves. The array leaves degraded mode when the
/// rebuild extent is done.
struct RaidDegradationSchedule {
  /// Simulated instant of the spindle loss; negative disables the schedule.
  double fail_at_us = -1.0;
  /// Which member fails; negative derives it from `seed` (one PRNG draw at
  /// the failure instant).
  int failed_member = -1;
  /// Seeds the failed-member choice when `failed_member < 0`.
  uint64_t seed = 2014;

  /// Start the background rebuild at the failure instant.
  bool rebuild = true;
  /// How much of the failed spindle is reconstructed before the array is
  /// healthy again. Kept far below real capacities so experiments see the
  /// whole degraded->rebuilt arc in simulated minutes.
  uint64_t rebuild_bytes = 64ULL * 1024 * 1024;
  /// Pause between rebuild chunks (the rebuild-rate governor): larger values
  /// yield more to foreground I/O and lengthen the degraded window.
  double rebuild_interval_us = 2'000.0;

  bool enabled() const { return fail_at_us >= 0.0; }
};

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
