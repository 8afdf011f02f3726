#ifndef PIOQO_IO_HEALTH_MONITOR_H_
#define PIOQO_IO_HEALTH_MONITOR_H_

#include <cstdint>

#include "io/device.h"

namespace pioqo::io {

/// Watches a device's read completions and compares the observed latency
/// (EWMA) against an expected baseline — typically the QDTT prediction for
/// the workload's band size at low queue depth. When observed latency
/// exceeds `kDegradeLatencyFactor` times the expectation, the device is
/// considered degraded and `ClampDop` scales requested parallelism down:
/// piling more outstanding I/O onto a struggling device only lengthens its
/// queues, so graceful degradation means *less* concurrency, not more.
///
/// Installed as the device's completion observer; uninstalls itself on
/// destruction. Purely observational — it never schedules simulator events,
/// so attaching a monitor does not perturb the trace hash.
class DeviceHealthMonitor {
 public:
  /// EWMA smoothing weight for each new sample.
  static constexpr double kEwmaAlpha = 0.2;
  /// Degraded when ewma > factor * expected.
  static constexpr double kDegradeLatencyFactor = 3.0;

  struct Options {
    /// Baseline expected read latency (us). <= 0 disables degradation
    /// detection (the monitor still tracks the EWMA).
    double expected_read_latency_us = 0.0;
    /// Minimum successful reads before the signal is trusted.
    uint64_t min_samples = 8;
  };

  DeviceHealthMonitor(Device& device, Options options);
  ~DeviceHealthMonitor();

  DeviceHealthMonitor(const DeviceHealthMonitor&) = delete;
  DeviceHealthMonitor& operator=(const DeviceHealthMonitor&) = delete;

  /// True iff enough samples have arrived and the observed latency EWMA
  /// exceeds the degradation threshold.
  bool degraded() const;

  /// Observed-over-expected latency ratio (>= 1.0; 1.0 while healthy or
  /// before min_samples).
  double DegradationFactor() const;

  /// Scales `requested` degrees of parallelism down by the degradation
  /// factor when the device is degraded (never below 1). Records a
  /// degraded-DOP clamp in the device's stats whenever it reduces the
  /// request.
  int ClampDop(int requested);

  double ewma_latency_us() const { return ewma_us_; }
  uint64_t samples() const { return samples_; }
  const Options& options() const { return options_; }

 private:
  void OnCompletion(const IoRequest& req, const IoResult& result);

  Device& device_;
  const Options options_;
  double ewma_us_ = 0.0;
  uint64_t samples_ = 0;
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_HEALTH_MONITOR_H_
