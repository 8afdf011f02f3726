#include "io/health_monitor.h"

#include <algorithm>
#include <cmath>

namespace pioqo::io {

DeviceHealthMonitor::DeviceHealthMonitor(Device& device, Options options)
    : device_(device), options_(options) {
  device_.set_completion_observer(
      [this](const IoRequest& req, const IoResult& result) {
        OnCompletion(req, result);
      });
}

DeviceHealthMonitor::~DeviceHealthMonitor() {
  device_.set_completion_observer(nullptr);
}

void DeviceHealthMonitor::OnCompletion(const IoRequest& req,
                                       const IoResult& result) {
  // Only successful reads carry a meaningful service latency; failures are
  // handled by the retry path, and writes have different timing.
  if (!result.ok() || req.kind != IoRequest::Kind::kRead) return;
  ++samples_;
  if (samples_ == 1) {
    ewma_us_ = result.latency_us;
  } else {
    ewma_us_ += kEwmaAlpha * (result.latency_us - ewma_us_);
  }
}

bool DeviceHealthMonitor::degraded() const {
  if (options_.expected_read_latency_us <= 0.0) return false;
  if (samples_ < options_.min_samples) return false;
  return ewma_us_ > kDegradeLatencyFactor * options_.expected_read_latency_us;
}

double DeviceHealthMonitor::DegradationFactor() const {
  if (!degraded()) return 1.0;
  return ewma_us_ / options_.expected_read_latency_us;
}

int DeviceHealthMonitor::ClampDop(int requested) {
  if (requested <= 1 || !degraded()) return requested;
  const double factor = DegradationFactor();
  int clamped = static_cast<int>(
      std::floor(static_cast<double>(requested) / factor));
  clamped = std::max(1, clamped);
  if (clamped < requested) device_.stats().RecordDegradedClamp();
  return clamped;
}

}  // namespace pioqo::io
