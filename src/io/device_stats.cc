#include "io/device_stats.h"

namespace pioqo::io {

void DeviceStats::RecordSubmit(sim::SimTime now, bool is_read, uint64_t bytes) {
  if (!active_) {
    active_ = true;
    first_activity_ = now;
  }
  if (is_read) {
    ++reads_;
    bytes_read_ += bytes;
  } else {
    ++writes_;
    bytes_written_ += bytes;
  }
  ++outstanding_;
  queue_depth_.Update(now, outstanding_);
}

void DeviceStats::RecordComplete(sim::SimTime now, uint64_t bytes,
                                 double latency_us, bool ok) {
  --outstanding_;
  queue_depth_.Update(now, outstanding_);
  if (ok) {
    bytes_completed_ += bytes;
  } else {
    ++errors_;
  }
  last_completion_ = now;
  latency_.Add(latency_us);
}

void DeviceStats::RecordCancelled(sim::SimTime now) {
  --outstanding_;
  queue_depth_.Update(now, outstanding_);
  ++cancelled_requests_;
}

void DeviceStats::Reset() { *this = DeviceStats(); }

double DeviceStats::AverageQueueDepth(sim::SimTime now) const {
  return queue_depth_.Average(now);
}

double DeviceStats::ThroughputMbps() const {
  double interval = last_completion_ - first_activity_;
  if (interval <= 0.0 || bytes_completed_ == 0) return 0.0;
  // bytes per microsecond == MB/s.
  return static_cast<double>(bytes_completed_) / interval;
}

}  // namespace pioqo::io
