#ifndef PIOQO_IO_DEVICE_STATS_H_
#define PIOQO_IO_DEVICE_STATS_H_

#include <cstdint>

#include "common/stats.h"
#include "sim/simulator.h"

namespace pioqo::io {

/// Per-device counters accumulated over a measurement interval.
///
/// The queue depth statistic is the time-weighted average number of
/// outstanding requests (submitted, not yet completed) — the paper's
/// definition: "the average number of outstanding I/Os in the I/O queue at
/// any point of time".
///
/// The fault-path counters (errors, injected faults, degraded-mode clamps)
/// make failure experiments observable: the injector records what it
/// injected and the health monitor records when it throttled parallelism.
/// Recovery (retries, timed-out attempts) is the buffer pool's to count, in
/// its own `BufferPoolStats`.
class DeviceStats {
 public:
  void RecordSubmit(sim::SimTime now, bool is_read, uint64_t bytes);
  /// `ok == false` records an errored completion: it balances the
  /// outstanding count and latency history but does not count toward
  /// transferred bytes (a failed command moves no data).
  void RecordComplete(sim::SimTime now, bool is_read, uint64_t bytes,
                      double latency_us, bool ok = true);

  /// A request reclaimed by `Device::Cancel` before it was serviced: it
  /// balances the outstanding count (the queue slot is free again) but is
  /// neither an error nor a completed transfer.
  void RecordCancelled(sim::SimTime now);

  /// Fault-path accounting.
  void RecordErrorInjected() { ++errors_injected_; }
  void RecordDegradedClamp() { ++degraded_clamps_; }

  /// Degradation-regime accounting (RAID spindle loss / SSD throttling).
  void RecordRegimeTransition() { ++regime_transitions_; }
  void RecordReconstructedRead() { ++reconstructed_reads_; }
  void RecordRebuildChunk() { ++rebuild_chunks_; }
  void RecordThrottledCommand() { ++throttled_commands_; }

  /// Forgets all history; the next submit starts a new interval.
  void Reset();

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  int64_t outstanding() const { return outstanding_; }
  const RunningStat& latency_us() const { return latency_; }

  /// Completions that carried a non-OK status (injected or organic).
  uint64_t errors() const { return errors_; }
  /// Faults the injector decided to inject (errors + stuck requests).
  uint64_t errors_injected() const { return errors_injected_; }
  /// Times the health monitor clamped a scan's parallel degree.
  uint64_t degraded_clamps() const { return degraded_clamps_; }
  /// Requests reclaimed via Device::Cancel before being serviced.
  uint64_t cancelled_requests() const { return cancelled_requests_; }

  /// Regime entries/exits (a spindle loss, a rebuild completion, a throttle
  /// window opening or closing).
  uint64_t regime_transitions() const { return regime_transitions_; }
  /// RAID reads that mapped to the failed member and were served by
  /// reconstruction from the surviving spindles.
  uint64_t reconstructed_reads() const { return reconstructed_reads_; }
  /// Background rebuild units issued (each = one read per survivor plus the
  /// spare rewrite), competing with foreground traffic for the queues.
  uint64_t rebuild_chunks() const { return rebuild_chunks_; }
  /// SSD commands admitted while a throttle phase was active.
  uint64_t throttled_commands() const { return throttled_commands_; }

  /// Time of first submit in the interval.
  sim::SimTime first_activity() const { return first_activity_; }

  /// Average outstanding requests over [first submit, now].
  double AverageQueueDepth(sim::SimTime now) const;

  /// MB/s transferred (read + write) between first submit and last
  /// completion; 0 if no completed I/O.
  double ThroughputMbps() const;

 private:
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_completed_ = 0;
  uint64_t errors_ = 0;
  uint64_t errors_injected_ = 0;
  uint64_t degraded_clamps_ = 0;
  uint64_t cancelled_requests_ = 0;
  uint64_t regime_transitions_ = 0;
  uint64_t reconstructed_reads_ = 0;
  uint64_t rebuild_chunks_ = 0;
  uint64_t throttled_commands_ = 0;
  int64_t outstanding_ = 0;
  bool active_ = false;
  sim::SimTime first_activity_ = 0.0;
  sim::SimTime last_completion_ = 0.0;
  RunningStat latency_;
  TimeWeightedAverage queue_depth_;
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_DEVICE_STATS_H_
