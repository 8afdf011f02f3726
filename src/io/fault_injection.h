#ifndef PIOQO_IO_FAULT_INJECTION_H_
#define PIOQO_IO_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "io/device.h"

namespace pioqo::io {

/// A window of simulated time during which the wrapped device is degraded:
/// service latencies are stretched by `latency_mult` and the error
/// probability is raised by `extra_error_prob`. Models a RAID rebuild,
/// a firmware GC storm, or a failing-but-not-failed disk.
struct FaultPhase {
  double start_us = 0.0;
  double end_us = 0.0;
  double latency_mult = 1.0;
  double extra_error_prob = 0.0;
};

/// Seeded fault schedule for FaultInjectingDevice. All randomness comes from
/// one Pcg32 seeded with `seed` and advanced in a fixed per-request order,
/// so the schedule is a pure function of (seed, submission sequence) — the
/// same property the rest of the simulator guarantees. The all-zero default
/// injects nothing: its trace_hash is bit-identical to running without the
/// wrapper at all.
struct FaultConfig {
  uint64_t seed = 1;

  /// Probability that a read completes with a transient kIoError (after
  /// `error_latency_us`, modelling a failed-fast media error).
  double read_error_prob = 0.0;
  double error_latency_us = 100.0;

  /// Probability of a latency spike: the request is served normally but its
  /// completion is delayed by `spike_us` (a deep firmware retry).
  double spike_prob = 0.0;
  double spike_us = 5000.0;

  /// Probability a request gets *stuck*: its completion never fires. The
  /// request is not forwarded to the wrapped device. Callers can only
  /// recover via a RetryPolicy with timeout_us > 0.
  double stuck_prob = 0.0;

  /// Degraded-mode windows (checked in order; first match wins).
  std::vector<FaultPhase> phases;
};

/// Decorator that injects faults into any Device. Stacks anywhere a Device
/// is used (buffer pool, calibrator, benchmarks) because it *is* a Device;
/// `storage::DiskImage` binds to the outermost wrapper so data still flows.
///
/// Fault classes, drawn per submission in a fixed order (stuck, then error,
/// then spike) from the seeded RNG:
///   - stuck:  completion swallowed, request never reaches the inner device;
///   - error:  completes with kIoError after error_latency_us;
///   - spike:  served by the inner device, completion delayed by spike_us;
///   - phase:  while a FaultPhase is active, inner service time is
///             stretched by latency_mult and error probability raised.
///
/// Injected faults are counted in this device's stats().errors_injected();
/// the inner device's stats see only the traffic that actually reached it.
class FaultInjectingDevice : public Device {
 public:
  FaultInjectingDevice(Device& inner, FaultConfig config)
      : Device(inner.simulator()), inner_(inner), config_(config),
        rng_(config.seed) {}

  uint64_t capacity_bytes() const override { return inner_.capacity_bytes(); }
  std::string name() const override { return inner_.name() + "+faults"; }

  /// Lifetime total of injected faults. Unlike stats().errors_injected()
  /// this is never Reset() — scan drivers reset device stats per
  /// measurement interval, but run summaries want the whole story.
  uint64_t total_injected() const { return total_injected_; }

 protected:
  void SubmitImpl(uint64_t id, const IoRequest& req,
                  CompletionFn done) override;
  /// Reclaims a stuck request (whose completion would otherwise never fire,
  /// leaving its queue slot occupied forever), or forwards the cancel to
  /// the inner device for a passthrough submission still waiting in the
  /// inner queue. Delayed (spike/phase/error) submissions already have a
  /// completion in flight and cannot be cancelled.
  bool CancelImpl(uint64_t id) override;

 private:
  const FaultPhase* ActivePhase() const;
  /// Forwards to the inner device, keeping the id mapping for Cancel.
  void Passthrough(uint64_t id, const IoRequest& req, CompletionFn done);

  Device& inner_;
  FaultConfig config_;
  Pcg32 rng_;
  uint64_t total_injected_ = 0;
  /// Ids of injected stuck requests, reclaimable via Cancel. Request ids
  /// are sequential, so both tables use the mixing IntHash.
  std::unordered_set<uint64_t, IntHash> stuck_ids_;
  /// Outer id -> inner id for passthrough submissions, so a Cancel can
  /// chase the request into the wrapped device's queues. Entries are erased
  /// when the inner completion fires.
  std::unordered_map<uint64_t, uint64_t, IntHash> forwarded_;
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_FAULT_INJECTION_H_
