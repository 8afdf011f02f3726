#ifndef PIOQO_IO_RETRY_POLICY_H_
#define PIOQO_IO_RETRY_POLICY_H_

#include "common/rng.h"

namespace pioqo::io {

/// Bounded-retry policy for transient I/O failures, used by the buffer pool
/// when a page load completes with `kIoError` (or never completes at all —
/// see FaultInjectingDevice's stuck requests).
///
/// The default policy is inert: one attempt, no timeout. An inert policy
/// draws no random numbers and schedules no simulator events, so a database
/// built without retries is bit-identical (same trace_hash) to one built
/// before this policy existed.
///
/// `BufferPool`'s constructor aborts on a policy it cannot run: fewer than
/// one attempt, a negative or non-finite deadline, backoff base or
/// multiplier, or a jitter fraction outside [0, 1].
struct RetryPolicy {
  /// Total attempts per page load, including the first (1 = never retry).
  int max_attempts = 1;

  /// Per-attempt deadline in simulated microseconds; 0 disables the
  /// deadline. Required (> 0) to recover from stuck requests, whose
  /// completion never fires.
  double timeout_us = 0.0;

  /// Backoff before retry k (k = 1 is the first retry) is
  ///   backoff_base_us * backoff_multiplier^(k-1),
  /// scaled by a deterministic jitter drawn from the caller's seeded RNG.
  double backoff_base_us = 200.0;
  double backoff_multiplier = 2.0;

  /// Jitter amplitude: the backoff is multiplied by a uniform value in
  /// [1 - jitter_frac, 1 + jitter_frac]. 0 disables jitter (and then
  /// BackoffUs draws nothing from the RNG).
  double jitter_frac = 0.25;

  /// True iff this policy can schedule events or draw randomness.
  bool enabled() const { return max_attempts > 1 || timeout_us > 0.0; }

  /// Backoff delay before retry number `retry` (1-based). Draws exactly one
  /// value from `rng` when jitter_frac > 0, none otherwise.
  double BackoffUs(int retry, Pcg32& rng) const {
    double delay = backoff_base_us;
    for (int i = 1; i < retry; ++i) delay *= backoff_multiplier;
    if (jitter_frac > 0.0) {
      delay *= 1.0 + jitter_frac * (2.0 * rng.NextDouble() - 1.0);
    }
    return delay;
  }
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_RETRY_POLICY_H_
