#include "io/fault_injection.h"

#include <utility>

namespace pioqo::io {

const FaultPhase* FaultInjectingDevice::ActivePhase() const {
  const double now = sim_.Now();
  for (const FaultPhase& phase : config_.phases) {
    if (now >= phase.start_us && now < phase.end_us) return &phase;
  }
  return nullptr;
}

void FaultInjectingDevice::SubmitImpl(uint64_t id, const IoRequest& req,
                                      CompletionFn done) {
  const FaultPhase* phase = ActivePhase();
  const double latency_mult = phase != nullptr ? phase->latency_mult : 1.0;
  const double phase_error = phase != nullptr ? phase->extra_error_prob : 0.0;

  // Exactly three draws per submission, in a fixed order, so the fault
  // schedule depends only on (seed, submission sequence) — not on which
  // probabilities happen to be non-zero.
  const double stuck_roll = rng_.NextDouble();
  const double error_roll = rng_.NextDouble();
  const double spike_roll = rng_.NextDouble();

  if (stuck_roll < config_.stuck_prob) {
    // Swallowed: `done` is dropped and the inner device never sees the
    // request. The id is remembered so a caller-side timeout can Cancel the
    // request and reclaim its queue slot; without that, only the deadline
    // recovers the *waiters* while the slot stays occupied forever.
    ++total_injected_;
    stats().RecordErrorInjected();
    stuck_ids_.insert(id);
    return;
  }

  const double error_prob =
      (req.kind == IoRequest::Kind::kRead ? config_.read_error_prob : 0.0) +
      phase_error;
  if (error_roll < error_prob) {
    ++total_injected_;
    stats().RecordErrorInjected();
    sim_.ScheduleAfter(
        config_.error_latency_us,
        [done = std::move(done), dev = inner_.name()] {
          done(IoResult{
              Status::IoError("injected transient I/O error on " + dev), 0.0});
        });
    return;
  }

  const double spike_us = spike_roll < config_.spike_prob ? config_.spike_us : 0.0;
  if (spike_us == 0.0 && latency_mult == 1.0) {
    Passthrough(id, req, std::move(done));
    return;
  }
  // Served normally, completion delayed: by the spike, and/or by the phase's
  // latency stretch (mult - 1 times the observed inner service time).
  const double submit_time = sim_.Now();
  inner_.Submit(req, [this, done = std::move(done), submit_time, spike_us,
                      latency_mult](const IoResult& result) mutable {
    const double service = sim_.Now() - submit_time;
    const double delay = spike_us + service * (latency_mult - 1.0);
    if (delay <= 0.0) {
      done(result);
      return;
    }
    sim_.ScheduleAfter(delay,
                       [done = std::move(done), result] { done(result); });
  });
}

void FaultInjectingDevice::Passthrough(uint64_t id, const IoRequest& req,
                                       CompletionFn done) {
  // Track outer id -> inner id so CancelImpl can chase the request into the
  // inner device's queues while it waits there.
  const uint64_t inner_id =
      inner_.Submit(req, [this, id, done = std::move(done)](
                             const IoResult& result) {
        forwarded_.erase(id);
        done(result);
      });
  forwarded_.emplace(id, inner_id);
}

bool FaultInjectingDevice::CancelImpl(uint64_t id) {
  if (stuck_ids_.erase(id) > 0) return true;
  auto it = forwarded_.find(id);
  if (it == forwarded_.end()) return false;
  // The inner Cancel destroys the wrapped completion (and with it the
  // caller's `done`) when it succeeds; the inner device records its own
  // cancelled_requests too.
  if (!inner_.Cancel(it->second)) return false;
  forwarded_.erase(it);
  return true;
}

}  // namespace pioqo::io
