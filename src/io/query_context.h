#ifndef PIOQO_IO_QUERY_CONTEXT_H_
#define PIOQO_IO_QUERY_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"

namespace pioqo::io {

/// Per-query lifecycle state, created by `Database::RunWorkload`'s query
/// lifecycle and threaded through `exec::ExecContext::query` to the
/// operators and the buffer pool: a deadline, a cooperative cancellation
/// token, and a count of the frames the query holds pinned.
///
/// The context lives in the query's lifecycle coroutine frame and must
/// outlive every operator/pool interaction of that query. It is a *token*,
/// not a scheduler: cancellation is cooperative — operators poll
/// `CheckAlive()` at page granularity and unwind through their normal drain
/// protocol, and the buffer pool registers a `CancelListener` per suspended
/// fetch so waiters are failed the instant the query dies.
///
/// Determinism: a context with no deadline and no cancellation schedules no
/// simulator events and draws no randomness, so carrying one through a
/// healthy query leaves the trace hash bit-identical to not having it.
class QueryContext {
 public:
  /// Notified exactly once, synchronously from `Cancel`, when the query
  /// transitions to cancelled. Listener callbacks may mutate their own
  /// bookkeeping and schedule event-queue resumes, but must never resume a
  /// coroutine inline (the cancel may originate deep inside another frame).
  class CancelListener {
   public:
    virtual void OnQueryCancelled(const Status& reason) = 0;

   protected:
    ~CancelListener() = default;
  };

  explicit QueryContext(sim::Simulator& sim) : sim_(sim) {}
  ~QueryContext();
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Arms (or re-arms) an absolute simulated-time deadline. When it passes,
  /// the query is cancelled with `kDeadlineExceeded`. The deadline event is
  /// cancellable, so a query that finishes in time leaves no trace of it.
  void SetDeadline(sim::SimTime deadline_us);
  bool has_deadline() const { return deadline_armed_ || deadline_us_ >= 0.0; }
  sim::SimTime deadline_us() const { return deadline_us_; }

  /// Cancels the query with `reason` (must be non-OK). Idempotent: the
  /// first reason wins. Disarms the deadline and notifies every listener.
  void Cancel(Status reason);

  bool cancelled() const { return !state_.ok(); }

  /// The cooperative poll point: OK while the query may continue, else the
  /// cancellation reason (`kCancelled` or `kDeadlineExceeded`). Also lazily
  /// converts an already-passed deadline into cancellation, so CPU-bound
  /// stretches notice expiry without waiting for the deadline event.
  Status CheckAlive();

  /// Pin accounting: the buffer pool calls `OnPin` for every pin it takes
  /// on the query's behalf (including suspend-time pins) and `OnUnpin` when
  /// it is released. The destructor checks that none leaked.
  void OnPin() { ++pinned_frames_; }
  void OnUnpin();
  int pinned_frames() const { return pinned_frames_; }

  void AddCancelListener(CancelListener* listener);
  void RemoveCancelListener(CancelListener* listener);
  size_t num_cancel_listeners() const { return listeners_.size(); }

  sim::Simulator& simulator() { return sim_; }

 private:
  void DisarmDeadline();

  sim::Simulator& sim_;
  Status state_;  // OK while alive; the cancellation reason afterwards.
  sim::SimTime deadline_us_ = -1.0;
  bool deadline_armed_ = false;
  uint64_t deadline_token_ = 0;
  int pinned_frames_ = 0;
  std::vector<CancelListener*> listeners_;
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_QUERY_CONTEXT_H_
