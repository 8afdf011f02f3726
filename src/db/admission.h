#ifndef PIOQO_DB_ADMISSION_H_
#define PIOQO_DB_ADMISSION_H_

#include <coroutine>
#include <cstdint>

#include "common/status.h"
#include "io/query_context.h"
#include "sim/simulator.h"
#include "sim/wait_queue.h"

namespace pioqo::io {
class DeviceHealthMonitor;
}  // namespace pioqo::io

namespace pioqo::db {

/// Capacity policy for the admission controller. An uncontrolled baseline
/// (every query admitted on arrival at its requested DOP, still counted so
/// A/B experiments can compare peaks) sets both caps to
/// std::numeric_limits<int>::max().
struct AdmissionOptions {
  /// Maximum queries running at once; arrivals beyond it queue.
  int max_concurrent_queries = 8;
  /// Aggregate scan DOP budget across all running queries. A query is
  /// admitted with a *partial* grant (down to 1 worker) when the remaining
  /// budget is smaller than its request.
  int max_total_dop = 32;
  /// Longest a query may sit in the queue before being shed with
  /// `kResourceExhausted`. Zero waits indefinitely (the query's own
  /// deadline, if any, still bounds it); a negative or NaN wait aborts.
  double max_queue_wait_us = 0.0;
  /// Optional degradation signal: while the device is degraded, requested
  /// DOPs are clamped *before* they are charged against the budget, so an
  /// unhealthy device admits less aggregate work.
  io::DeviceHealthMonitor* health = nullptr;
};

/// Outcome of `Admit`. On success (`status.ok()`), `dop` is the granted
/// parallelism and the caller must `Release` this grant exactly once when
/// the query reaches a terminal state. On failure nothing was charged and
/// the grant must not be released.
struct AdmissionGrant {
  Status status;
  int dop = 0;
  double wait_us = 0.0;
  bool ok() const { return status.ok(); }
};

struct AdmissionStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_wait_timeout = 0;  // queued longer than max_queue_wait_us
  uint64_t shed_deadline = 0;      // deadline passed at arrival or in queue
  uint64_t shed_cancelled = 0;     // cancelled at arrival or in queue
  uint64_t partial_grants = 0;     // grants reduced by the DOP budget
  int peak_running = 0;
  int peak_total_dop = 0;
  size_t peak_queued = 0;
};

/// Admission controller for the database's concurrent query workload: caps
/// concurrent queries and their aggregate scan DOP, queues excess arrivals
/// FIFO, and sheds them — with `kResourceExhausted` — once the bounded wait
/// expires. A queued query whose deadline fires (or that is cancelled) is
/// shed with that status instead, via its `QueryContext` cancel listener.
///
/// Strictly FIFO: a fresh arrival never overtakes the queue, even when its
/// (smaller) request would fit. All waiting uses cancellable simulator
/// events and the controller draws no randomness, so it preserves the
/// simulator's determinism guarantees.
class AdmissionController {
 public:
  /// Both caps must be at least 1 (a zero cap would admit nothing, ever).
  AdmissionController(sim::Simulator& sim, AdmissionOptions options);
  ~AdmissionController();
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// `co_await controller.Admit(query, dop)` resolves to an AdmissionGrant
  /// once the query is admitted or shed. The awaiter registers as `query`'s
  /// cancel listener while queued, so cancellation/deadline resolves the
  /// wait immediately.
  class AdmitAwaiter : public io::QueryContext::CancelListener,
                       public sim::WaitNode {
   public:
    AdmitAwaiter(AdmissionController& ctrl, io::QueryContext& query,
                 int requested_dop)
        : ctrl_(ctrl), query_(query), requested_dop_(requested_dop) {}
    /// Leaves the queue and drops its wait timer and cancel listener if the
    /// awaiting coroutine is destroyed while queued.
    ~AdmitAwaiter();

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    AdmissionGrant await_resume();

   private:
    friend class AdmissionController;
    void OnQueryCancelled(const Status& reason) override;
    void OnWaitTimeout();
    /// Detach from timer/listener and resume; the caller has unparked us
    /// and set `grant_`.
    void ResolveWhileQueued();

    AdmissionController& ctrl_;
    io::QueryContext& query_;
    int requested_dop_;
    double arrival_us_ = 0.0;
    AdmissionGrant grant_;
    bool timer_armed_ = false;
    uint64_t timer_token_ = 0;
    bool listening_ = false;
  };

  AdmitAwaiter Admit(io::QueryContext& query, int requested_dop) {
    return AdmitAwaiter(*this, query, requested_dop);
  }

  /// Returns an admitted query's capacity and pumps the queue. Call exactly
  /// once per successful grant, after the query reached a terminal state.
  void Release(const AdmissionGrant& grant);

  /// Background-job admission (drift-triggered recalibration probes). At
  /// most ONE background charge may be outstanding at a time, and it is
  /// charged to its own ledger — an overdraft on top of `max_total_dop`, so
  /// it never shrinks the foreground DOP budget and can never starve or
  /// queue behind foreground queries. Rate is bounded by the caller's probe
  /// pacing plus this one-at-a-time rule. Balance each success with exactly
  /// one ReleaseBackground of the same depth.
  bool TryChargeBackground(int queue_depth);
  void ReleaseBackground(int queue_depth);

  int running() const { return running_; }
  int total_dop() const { return total_dop_; }
  /// Queue depth of the outstanding background charge (0 = none).
  int background_dop() const { return background_dop_; }
  size_t queued() const { return queue_.size(); }
  const AdmissionStats& stats() const { return stats_; }
  const AdmissionOptions& options() const { return options_; }

 private:
  /// True when one more query (at >= 1 worker) fits right now.
  bool CanAdmit() const;
  /// Computes and charges a grant for `requested_dop`. Caller must have
  /// checked CanAdmit().
  AdmissionGrant Charge(int requested_dop);
  /// Admits queue heads while capacity lasts.
  void Pump();

  sim::Simulator& sim_;
  AdmissionOptions options_;
  AdmissionStats stats_;
  int running_ = 0;
  int total_dop_ = 0;
  int background_dop_ = 0;
  sim::WaitQueue<AdmitAwaiter> queue_;
};

}  // namespace pioqo::db

#endif  // PIOQO_DB_ADMISSION_H_
