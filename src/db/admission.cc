#include "db/admission.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "io/health_monitor.h"
#include "sim/sim_checks.h"

namespace pioqo::db {

AdmissionController::AdmissionController(sim::Simulator& sim,
                                         AdmissionOptions options)
    : sim_(sim), options_(options) {
  PIOQO_CHECK(options_.max_concurrent_queries >= 1)
      << "AdmissionOptions::max_concurrent_queries must be >= 1, got "
      << options_.max_concurrent_queries;
  PIOQO_CHECK(options_.max_total_dop >= 1)
      << "AdmissionOptions::max_total_dop must be >= 1, got "
      << options_.max_total_dop;
  PIOQO_CHECK(options_.max_queue_wait_us >= 0.0)
      << "AdmissionOptions::max_queue_wait_us must be >= 0, got "
      << options_.max_queue_wait_us;
}

AdmissionController::~AdmissionController() {
  PIOQO_CHECK(queue_.empty())
      << "AdmissionController destroyed with " << queue_.size()
      << " queued quer(ies)";
}

bool AdmissionController::CanAdmit() const {
  return running_ < options_.max_concurrent_queries &&
         total_dop_ < options_.max_total_dop;
}

AdmissionGrant AdmissionController::Charge(int requested_dop) {
  // The health monitor counts its own clamps (DeviceStats::degraded_clamps).
  int dop = requested_dop;
  if (options_.health != nullptr) dop = options_.health->ClampDop(dop);
  const int budget = options_.max_total_dop - total_dop_;
  PIOQO_CHECK(budget >= 1);
  if (dop > budget) {
    dop = budget;
    ++stats_.partial_grants;
  }
  ++running_;
  total_dop_ += dop;
  ++stats_.admitted;
  stats_.peak_running = std::max(stats_.peak_running, running_);
  stats_.peak_total_dop = std::max(stats_.peak_total_dop, total_dop_);
  AdmissionGrant grant;
  grant.dop = dop;
  return grant;
}

void AdmissionController::Release(const AdmissionGrant& grant) {
  PIOQO_CHECK(grant.ok()) << "Release of a shed admission grant";
  PIOQO_CHECK(running_ > 0 && total_dop_ >= grant.dop);
  --running_;
  total_dop_ -= grant.dop;
  Pump();
}

bool AdmissionController::TryChargeBackground(int queue_depth) {
  PIOQO_CHECK(queue_depth >= 1);
  if (background_dop_ != 0) return false;
  background_dop_ = queue_depth;
  return true;
}

void AdmissionController::ReleaseBackground(int queue_depth) {
  PIOQO_CHECK(background_dop_ == queue_depth)
      << "ReleaseBackground(" << queue_depth << ") does not match the "
      << "outstanding background charge of " << background_dop_;
  background_dop_ = 0;
}

void AdmissionController::Pump() {
  while (!queue_.empty() && CanAdmit()) {
    AdmitAwaiter* head = queue_.PopFront();
    head->grant_ = Charge(head->requested_dop_);
    head->grant_.wait_us = sim_.Now() - head->arrival_us_;
    head->ResolveWhileQueued();
  }
}

bool AdmissionController::AdmitAwaiter::await_ready() {
  arrival_us_ = ctrl_.sim_.Now();
  ++ctrl_.stats_.submitted;
  // A query that is already dead (deadline passed before arrival, or
  // cancelled) is never admitted; it sheds with its own status.
  Status alive = query_.CheckAlive();
  if (!alive.ok()) {
    if (alive.code() == StatusCode::kDeadlineExceeded) {
      ++ctrl_.stats_.shed_deadline;
    } else {
      ++ctrl_.stats_.shed_cancelled;
    }
    grant_.status = std::move(alive);
    return true;
  }
  // Strict FIFO: even an admissible arrival queues behind earlier ones.
  if (ctrl_.queue_.empty() && ctrl_.CanAdmit()) {
    grant_ = ctrl_.Charge(requested_dop_);
    return true;
  }
  return false;
}

void AdmissionController::AdmitAwaiter::await_suspend(
    std::coroutine_handle<> h) {
  ctrl_.queue_.Park(*this, h);
  ctrl_.stats_.peak_queued =
      std::max(ctrl_.stats_.peak_queued, ctrl_.queue_.size());
  if (ctrl_.options_.max_queue_wait_us > 0.0) {
    timer_armed_ = true;
    timer_token_ = ctrl_.sim_.ScheduleCancellableAfter(
        ctrl_.options_.max_queue_wait_us, [this] { OnWaitTimeout(); });
  }
  query_.AddCancelListener(this);
  listening_ = true;
}

AdmissionGrant AdmissionController::AdmitAwaiter::await_resume() {
  PIOQO_CHECK(!parked() && !timer_armed_ && !listening_);
  return std::move(grant_);
}

void AdmissionController::AdmitAwaiter::ResolveWhileQueued() {
  if (timer_armed_) {
    ctrl_.sim_.Cancel(timer_token_);
    timer_armed_ = false;
  }
  if (listening_) {
    query_.RemoveCancelListener(this);
    listening_ = false;
  }
  sim::ScheduleResume(ctrl_.sim_, 0.0, handle());
}

void AdmissionController::AdmitAwaiter::OnWaitTimeout() {
  timer_armed_ = false;  // this timer just fired
  PIOQO_CHECK(parked());
  Unpark();
  ++ctrl_.stats_.shed_wait_timeout;
  grant_.status = Status::ResourceExhausted(
      "shed after " + std::to_string(ctrl_.options_.max_queue_wait_us) +
      "us in the admission queue");
  grant_.wait_us = ctrl_.sim_.Now() - arrival_us_;
  ResolveWhileQueued();
}

void AdmissionController::AdmitAwaiter::OnQueryCancelled(
    const Status& reason) {
  // The QueryContext already dropped us from its listener list.
  listening_ = false;
  PIOQO_CHECK(parked());
  Unpark();
  if (reason.code() == StatusCode::kDeadlineExceeded) {
    ++ctrl_.stats_.shed_deadline;
  } else {
    ++ctrl_.stats_.shed_cancelled;
  }
  grant_.status = reason;
  grant_.wait_us = ctrl_.sim_.Now() - arrival_us_;
  ResolveWhileQueued();
}

AdmissionController::AdmitAwaiter::~AdmitAwaiter() {
  if (listening_) {
    query_.RemoveCancelListener(this);
    listening_ = false;
  }
  if (timer_armed_) {
    ctrl_.sim_.Cancel(timer_token_);
    timer_armed_ = false;
  }
  // ~WaitNode leaves the queue.
}

}  // namespace pioqo::db
