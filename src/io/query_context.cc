#include "io/query_context.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace pioqo::io {

QueryContext::~QueryContext() {
  DisarmDeadline();
  PIOQO_CHECK(listeners_.empty())
      << "QueryContext destroyed with " << listeners_.size()
      << " cancel listener(s) still registered";
  PIOQO_CHECK(pinned_frames_ == 0)
      << "QueryContext destroyed with " << pinned_frames_
      << " frame(s) still pinned";
}

void QueryContext::SetDeadline(sim::SimTime deadline_us) {
  if (cancelled()) return;
  DisarmDeadline();
  deadline_us_ = deadline_us;
  const double delay = std::max(0.0, deadline_us - sim_.Now());
  deadline_armed_ = true;
  deadline_token_ = sim_.ScheduleCancellableAfter(delay, [this] {
    deadline_armed_ = false;
    Cancel(Status::DeadlineExceeded("query deadline passed"));
  });
}

void QueryContext::DisarmDeadline() {
  if (!deadline_armed_) return;
  deadline_armed_ = false;
  sim_.Cancel(deadline_token_);
}

void QueryContext::Cancel(Status reason) {
  PIOQO_CHECK(!reason.ok()) << "Cancel with OK status";
  if (cancelled()) return;
  state_ = std::move(reason);
  DisarmDeadline();
  // Listeners unregister as part of being notified; swap the list out so
  // their RemoveCancelListener calls (now no-ops) cannot invalidate the
  // iteration. Callbacks only unhook state and schedule resumes, so no
  // listener is destroyed while we walk the snapshot.
  std::vector<CancelListener*> listeners;
  listeners.swap(listeners_);
  for (CancelListener* l : listeners) l->OnQueryCancelled(state_);
}

Status QueryContext::CheckAlive() {
  if (!cancelled() && deadline_armed_ && sim_.Now() >= deadline_us_) {
    // The deadline event for this instant may still be queued behind us;
    // Cancel disarms it so it never fires.
    Cancel(Status::DeadlineExceeded("query deadline passed"));
  }
  return state_;
}

void QueryContext::OnUnpin() {
  PIOQO_CHECK(pinned_frames_ > 0) << "query unpin below zero";
  --pinned_frames_;
}

void QueryContext::AddCancelListener(CancelListener* listener) {
  listeners_.push_back(listener);
}

void QueryContext::RemoveCancelListener(CancelListener* listener) {
  auto it = std::find(listeners_.begin(), listeners_.end(), listener);
  if (it != listeners_.end()) listeners_.erase(it);
}

}  // namespace pioqo::io
