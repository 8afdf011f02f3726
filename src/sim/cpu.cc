#include "sim/cpu.h"

#include "common/logging.h"
#include "sim/sim_checks.h"

namespace pioqo::sim {

CpuScheduler::CpuScheduler(Simulator& sim, int num_cores, int physical_cores,
                           double smt_penalty)
    : sim_(sim),
      num_cores_(num_cores),
      physical_cores_(physical_cores > 0 ? physical_cores : num_cores),
      smt_penalty_(smt_penalty),
      free_cores_(num_cores) {
  PIOQO_CHECK(num_cores >= 1);
  PIOQO_CHECK(physical_cores_ >= 1 && physical_cores_ <= num_cores_);
  PIOQO_CHECK(smt_penalty_ >= 1.0);
}

void CpuScheduler::Enqueue(ConsumeAwaiter& w, std::coroutine_handle<> h) {
  if (free_cores_ > 0) {
    StartBurst(h, w.duration_);
  } else {
    waiters_.Park(w, h);
  }
}

void CpuScheduler::StartBurst(std::coroutine_handle<> h, double duration) {
  PIOQO_CHECK(free_cores_ > 0);
  --free_cores_;
  // Hyper-threading: once the physical cores are oversubscribed, a logical
  // core only gets a share of a physical core's execution resources.
  if (num_cores_ - free_cores_ > physical_cores_) {
    duration *= smt_penalty_;
  }
  busy_time_ += duration;
  ++num_bursts_;
  checks::OnResumeScheduled(h.address());
  sim_.ScheduleAfter(duration, [this, h] { FinishBurst(h); });
}

void CpuScheduler::FinishBurst(std::coroutine_handle<> h) {
  ++free_cores_;
  if (ConsumeAwaiter* next = waiters_.PopFront()) {
    StartBurst(next->handle(), next->duration_);
  }
  // Resume after handing the core to the next waiter so a worker that
  // immediately requests another burst queues behind already-waiting peers.
  checks::OnBeforeResume(h.address());
  h.resume();
}

double CpuScheduler::Utilization(SimTime now) const {
  if (now <= 0.0) return 0.0;
  return busy_time_ / (now * static_cast<double>(num_cores_));
}

}  // namespace pioqo::sim
