#ifndef PIOQO_SIM_CPU_H_
#define PIOQO_SIM_CPU_H_

#include <coroutine>
#include <cstdint>

#include "sim/simulator.h"
#include "sim/wait_queue.h"

namespace pioqo::sim {

/// A non-preemptive scheduler for a fixed number of simulated logical cores.
///
/// Workers charge their computation as bursts: `co_await cpu.Consume(d)`
/// waits (FCFS) for a free core, occupies it for `d` microseconds of
/// simulated time, then resumes the worker. Because scan operators charge
/// small per-page / per-row bursts, non-preemptive FCFS is an adequate model
/// of a fair OS scheduler at the granularity the paper's experiments
/// resolve.
///
/// This is what makes PFTS CPU-bound: with `num_cores` cores, aggregate CPU
/// throughput is capped regardless of the number of workers (paper Sec. 3.2:
/// "increasing the parallel degree to a number larger than the number of
/// logical cores would not be helpful anymore").
class CpuScheduler {
 public:
  /// `num_cores` logical cores. If `physical_cores` < num_cores, bursts
  /// started while more than `physical_cores` cores are busy are stretched
  /// by `smt_penalty` — a simple model of hyper-threading (two logical
  /// cores sharing one physical core's execution resources).
  CpuScheduler(Simulator& sim, int num_cores, int physical_cores = 0,
               double smt_penalty = 1.0);
  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  class ConsumeAwaiter : public WaitNode {
   public:
    ConsumeAwaiter(CpuScheduler& cpu, double duration)
        : cpu_(cpu), duration_(duration) {}
    bool await_ready() const noexcept { return duration_ <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) { cpu_.Enqueue(*this, h); }
    void await_resume() const noexcept {}

   private:
    friend class CpuScheduler;
    CpuScheduler& cpu_;
    double duration_;
  };

  /// Awaitable CPU burst of `duration` microseconds on one core.
  ConsumeAwaiter Consume(double duration) { return {*this, duration}; }

  /// Total core-microseconds of completed + in-progress-started bursts.
  double busy_time() const { return busy_time_; }
  uint64_t num_bursts() const { return num_bursts_; }

  /// Average utilization in [0, 1] over [0, now].
  double Utilization(SimTime now) const;

 private:
  /// Starts the burst at once on a free core, else parks `w` for one.
  void Enqueue(ConsumeAwaiter& w, std::coroutine_handle<> h);
  void StartBurst(std::coroutine_handle<> h, double duration);
  void FinishBurst(std::coroutine_handle<> h);

  Simulator& sim_;
  const int num_cores_;
  const int physical_cores_;
  const double smt_penalty_;
  int free_cores_;
  WaitQueue<ConsumeAwaiter> waiters_;
  double busy_time_ = 0.0;
  uint64_t num_bursts_ = 0;
};

}  // namespace pioqo::sim

#endif  // PIOQO_SIM_CPU_H_
