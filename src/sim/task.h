#ifndef PIOQO_SIM_TASK_H_
#define PIOQO_SIM_TASK_H_

#include <coroutine>
#include <cstdlib>

#include "sim/sim_checks.h"
#include "sim/simulator.h"

namespace pioqo::sim {

/// A detached, eagerly-started coroutine representing one simulated activity
/// (a scan worker, a prefetcher, a calibration thread, ...).
///
/// Lifetime: the coroutine starts running as soon as it is called and frees
/// its own frame when it finishes (both initial and final suspend are
/// `suspend_never`), so the returned `Task` is just a fire-and-forget token.
/// Completion is signaled through simulation primitives (`Latch`), not by
/// awaiting the Task — this keeps ownership trivially correct with a
/// single-threaded event loop.
///
/// Under PIOQO_SIM_CHECKS every Task frame is registered with the invariant
/// checker for its whole lifetime, which is what lets the checker catch
/// double resumes, resumes of destroyed frames, and workers still suspended
/// at quiescence (see sim/sim_checks.h).
///
/// Exceptions escaping a simulated activity indicate a programming error and
/// terminate the process.
///
/// The type is [[nodiscard]] so a spawn reads as a decision, not an
/// accident: write `Worker(...).Detach();` at fire-and-forget sites. Every
/// build compiles with -Werror=unused-result, so a dropped Task does not
/// compile.
struct [[nodiscard]] Task {
  struct promise_type {
    Task get_return_object() noexcept {
      checks::OnFrameCreated(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
      return {};
    }
    ~promise_type() {
      checks::OnFrameDestroyed(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::abort(); }
  };

  /// Explicit fire-and-forget acknowledgement. The coroutine already ran (or
  /// suspended) eagerly when it was called; calling `Detach()` on the
  /// returned token changes nothing at runtime — it exists so the
  /// [[nodiscard]] above can tell a deliberate spawn
  /// (`Worker(...).Detach();`) from a dropped coroutine.
  void Detach() const noexcept {}
};

/// Awaitable pause: `co_await Delay(sim, d)` resumes the coroutine `d`
/// microseconds of simulated time later. A zero delay still goes through the
/// event queue, i.e. it yields to other events scheduled for "now".
class Delay {
 public:
  Delay(Simulator& sim, double duration) : sim_(sim), duration_(duration) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    ScheduleResume(sim_, duration_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  double duration_;
};

}  // namespace pioqo::sim

#endif  // PIOQO_SIM_TASK_H_
