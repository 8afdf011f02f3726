#ifndef PIOQO_SIM_SIM_CHECKS_H_
#define PIOQO_SIM_SIM_CHECKS_H_

#include <coroutine>
#include <cstddef>

#include "sim/simulator.h"

/// Debug-mode invariant checker for the coroutine simulator.
///
/// The whole library drives C++20 coroutines from a single-threaded event
/// loop; the handles parked in wait queues (sim/wait_queue.h), device
/// completion callbacks and CPU bursts are raw `std::coroutine_handle<>`s.
/// Resuming a handle twice, resuming a handle whose frame was destroyed, or
/// destroying a frame that still has a scheduled resume is undefined
/// behavior that typically corrupts memory *silently*. When compiled in
/// (CMake option `PIOQO_SIM_CHECKS`, default ON) this layer tracks every
/// coroutine frame and every scheduled resume, and turns each of those bugs
/// into an immediate PIOQO_LOG_FATAL with a precise message. When the option
/// is OFF every hook below compiles to an empty inline function — zero cost.
///
/// The registry is `thread_local`: a simulator (and all its coroutines) is
/// confined to one thread, so no synchronization is needed and the checker
/// itself can never introduce a data race.
namespace pioqo::sim::checks {

#if PIOQO_SIM_CHECKS

/// Runtime master switch (default on). Toggle only while no simulation is
/// in flight — state recorded while disabled is simply not tracked.
bool Enabled();
void SetEnabled(bool enabled);

/// Frame lifecycle, called by coroutine promise types (see sim/task.h).
void OnFrameCreated(void* frame);
void OnFrameDestroyed(void* frame);

/// A resume of `frame` has been scheduled (event queue, device completion,
/// CPU burst). Fails if one is already pending (double resume) or the frame
/// is destroyed.
void OnResumeScheduled(void* frame);
/// About to call `handle.resume()`. Fails if the frame was destroyed since
/// the resume was scheduled.
void OnBeforeResume(void* frame);

/// `frame` parked itself in a `WaitQueue` / left it again (only the queue
/// calls these). Destroying a frame still registered as a waiter is fatal
/// (its queue would later resume a dangling handle).
void OnWaiterRegistered(void* frame);
void OnWaiterUnregistered(void* frame);

/// Coroutine frames created and not yet destroyed (running or suspended).
/// At quiescence — after `Simulator::Run()` returns and all workers have
/// finished — this must be zero; a nonzero value means a leaked worker that
/// is still suspended with nobody left to wake it.
size_t NumLiveFrames();
/// Scheduled-but-not-yet-delivered resumes.
size_t NumPendingResumes();

/// Fatal error if any live frame remains; `context` names the call site.
void ExpectQuiescent(const char* context);

/// Clears all tracked state (between independent scenarios in one test).
void ResetForTest();

#else  // !PIOQO_SIM_CHECKS — every hook is a no-op the optimizer deletes.

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}
inline void OnFrameCreated(void*) {}
inline void OnFrameDestroyed(void*) {}
inline void OnResumeScheduled(void*) {}
inline void OnBeforeResume(void*) {}
inline void OnWaiterRegistered(void*) {}
inline void OnWaiterUnregistered(void*) {}
inline size_t NumLiveFrames() { return 0; }
inline size_t NumPendingResumes() { return 0; }
inline void ExpectQuiescent(const char*) {}
inline void ResetForTest() {}

#endif  // PIOQO_SIM_CHECKS

}  // namespace pioqo::sim::checks

namespace pioqo::sim {

/// Schedules `h.resume()` `delay` microseconds from now, with the resume
/// validated by the invariant checker at both schedule and delivery time.
/// Every piece of library code that wakes a suspended coroutine through the
/// event queue goes through this helper (sync primitives, Delay, devices).
inline void ScheduleResume(Simulator& sim, double delay,
                           std::coroutine_handle<> h) {
  checks::OnResumeScheduled(h.address());
  sim.ScheduleAfter(delay, [h] {
    checks::OnBeforeResume(h.address());
    h.resume();
  });
}

}  // namespace pioqo::sim

#endif  // PIOQO_SIM_SIM_CHECKS_H_
